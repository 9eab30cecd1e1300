package apkeep

import (
	"math/bits"
	"slices"

	"realconfig/internal/bdd"
)

// The EC table: every equivalence class has a dense id, and the model,
// its destination index and the policy checker keep their per-EC state
// in slices indexed by it rather than in maps keyed by the class's BDD
// node.
//
// An id never changes its packet set. A split retires the parent's id
// and takes two new ones; a merge retires two and takes one. A retired
// id keeps its predicate but no other state, and returns to the free
// list only on Release, which the policy checker calls once it has read
// the batch's churn. So from one Release to the next an id names
// exactly one packet set, and the ids born and retired in between are
// the whole of what changed in the partition. A model with no checker
// (Churn never called) releases at the end of every ApplyBatch.
//
// One exception keeps an EC's identity what it was when ECs were their
// nodes: a merge whose union is exactly the packet set of an id retired
// since the last Release revives that id instead of taking a new one
// (a class split and merged back within one batch is the class it was).

// ECID is an equivalence class's dense id, an index into the EC table.
type ECID uint32

// noID ends a signature bucket's links.
const noID = ^ECID(0)

// slotState is an EC table slot's place in an id's lifetime.
type slotState uint8

const (
	slotFree    slotState = iota // on the free list (or never used)
	slotLive                     // a class of the partition
	slotRetired                  // split or merged away, awaiting Release
)

// ecSlot is one EC's state.
type ecSlot struct {
	// node is the class's predicate: bdd.False when the slot is free.
	node bdd.Node
	// row holds the class's behaviour, one interned port id per device
	// column; a row shorter than the column count reads as drop in its
	// missing tail.
	row []uint32
	// sig is the class's commutative behaviour signature (merge.go);
	// sigPrev and sigNext link it into its signature's bucket.
	sig              uint64
	sigPrev, sigNext ECID
	state            slotState
	// dirty marks a slot listed in the model's dirty list: a class
	// touched since the last merge pass (a retired one stays listed
	// until the pass or Release drops it).
	dirty bool
}

// alloc hands out an id for a new live class.
func (m *Model) alloc(node bdd.Node) ECID {
	var id ECID
	if n := len(m.free); n > 0 {
		id = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		id = ECID(len(m.slots))
		m.slots = append(m.slots, ecSlot{})
	}
	m.slots[id] = ecSlot{node: node, sigPrev: noID, sigNext: noID, state: slotLive}
	m.live++
	m.born = append(m.born, id)
	return id
}

// retire takes a live class out of the partition. The caller has
// already moved its row, signature, filter marks and intervals away.
func (m *Model) retire(id ECID) {
	s := &m.slots[id]
	*s = ecSlot{node: s.node, sigPrev: noID, sigNext: noID, state: slotRetired, dirty: s.dirty}
	m.live--
	m.retired = append(m.retired, id)
	if m.graveyard != nil {
		m.graveyard[s.node] = id
	}
}

// revive returns a retired id whose packet set is node to the
// partition, or reports that none is retired.
func (m *Model) revive(node bdd.Node) (ECID, bool) {
	id, ok := m.graveyard[node]
	if !ok {
		return 0, false
	}
	delete(m.graveyard, node)
	i := slices.Index(m.retired, id)
	m.retired = slices.Delete(m.retired, i, i+1)
	m.slots[id] = ecSlot{node: node, sigPrev: noID, sigNext: noID, state: slotLive, dirty: m.slots[id].dirty}
	m.live++
	return id, true
}

// Churn returns the ids born and retired since the last Release (live
// slices; do not modify). An id can be in both. A revived id leaves
// retired, but stays in born if it was born since the last Release. The
// first call makes the caller the model's reader (policy.NewChecker
// makes that call): from then on retired ids wait for its Release.
func (m *Model) Churn() (born, retired []ECID) {
	m.read = true
	return m.born, m.retired
}

// Release returns the ids retired since the last Release to the free
// list. Call it once the batch's transfers, merges and churn have been
// consumed.
func (m *Model) Release() {
	m.dirty = slices.DeleteFunc(m.dirty, func(id ECID) bool { return m.slots[id].state != slotLive })
	for _, id := range m.retired {
		m.slots[id] = ecSlot{sigPrev: noID, sigNext: noID}
		m.free = append(m.free, id)
	}
	m.born, m.retired = m.born[:0], m.retired[:0]
}

// Node returns an id's predicate: bdd.False once the id is free.
func (m *Model) Node(id ECID) bdd.Node { return m.slots[id].node }

// Live reports whether an id is a class of the current partition.
func (m *Model) Live(id ECID) bool {
	return int(id) < len(m.slots) && m.slots[id].state == slotLive
}

// NumSlots returns the EC table's length: every id is below it.
func (m *Model) NumSlots() int { return len(m.slots) }

// AppendLive appends every live id to dst, ascending.
func (m *Model) AppendLive(dst []ECID) []ECID {
	for id := range m.slots {
		if m.slots[id].state == slotLive {
			dst = append(dst, ECID(id))
		}
	}
	return dst
}

// ECOf returns the class containing a concrete packet: only the ECs
// indexed on its destination interval are examined.
func (m *Model) ECOf(pkt bdd.Packet) (ECID, bool) {
	for id := range m.idx.at(uint32(pkt.Dst)) {
		if m.H.Contains(m.slots[id].node, pkt) {
			return id, true
		}
	}
	return 0, false
}

// idSet is a set of ids as a bitset: a filter binding's blocked classes.
type idSet []uint64

func (s idSet) has(id ECID) bool {
	w := int(id >> 6)
	return w < len(s) && s[w]&(1<<(id&63)) != 0
}

func (s *idSet) add(id ECID) {
	w := int(id >> 6)
	if w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[w] |= 1 << (id & 63)
}

func (s idSet) del(id ECID) {
	if w := int(id >> 6); w < len(s) {
		s[w] &^= 1 << (id & 63)
	}
}

// appendTo appends the set's ids to dst, ascending.
func (s idSet) appendTo(dst []ECID) []ECID {
	for w, word := range s {
		for word != 0 {
			dst = append(dst, ECID(w)<<6|ECID(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}
