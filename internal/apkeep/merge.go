package apkeep

import (
	"slices"

	"realconfig/internal/bdd"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// APKeep's defining property is maintaining the MINIMUM number of ECs:
// splits happen when a rule boundary cuts a class, and classes whose
// behaviour becomes identical again (e.g. after the rule is removed)
// must merge back. This file implements merging via incremental
// behaviour signatures: every EC carries a commutative 64-bit hash over
// its (device column, port id) entries and filter marks, maintained on
// every transfer; candidate pairs collide in a signature index and are
// verified exactly before merging.

// MergeEvent records two ECs collapsing into one.
type MergeEvent struct {
	A, B   ECID // the merged-away classes
	Result ECID // their union
}

// mix64 is splitmix64's finalizer: a bijection on uint64, so distinct
// facts hash apart. The signature of an EC is the sum of its facts'
// hashes mod 2^64 (commutative, incrementally updatable).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// portFact hashes an EC's port id in one device column.
func portFact(dev DevID, id uint32) uint64 {
	if id == 0 {
		return 0 // drop entries must contribute nothing
	}
	return mix64(uint64(dev)<<32 | uint64(id))
}

// filterFact hashes a filter binding's mark; seq is the binding's
// number, so the top bit keeps it apart from every port fact.
func filterFact(seq uint64) uint64 {
	return mix64(1<<63 | seq)
}

// bumpSig applies a signature delta to an EC and reindexes it.
func (m *Model) bumpSig(id ECID, delta uint64) {
	if delta == 0 {
		return
	}
	s := m.slots[id].sig + delta
	m.unindexSig(id)
	m.indexSig(id, s)
	m.markDirty(id)
}

// markDirty lists an EC for the next merge pass.
func (m *Model) markDirty(id ECID) {
	if s := &m.slots[id]; !s.dirty {
		s.dirty = true
		m.dirty = append(m.dirty, id)
	}
}

// indexSig sets an EC's signature and puts it at the head of that
// signature's bucket.
func (m *Model) indexSig(id ECID, sig uint64) {
	s := &m.slots[id]
	s.sig, s.sigPrev, s.sigNext = sig, noID, noID
	if head, ok := m.bySig[sig]; ok {
		s.sigNext = head
		m.slots[head].sigPrev = id
	}
	m.bySig[sig] = id
}

// unindexSig takes an EC out of its signature's bucket.
func (m *Model) unindexSig(id ECID) {
	s := &m.slots[id]
	prev, next := s.sigPrev, s.sigNext
	switch {
	case prev != noID:
		m.slots[prev].sigNext = next
	case next != noID:
		m.bySig[s.sig] = next
	default:
		delete(m.bySig, s.sig)
	}
	if next != noID {
		m.slots[next].sigPrev = prev
	}
	s.sigPrev, s.sigNext = noID, noID
}

// behaviourEqual verifies exactly that two ECs behave identically on
// every device and at every filter binding.
func (m *Model) behaviourEqual(a, b ECID) bool {
	ra, rb := m.slots[a].row, m.slots[b].row
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if !slices.Equal(ra[:len(rb)], rb) {
		return false
	}
	for _, id := range ra[len(rb):] {
		if id != 0 {
			return false
		}
	}
	for i := range m.devs {
		for _, fs := range m.devs[i].filters {
			if fs.blocked.Has(a) != fs.blocked.Has(b) {
				return false
			}
		}
	}
	return true
}

// MergeECs collapses every pair of behaviourally identical classes among
// those touched since the last merge, restoring the minimal partition.
// ApplyBatch calls it automatically when AutoMerge is set.
func (m *Model) MergeECs() []MergeEvent {
	var events []MergeEvent
	defer func() { m.graveyard = nil }()
	for len(m.dirty) > 0 {
		// Take the last dirty EC and merge it with the first identical
		// class in its signature's bucket.
		id := m.dirty[len(m.dirty)-1]
		m.dirty = m.dirty[:len(m.dirty)-1]
		m.slots[id].dirty = false
		if m.slots[id].state != slotLive {
			continue // split or merged away since it was listed
		}
		partner := noID
		for other := m.bySig[m.slots[id].sig]; other != noID; other = m.slots[other].sigNext {
			if other != id && m.behaviourEqual(id, other) {
				partner = other
				break
			}
		}
		if partner == noID {
			continue
		}
		merged := m.mergePair(id, partner)
		if m.tr != nil {
			m.tr.Event(obs.TrackModel, obs.EventECMerge,
				trace.U("a", uint64(m.slots[id].node)), trace.U("b", uint64(m.slots[partner].node)),
				trace.U("ec", uint64(m.slots[merged].node)))
		}
		events = append(events, MergeEvent{A: id, B: partner, Result: merged})
		// The merged class may itself merge further.
		m.markDirty(merged)
	}
	return events
}

// mergePair replaces a and b with their union everywhere. The union
// revives the id of a class retired since the last Release when it is
// that class again (table.go).
func (m *Model) mergePair(a, b ECID) ECID {
	if m.graveyard == nil {
		m.graveyard = make(map[bdd.Node]ECID, len(m.retired))
		for _, id := range m.retired {
			m.graveyard[m.slots[id].node] = id
		}
	}
	node := m.H.Or(m.slots[a].node, m.slots[b].node)
	merged, ok := m.revive(node)
	if !ok {
		merged = m.alloc(node)
	}
	s := m.slots[a].sig // identical behaviour => identical signature
	m.unindexSig(a)
	m.unindexSig(b)
	m.idx.replace(a, merged)
	m.idx.replace(b, merged)
	m.indexSig(merged, s)
	m.slots[merged].row = m.slots[a].row
	m.eachFilter(func(fs *filterState) {
		if fs.blocked.Has(a) {
			fs.blocked.Del(a)
			fs.blocked.Del(b)
			fs.blocked.Add(merged)
		}
	})
	m.retire(a)
	m.retire(b)
	return merged
}
