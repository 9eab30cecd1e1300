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
	A, B   bdd.Node // the merged-away classes
	Result bdd.Node // their union
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
func portFact(col int, id uint32) uint64 {
	if id == 0 {
		return 0 // drop entries must contribute nothing
	}
	return mix64(uint64(col)<<32 | uint64(id))
}

// filterFact hashes a filter binding's mark; seq is the binding's
// number, so the top bit keeps it apart from every port fact.
func filterFact(seq uint64) uint64 {
	return mix64(1<<63 | seq)
}

// bumpSig applies a signature delta to an EC and reindexes it.
func (m *Model) bumpSig(ec bdd.Node, delta uint64) {
	if delta == 0 {
		return
	}
	old := m.sig[ec]
	m.unindexSig(ec, old)
	m.sig[ec] = old + delta
	m.indexSig(ec, old+delta)
	m.dirty[ec] = struct{}{}
}

func (m *Model) indexSig(ec bdd.Node, s uint64) {
	set := m.bySig[s]
	if set == nil {
		set = make(map[bdd.Node]struct{})
		m.bySig[s] = set
	}
	set[ec] = struct{}{}
}

func (m *Model) unindexSig(ec bdd.Node, s uint64) {
	if set := m.bySig[s]; set != nil {
		delete(set, ec)
		if len(set) == 0 {
			delete(m.bySig, s)
		}
	}
}

// behaviourEqual verifies exactly that two ECs behave identically on
// every device and at every filter binding.
func (m *Model) behaviourEqual(a, b bdd.Node) bool {
	ra, rb := m.rows[a], m.rows[b]
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
	for _, fs := range m.filters {
		if fs.blocked[a] != fs.blocked[b] {
			return false
		}
	}
	return true
}

// MergeECs collapses every pair of behaviourally identical classes among
// those touched since the last merge, restoring the minimal partition.
// ApplyBatch calls it automatically when AutoMerge is set.
func (m *Model) MergeECs() []MergeEvent {
	var events []MergeEvent
	for len(m.dirty) > 0 {
		// Take one dirty EC and try to find a partner. Under tracing the
		// picks are lowest-node-first so event order is deterministic.
		var ec bdd.Node
		if m.tr != nil {
			first := true
			for e := range m.dirty {
				if first || e < ec {
					ec, first = e, false
				}
			}
		} else {
			for e := range m.dirty {
				ec = e
				break
			}
		}
		delete(m.dirty, ec)
		if _, live := m.ecs[ec]; !live {
			continue
		}
		bucket := m.bySig[m.sig[ec]]
		var partner bdd.Node
		found := false
		for other := range bucket {
			if other == ec || !m.behaviourEqual(ec, other) {
				continue
			}
			if !found || (m.tr != nil && other < partner) {
				partner, found = other, true
			}
			if m.tr == nil {
				break
			}
		}
		if !found {
			continue
		}
		merged := m.mergePair(ec, partner)
		if m.tr != nil {
			m.tr.Event(obs.TrackModel, obs.EventECMerge,
				trace.U("a", uint64(ec)), trace.U("b", uint64(partner)), trace.U("ec", uint64(merged)))
		}
		events = append(events, MergeEvent{A: ec, B: partner, Result: merged})
		// The merged class may itself merge further.
		m.dirty[merged] = struct{}{}
	}
	return events
}

// mergePair replaces a and b with their union everywhere.
func (m *Model) mergePair(a, b bdd.Node) bdd.Node {
	merged := m.H.Or(a, b)
	s := m.sig[a] // identical behaviour => identical signature
	m.unindexSig(a, m.sig[a])
	m.unindexSig(b, m.sig[b])
	delete(m.sig, a)
	delete(m.sig, b)
	delete(m.ecs, a)
	delete(m.ecs, b)
	delete(m.dirty, a)
	delete(m.dirty, b)
	m.ecs[merged] = struct{}{}
	m.idx.replace(a, merged)
	m.idx.replace(b, merged)
	m.sig[merged] = s
	m.indexSig(merged, s)
	m.rows[merged] = m.rows[a]
	delete(m.rows, a)
	delete(m.rows, b)
	for _, fs := range m.filters {
		if fs.blocked[a] {
			delete(fs.blocked, a)
			delete(fs.blocked, b)
			fs.blocked[merged] = true
		}
	}
	return merged
}
