package apkeep

import (
	"fmt"
	"slices"
	"sort"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// FilterKey identifies a packet filter element: an ACL binding on one
// device interface in one direction.
type FilterKey struct {
	Device DevID
	Intf   string
	Dir    dataplane.Direction
}

// filterState is one binding's slice of the model; it lives in its
// device's filters.
type filterState struct {
	key FilterKey
	// lines are the binding's filter rules sorted by sequence number.
	lines []dataplane.FilterRule
	// allow is the predicate of packets the binding permits.
	allow bdd.Node
	// fact is the binding's signature fact (see filterFact).
	fact uint64
	// blocked holds the ECs the binding denies (ECs are split so each is
	// entirely allowed or entirely blocked).
	blocked ECSet
}

// FilterTransfer records one EC changing filter status at one binding.
type FilterTransfer struct {
	Key     FilterKey
	EC      ECID
	Blocked bool // new status
}

// BlockedAt reports whether an EC is denied at a binding. Bindings that
// do not exist permit everything.
func (m *Model) BlockedAt(dev DevID, intf string, dir dataplane.Direction, id ECID) bool {
	if fs := m.binding(dev, intf, dir); fs != nil {
		return fs.blocked.Has(id)
	}
	return false
}

// binding returns a device's binding on (intf, dir), or nil.
func (m *Model) binding(dev DevID, intf string, dir dataplane.Direction) *filterState {
	for _, fs := range m.devs[dev].filters {
		if fs.key.Dir == dir && fs.key.Intf == intf {
			return fs
		}
	}
	return nil
}

// eachFilter calls f on every binding, device by device.
func (m *Model) eachFilter(f func(fs *filterState)) {
	for i := range m.devs {
		for _, fs := range m.devs[i].filters {
			f(fs)
		}
	}
}

// UpdateFilters applies filter rule changes (insertions and deletions of
// ACL lines at bindings) and refreshes the affected bindings' EC status.
// A binding whose last line disappears is removed entirely (interface
// without ACL permits everything). Retracting a line its binding does
// not hold returns ErrAbsentRule, as DeleteRule does for a rule; the
// other changes of the batch are applied all the same.
func (m *Model) UpdateFilters(changes []dd.Entry[dataplane.FilterRule]) error {
	touched := make([]*filterState, 0, 4) // a batch edits a binding or two
	var absent error
	for _, e := range changes {
		dev := m.Intern(e.Val.Device)
		fs := m.binding(dev, e.Val.Intf, e.Val.Dir)
		if fs == nil {
			m.filterSeq++
			fs = &filterState{key: FilterKey{Device: dev, Intf: e.Val.Intf, Dir: e.Val.Dir}, allow: bdd.True, fact: filterFact(m.filterSeq)}
			m.devs[dev].filters = append(m.devs[dev].filters, fs)
		}
		if e.Diff > 0 {
			fs.lines = append(fs.lines, e.Val)
		} else if i := slices.Index(fs.lines, e.Val); i >= 0 {
			fs.lines = slices.Delete(fs.lines, i, i+1)
		} else if absent == nil {
			absent = fmt.Errorf("%w: filter line %v", ErrAbsentRule, e.Val)
		}
		if !slices.Contains(touched, fs) {
			touched = append(touched, fs)
		}
	}
	m.sortFilters(touched)
	for _, fs := range touched {
		m.refreshFilter(fs)
	}
	return absent
}

// refreshFilter recomputes a binding's allow predicate (first-match
// semantics with implicit trailing deny) and reclassifies ECs whose
// status flips. The partition is already pure with respect to the old
// deny predicate, so only the packets whose verdict changed, the XOR of
// the old and new allow predicates, can need a split or a flip: the
// split runs on them, hinted by their destination hull, and every EC
// inside them flips. An EC outside keeps its status.
func (m *Model) refreshFilter(fs *filterState) {
	if len(fs.lines) == 0 {
		// Binding removed: everything allowed again.
		fs.blocked.Each(func(id ECID) { m.flipFilter(fs, id, false) })
		ds := &m.devs[fs.key.Device]
		ds.filters = slices.DeleteFunc(ds.filters, func(b *filterState) bool { return b == fs })
		return
	}
	sort.Slice(fs.lines, func(i, j int) bool { return fs.lines[i].Seq < fs.lines[j].Seq })
	allow := m.allowOf(fs.lines)
	if allow == fs.allow {
		return
	}
	changed := m.H.Xor(fs.allow, allow)
	fs.allow = allow
	lo, hi, _ := m.H.DstHull(changed)
	// Widened to the index's intervals: an ACL line's destination that
	// no rule names leaves no boundary behind once it is unbound.
	hint := dstHint{dstRange: m.idx.enclosing(dstRange{lo, hi})}
	var label string
	if m.tr != nil {
		label = "filter " + m.filterLabel(fs.key)
	}
	for _, id := range m.split(changed, hint, label) {
		blocked := !fs.blocked.Has(id)
		if blocked {
			fs.blocked.Add(id)
		} else {
			fs.blocked.Del(id)
		}
		m.flipFilter(fs, id, blocked)
	}
}

// allowOf returns the packets lines permit, under first-match semantics
// with an implicit trailing deny; lines must be sorted by sequence. It
// folds over runs, maximal sequences of lines with one action: a run's
// union does not depend on the order of its lines, so a permit run
// adds what it matches outside the runs before it, and only the runs
// are combined with Diff and Or.
func (m *Model) allowOf(lines []dataplane.FilterRule) bdd.Node {
	allow := bdd.False
	covered := bdd.False
	for i := 0; i < len(lines); {
		j := i + 1
		for j < len(lines) && lines[j].Action == lines[i].Action {
			j++
		}
		ms := m.matches[:0]
		for _, l := range lines[i:j] {
			ms = append(ms, l.Match)
		}
		m.matches = ms
		run := m.H.MatchAny(ms)
		if lines[i].Action == netcfg.Permit {
			allow = m.H.Or(allow, m.H.Diff(run, covered))
		}
		if j < len(lines) {
			covered = m.H.Or(covered, run)
		}
		i = j
	}
	return allow
}

// flipFilter records one EC's filter-status change at a binding: the
// signature bump, the transfer, and the provenance event when tracing.
func (m *Model) flipFilter(fs *filterState, id ECID, blocked bool) {
	fact := fs.fact
	if !blocked {
		fact = -fact
	}
	m.bumpSig(id, fact)
	m.ftransfers = append(m.ftransfers, FilterTransfer{Key: fs.key, EC: id, Blocked: blocked})
	if m.tr != nil {
		action := "allow"
		if blocked {
			action = "block"
		}
		m.tr.Event(obs.TrackModel, obs.EventFilterFlip,
			trace.S("filter", m.filterLabel(fs.key)), trace.U("ec", uint64(m.slots[id].node)), trace.S("action", action))
	}
}

// TakeFilterTransfers returns and clears accumulated filter transfers.
func (m *Model) TakeFilterTransfers() []FilterTransfer {
	out := m.ftransfers
	m.ftransfers = nil
	return out
}
