package apkeep

import (
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
	Device string
	Intf   string
	Dir    dataplane.Direction
}

// filterState is one binding's slice of the model.
type filterState struct {
	// lines are the binding's filter rules sorted by sequence number.
	lines []dataplane.FilterRule
	// allow is the predicate of packets the binding permits.
	allow bdd.Node
	// fact is the binding's signature fact (see filterFact).
	fact uint64
	// blocked marks ECs the binding denies (ECs are split so each is
	// entirely allowed or entirely blocked).
	blocked map[bdd.Node]bool
}

// FilterTransfer records one EC changing filter status at one binding.
type FilterTransfer struct {
	Key     FilterKey
	EC      bdd.Node
	Blocked bool // new status
}

// Blocked reports whether an EC is denied at a binding. Bindings that do
// not exist permit everything.
func (m *Model) Blocked(dev, intf string, dir dataplane.Direction, ec bdd.Node) bool {
	if fs := m.filters[FilterKey{Device: dev, Intf: intf, Dir: dir}]; fs != nil {
		return fs.blocked[ec]
	}
	return false
}

// FilterKeys returns the currently bound filter elements.
func (m *Model) FilterKeys() []FilterKey {
	out := make([]FilterKey, 0, len(m.filters))
	for k := range m.filters {
		out = append(out, k)
	}
	return out
}

// UpdateFilters applies filter rule changes (insertions and deletions of
// ACL lines at bindings) and refreshes the affected bindings' EC status.
// A binding whose last line disappears is removed entirely (interface
// without ACL permits everything). Every filter match is expressible as
// a BDD, so the error is always nil today; callers still check it.
func (m *Model) UpdateFilters(changes []dd.Entry[dataplane.FilterRule]) error {
	touched := make(map[FilterKey]bool)
	for _, e := range changes {
		k := FilterKey{Device: e.Val.Device, Intf: e.Val.Intf, Dir: e.Val.Dir}
		fs := m.filters[k]
		if fs == nil {
			m.filterSeq++
			fs = &filterState{allow: bdd.True, fact: filterFact(m.filterSeq), blocked: make(map[bdd.Node]bool)}
			m.filters[k] = fs
		}
		if e.Diff > 0 {
			fs.lines = append(fs.lines, e.Val)
		} else {
			for i, l := range fs.lines {
				if l == e.Val {
					fs.lines = append(fs.lines[:i], fs.lines[i+1:]...)
					break
				}
			}
		}
		touched[k] = true
	}
	if m.tr != nil {
		for _, k := range sortedFilterKeys(touched) {
			m.refreshFilter(k)
		}
		return nil
	}
	for k := range touched {
		m.refreshFilter(k)
	}
	return nil
}

// refreshFilter recomputes a binding's allow predicate (first-match
// semantics with implicit trailing deny) and reclassifies ECs whose
// status flips.
func (m *Model) refreshFilter(k FilterKey) {
	fs := m.filters[k]
	if m.tr != nil {
		m.curRule = "filter " + filterLabel(k)
	}
	if len(fs.lines) == 0 {
		// Binding removed: everything allowed again.
		if m.tr != nil {
			for _, ec := range sortedBoolKeys(fs.blocked) {
				m.flipFilter(k, ec, false)
			}
		} else {
			for ec := range fs.blocked {
				m.flipFilter(k, ec, false)
			}
		}
		delete(m.filters, k)
		return
	}
	sort.Slice(fs.lines, func(i, j int) bool { return fs.lines[i].Seq < fs.lines[j].Seq })
	allow := m.allowOf(fs.lines)
	if allow == fs.allow {
		return
	}
	fs.allow = allow
	deny := m.H.Not(allow)
	// Split so every EC is pure w.r.t. the new boundary, then flip
	// statuses that changed.
	blockedNow := make(map[bdd.Node]bool)
	for _, ec := range m.split(deny, fullRange) {
		blockedNow[ec] = true
	}
	if m.tr != nil {
		for _, ec := range sortedBoolKeys(blockedNow) {
			if !fs.blocked[ec] {
				m.flipFilter(k, ec, true)
			}
			delete(fs.blocked, ec)
		}
		for _, ec := range sortedBoolKeys(fs.blocked) {
			m.flipFilter(k, ec, false)
			delete(fs.blocked, ec)
		}
		fs.blocked = blockedNow
		return
	}
	for ec := range blockedNow {
		if !fs.blocked[ec] {
			m.flipFilter(k, ec, true)
		}
		delete(fs.blocked, ec)
	}
	for ec := range fs.blocked {
		m.flipFilter(k, ec, false)
		delete(fs.blocked, ec)
	}
	fs.blocked = blockedNow
}

// allowOf returns the packets lines permit, under first-match semantics
// with an implicit trailing deny; lines must be sorted by sequence.
func (m *Model) allowOf(lines []dataplane.FilterRule) bdd.Node {
	allow := bdd.False
	covered := bdd.False
	for _, l := range lines {
		match := m.H.Match(l.Match)
		eff := m.H.Diff(match, covered)
		covered = m.H.Or(covered, match)
		if l.Action == netcfg.Permit {
			allow = m.H.Or(allow, eff)
		}
	}
	return allow
}

// flipFilter records one EC's filter-status change at a binding: the
// signature bump, the transfer, and the provenance event when tracing.
func (m *Model) flipFilter(k FilterKey, ec bdd.Node, blocked bool) {
	fact := m.filters[k].fact
	if !blocked {
		fact = -fact
	}
	m.bumpSig(ec, fact)
	m.ftransfers = append(m.ftransfers, FilterTransfer{Key: k, EC: ec, Blocked: blocked})
	if m.tr != nil {
		action := "allow"
		if blocked {
			action = "block"
		}
		m.tr.Event(obs.TrackModel, obs.EventFilterFlip,
			trace.S("filter", filterLabel(k)), trace.U("ec", uint64(ec)), trace.S("action", action))
	}
}

// TakeFilterTransfers returns and clears accumulated filter transfers.
func (m *Model) TakeFilterTransfers() []FilterTransfer {
	out := m.ftransfers
	m.ftransfers = nil
	return out
}
