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
	// blocked holds the ECs the binding denies (ECs are split so each is
	// entirely allowed or entirely blocked).
	blocked idSet
}

// FilterTransfer records one EC changing filter status at one binding.
type FilterTransfer struct {
	Key     FilterKey
	EC      ECID
	Blocked bool // new status
}

// BlockedAt reports whether an EC is denied at a binding. Bindings that
// do not exist permit everything.
func (m *Model) BlockedAt(dev, intf string, dir dataplane.Direction, id ECID) bool {
	if fs := m.filters[FilterKey{Device: dev, Intf: intf, Dir: dir}]; fs != nil {
		return fs.blocked.has(id)
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
// without ACL permits everything). Retracting a line its binding does
// not hold returns ErrAbsentRule, as DeleteRule does for a rule; the
// other changes of the batch are applied all the same.
func (m *Model) UpdateFilters(changes []dd.Entry[dataplane.FilterRule]) error {
	touched := make(map[FilterKey]bool)
	var absent error
	for _, e := range changes {
		k := FilterKey{Device: e.Val.Device, Intf: e.Val.Intf, Dir: e.Val.Dir}
		fs := m.filters[k]
		if fs == nil {
			m.filterSeq++
			fs = &filterState{allow: bdd.True, fact: filterFact(m.filterSeq)}
			m.filters[k] = fs
		}
		if e.Diff > 0 {
			fs.lines = append(fs.lines, e.Val)
		} else if i := slices.Index(fs.lines, e.Val); i >= 0 {
			fs.lines = slices.Delete(fs.lines, i, i+1)
		} else if absent == nil {
			absent = fmt.Errorf("%w: filter line %v", ErrAbsentRule, e.Val)
		}
		touched[k] = true
	}
	if m.tr != nil {
		for _, k := range sortedFilterKeys(touched) {
			m.refreshFilter(k)
		}
		return absent
	}
	for k := range touched {
		m.refreshFilter(k)
	}
	return absent
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
		for _, id := range m.byNodeIfTraced(fs.blocked.appendTo(nil)) {
			m.flipFilter(k, id, false)
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
	var blockedNow idSet
	for _, id := range m.byNodeIfTraced(m.split(deny, fullRange)) {
		blockedNow.add(id)
		if !fs.blocked.has(id) {
			m.flipFilter(k, id, true)
		}
		fs.blocked.del(id)
	}
	for _, id := range m.byNodeIfTraced(fs.blocked.appendTo(nil)) {
		m.flipFilter(k, id, false)
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
func (m *Model) flipFilter(k FilterKey, id ECID, blocked bool) {
	fact := m.filters[k].fact
	if !blocked {
		fact = -fact
	}
	m.bumpSig(id, fact)
	m.ftransfers = append(m.ftransfers, FilterTransfer{Key: k, EC: id, Blocked: blocked})
	if m.tr != nil {
		action := "allow"
		if blocked {
			action = "block"
		}
		m.tr.Event(obs.TrackModel, obs.EventFilterFlip,
			trace.S("filter", filterLabel(k)), trace.U("ec", uint64(m.slots[id].node)), trace.S("action", action))
	}
}

// TakeFilterTransfers returns and clears accumulated filter transfers.
func (m *Model) TakeFilterTransfers() []FilterTransfer {
	out := m.ftransfers
	m.ftransfers = nil
	return out
}
