package apkeep

import (
	"cmp"
	"slices"

	"realconfig/internal/dataplane"
	"realconfig/internal/trace"
)

// Provenance tracing for the EC model. When a trace is attached, every
// split, transfer, merge and filter flip is recorded on the model track
// tagged with the rule (or filter binding) that caused it, so a verdict
// flip can be walked back to the exact config change. Tracing also
// switches the model's few map iterations to sorted order, making event
// sequences — and hence exported traces — deterministic; with no trace
// attached the hot paths are untouched (one nil check each).

// SetTrace attaches a provenance trace to subsequent model updates.
// Pass nil to detach.
func (m *Model) SetTrace(a *trace.Apply) { m.tr = a }

// ruleLabel renders the update owning the current model change, the
// "rule" attribute of split/transfer events.
func ruleLabel(verb string, r dataplane.Rule) string {
	return verb + " " + r.Device + " " + r.Prefix.String() + " -> " + portOf(r).String()
}

// filterLabel renders a filter binding for event attributes.
func (m *Model) filterLabel(k FilterKey) string {
	return m.devs[k.Device].name + ":" + k.Intf + ":" + k.Dir.String()
}

// sortByNode orders ECs by ascending predicate node, the order traced
// updates visit them in (tracing-mode determinism: ids depend on the
// free list, nodes on the predicates alone).
func (m *Model) sortByNode(ids []ECID) {
	slices.SortFunc(ids, func(a, b ECID) int { return cmp.Compare(m.slots[a].node, m.slots[b].node) })
}

// byNodeIfTraced sorts ids by node when tracing, and returns them.
func (m *Model) byNodeIfTraced(ids []ECID) []ECID {
	if m.tr != nil {
		m.sortByNode(ids)
	}
	return ids
}

// sortFilters orders bindings by device name, interface, direction.
func (m *Model) sortFilters(fss []*filterState) {
	slices.SortFunc(fss, func(x, y *filterState) int {
		a, b := x.key, y.key
		return cmp.Or(cmp.Compare(m.devs[a.Device].name, m.devs[b.Device].name),
			cmp.Compare(a.Intf, b.Intf), cmp.Compare(a.Dir, b.Dir))
	})
}
