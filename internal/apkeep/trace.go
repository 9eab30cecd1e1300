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
// flip can be walked back to the exact config change. Tracing only
// records: every loop of the model runs in one defined order (ascending
// ids, sorted rules and bindings) whether or not a trace is attached,
// so a traced apply does exactly the untraced one's work, and its
// events come in the same order on every run. With no trace attached
// the hot paths pay one nil check each.

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

// sortFilters orders bindings by device name, interface, direction.
func (m *Model) sortFilters(fss []*filterState) {
	slices.SortFunc(fss, func(x, y *filterState) int {
		a, b := x.key, y.key
		return cmp.Or(cmp.Compare(m.devs[a.Device].name, m.devs[b.Device].name),
			cmp.Compare(a.Intf, b.Intf), cmp.Compare(a.Dir, b.Dir))
	})
}
