package apkeep

import (
	"errors"
	"fmt"

	"realconfig/internal/bdd"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// Collect frees every BDD node the model no longer uses (bdd's
// Table.Collect). Its roots are the model's own references: the ECs,
// every filter binding's allow predicate and the cached Match
// predicates. Every other node the model or its policy checker holds is
// an EC, so the roots cover them, but only at quiescence: call Collect
// between applies, never while a caller still holds the transfers or
// merge events of the last batch. Any other handle taken from the
// table before the call may be invalid after it.
func (m *Model) Collect() {
	roots := make([]bdd.Node, 0, len(m.ecs)+len(m.filters)+len(m.preds))
	for ec := range m.ecs {
		roots = append(roots, ec)
	}
	for _, fs := range m.filters {
		roots = append(roots, fs.allow)
	}
	for _, p := range m.preds {
		roots = append(roots, p)
	}
	before := m.H.Size()
	after := m.H.Collect(roots)
	m.metrics.Collections.Inc()
	m.metrics.Nodes.Set(int64(after))
	if m.tr != nil {
		m.tr.Event(obs.TrackModel, obs.EventBDDCollect,
			trace.I("nodes_before", int64(before)), trace.I("nodes_after", int64(after)))
	}
}

// NumIntervals returns the destination index's interval count: one per
// rule-prefix boundary ever installed, plus one.
func (m *Model) NumIntervals() int { return len(m.idx.starts) }

// NumColumns returns the row width: one column per device a rule
// update ever named.
func (m *Model) NumColumns() int { return len(m.devs) }

// NumPorts returns the port table's size: one per distinct port ever
// installed, plus DropPort.
func (m *Model) NumPorts() int { return len(m.portTab) }

// CheckRoots verifies the invariant that makes Collect's roots
// sufficient. Every node the model keys its per-EC state by is a live
// EC: port rows, filter statuses, the destination index and the
// merge signatures (the checker's CheckRoots covers its own state). And
// every other root still denotes its definition: each binding's allow
// predicate and each cached Match predicate rebuild to the same handle,
// which a collection that freed them would break. Like CheckPartition
// it is meant for tests.
func (m *Model) CheckRoots() error {
	for k, fs := range m.filters {
		if m.allowOf(fs.lines) != fs.allow {
			return fmt.Errorf("apkeep: filter %s: allow predicate no longer matches its lines", filterLabel(k))
		}
	}
	for match, p := range m.preds {
		if m.H.Match(match) != p {
			return fmt.Errorf("apkeep: cached predicate of %v no longer matches it", match)
		}
	}
	var errs []error
	errs = append(errs, onlyECs(m.ecs, "rows", m.rows))
	for k, fs := range m.filters {
		errs = append(errs, onlyECs(m.ecs, "filter "+filterLabel(k), fs.blocked))
	}
	for _, iv := range m.idx.ivls {
		errs = append(errs, onlyECs(m.ecs, "index interval", iv.ecs))
	}
	for _, set := range m.bySig {
		errs = append(errs, onlyECs(m.ecs, "bySig", set))
	}
	errs = append(errs,
		onlyECs(m.ecs, "index byEC", m.idx.byEC),
		onlyECs(m.ecs, "sig", m.sig),
		onlyECs(m.ecs, "dirty", m.dirty))
	return errors.Join(errs...)
}

// onlyECs reports the first key of set that is not in ecs.
func onlyECs[V any](ecs map[bdd.Node]struct{}, where string, set map[bdd.Node]V) error {
	for ec := range set {
		if _, ok := ecs[ec]; !ok {
			return fmt.Errorf("apkeep: %s holds node %d, which is not an EC", where, ec)
		}
	}
	return nil
}
