package apkeep

import (
	"errors"
	"fmt"
	"strings"

	"realconfig/internal/bdd"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// Collect frees every BDD node the model no longer uses (bdd's
// Table.Collect). Its roots are the model's own references: the EC
// table's predicates, every filter binding's allow predicate and the
// cached Match predicates. Every other node the model or its policy
// checker holds is reached through an EC id, so the roots cover them,
// but only at quiescence: call Collect between applies, never while a
// caller still holds the transfers or merge events of the last batch.
// Any other handle taken from the table before the call may be invalid
// after it.
func (m *Model) Collect() {
	roots := make([]bdd.Node, 0, len(m.slots)+len(m.preds))
	for i := range m.slots {
		if n := m.slots[i].node; n != bdd.False {
			roots = append(roots, n)
		}
	}
	m.eachFilter(func(fs *filterState) { roots = append(roots, fs.allow) })
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

// NumColumns returns the device table's size, the row width: one
// column per device a rule update, a filter update or a checker's
// topology ever named. Device ids run from 0 to NumColumns()-1.
func (m *Model) NumColumns() int { return len(m.devs) }

// NumPorts returns the port table's size: one per distinct port ever
// installed, plus DropPort.
func (m *Model) NumPorts() int { return len(m.portTab) }

// CheckRoots verifies the EC table and the invariant that makes
// Collect's roots sufficient. The table: its live slots and the
// partition agree one to one (as many live slots as ECs, each a
// distinct non-empty predicate); a slot that is no EC holds no row,
// signature, filter mark or interval; and no id retired since the last
// Release has been handed out again. Every id the model keys state by
// is then a live EC: signature buckets, merge-pass marks, filter marks
// and the destination index (the checker's CheckRoots covers its own
// state). And every other root still denotes its definition: each
// binding's allow predicate and each cached Match predicate rebuild to
// the same handle, which a collection that freed them would break.
// Like CheckPartition it is meant for tests.
func (m *Model) CheckRoots() error {
	var errs []error
	m.eachFilter(func(fs *filterState) {
		if m.allowOf(fs.lines) != fs.allow {
			errs = append(errs, fmt.Errorf("apkeep: filter %s: allow predicate no longer matches its lines", m.filterLabel(fs.key)))
		}
	})
	for match, p := range m.preds {
		if m.H.Match(match) != p {
			errs = append(errs, fmt.Errorf("apkeep: cached predicate of %v no longer matches it", match))
		}
	}
	live := 0
	nodes := make(map[bdd.Node]ECID, m.live)
	for i := range m.slots {
		id, s := ECID(i), &m.slots[i]
		if s.state == slotLive {
			live++
			if prev, dup := nodes[s.node]; dup || s.node == bdd.False {
				errs = append(errs, fmt.Errorf("apkeep: EC %d's predicate %d is empty or also EC %d's", id, s.node, prev))
			}
			nodes[s.node] = id
			continue
		}
		var held []string
		if s.row != nil {
			held = append(held, "a row")
		}
		if s.sig != 0 || s.sigPrev != noID || s.sigNext != noID {
			held = append(held, "a signature")
		}
		if s.dirty && s.state == slotFree {
			held = append(held, "a merge-pass mark")
		}
		m.eachFilter(func(fs *filterState) {
			if fs.blocked.has(id) {
				held = append(held, "filter "+m.filterLabel(fs.key)+"'s mark")
			}
		})
		if len(m.idx.member(id)) > 0 {
			held = append(held, "intervals")
		}
		if s.state == slotFree && s.node != bdd.False {
			held = append(held, "a predicate")
		}
		if len(held) > 0 {
			errs = append(errs, fmt.Errorf("apkeep: id %d is no EC but holds %s", id, strings.Join(held, ", ")))
		}
	}
	if live != m.live {
		errs = append(errs, fmt.Errorf("apkeep: %d live slots, partition size %d", live, m.live))
	}
	for _, id := range m.retired {
		if m.slots[id].state != slotRetired {
			errs = append(errs, fmt.Errorf("apkeep: id %d, retired since the last release, was handed out again", id))
		}
	}
	for _, id := range m.free {
		if m.slots[id].state != slotFree {
			errs = append(errs, fmt.Errorf("apkeep: id %d is on the free list but not free", id))
		}
	}
	for s, head := range m.bySig {
		for id := head; id != noID; id = m.slots[id].sigNext {
			if !m.Live(id) || m.slots[id].sig != s {
				errs = append(errs, fmt.Errorf("apkeep: signature bucket %x holds id %d, which is not an EC of that signature", s, id))
				break
			}
		}
	}
	for _, id := range m.dirty {
		if !m.slots[id].dirty {
			errs = append(errs, fmt.Errorf("apkeep: merge pass lists id %d, which is not marked", id))
		}
	}
	for _, iv := range m.idx.ivls {
		for id := range iv.ecs {
			if !m.Live(id) {
				errs = append(errs, fmt.Errorf("apkeep: index interval %d holds id %d, which is not an EC", iv.start, id))
			}
		}
	}
	return errors.Join(errs...)
}
