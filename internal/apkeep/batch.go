package apkeep

import (
	"sort"

	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
)

// Order selects how a batch of rule updates is sequenced. The paper's
// Table 3 measures both: insertion-first moves each affected EC once
// (old port -> new port), deletion-first moves it twice (old -> drop ->
// new), roughly doubling the affected-EC count and the update time.
type Order uint8

// Batch orders.
const (
	InsertFirst Order = iota
	DeleteFirst
)

func (o Order) String() string {
	if o == DeleteFirst {
		return "-,+"
	}
	return "+,-"
}

// BatchResult summarizes one model update.
type BatchResult struct {
	Inserted, Deleted int
	// Transfers lists every EC port move, in application order.
	Transfers []Transfer
	// FilterTransfers lists filter-status changes (from ACL updates).
	FilterTransfers []FilterTransfer
	// Merges lists partition re-minimizations (AutoMerge only).
	Merges []MergeEvent
}

// AffectedECs counts EC moves, the paper's "#ECs" metric (an EC moved
// twice, e.g. via the drop detour, counts twice).
func (r *BatchResult) AffectedECs() int { return len(r.Transfers) }

// DistinctECs counts distinct (device, EC) pairs that moved.
func (r *BatchResult) DistinctECs() int {
	type k struct {
		d  DevID
		ec ECID
	}
	seen := make(map[k]struct{})
	for _, t := range r.Transfers {
		seen[k{t.Device, t.EC}] = struct{}{}
	}
	return len(seen)
}

// ApplyBatch applies a batch of FIB rule changes (entries with positive
// diffs are insertions, negative are deletions) in the given order and
// returns the resulting model changes. Entries are sequenced
// deterministically within each class.
func (m *Model) ApplyBatch(changes []dd.Entry[dataplane.Rule], order Order) (*BatchResult, error) {
	var ins, del []dataplane.Rule
	for _, e := range changes {
		switch {
		case e.Diff > 0:
			for i := int64(0); i < e.Diff; i++ {
				ins = append(ins, e.Val)
			}
		case e.Diff < 0:
			for i := e.Diff; i < 0; i++ {
				del = append(del, e.Val)
			}
		}
	}
	sortRules(ins)
	sortRules(del)

	res := &BatchResult{Inserted: len(ins), Deleted: len(del)}
	apply := func(rules []dataplane.Rule, insert bool) error {
		for _, r := range rules {
			if insert {
				m.InsertRule(r)
			} else if err := m.DeleteRule(r); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	if order == InsertFirst {
		err = apply(ins, true)
		if err == nil {
			err = apply(del, false)
		}
	} else {
		err = apply(del, false)
		if err == nil {
			err = apply(ins, true)
		}
	}
	if err != nil {
		return nil, err
	}
	res.Transfers = m.TakeTransfers()
	res.FilterTransfers = m.TakeFilterTransfers()
	if m.AutoMerge {
		res.Merges = m.MergeECs()
	}
	m.metrics.Transfers.Add(uint64(len(res.Transfers)))
	m.metrics.FilterTransfers.Add(uint64(len(res.FilterTransfers)))
	m.metrics.Merges.Add(uint64(len(res.Merges)))
	m.metrics.ECs.Set(int64(m.live))
	if !m.read {
		m.Release() // no checker reads the churn
	}
	return res, nil
}

// sortRules orders rules longest-prefix first, then by device and
// next-hop, for deterministic batches.
func sortRules(rules []dataplane.Rule) {
	sort.Slice(rules, func(i, j int) bool {
		a, b := rules[i], rules[j]
		if a.Prefix.Len != b.Prefix.Len {
			return a.Prefix.Len > b.Prefix.Len
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Prefix.Addr != b.Prefix.Addr {
			return a.Prefix.Addr < b.Prefix.Addr
		}
		if a.NextHop != b.NextHop {
			return a.NextHop < b.NextHop
		}
		return a.OutIntf < b.OutIntf
	})
}
