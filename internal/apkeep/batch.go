package apkeep

import (
	"cmp"
	"slices"
	"strings"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
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
// deterministically within each class, and the class's exact moves are
// joined into block moves (move, flushMoves): after each class every
// EC's row is the one rule-by-rule application gives, with fewer
// splits.
func (m *Model) ApplyBatch(changes []dd.Entry[dataplane.Rule], order Order) (*BatchResult, error) {
	var nIns, nDel int
	for _, e := range changes {
		if e.Diff > 0 {
			nIns += int(e.Diff)
		} else {
			nDel -= int(e.Diff)
		}
	}
	ins, del := make([]dataplane.Rule, 0, nIns), make([]dataplane.Rule, 0, nDel)
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
	res := &BatchResult{Inserted: len(ins), Deleted: len(del)}
	apply := func(rules []dataplane.Rule, insert bool) error {
		sortRules(rules)
		defer m.flushMoves() // no move crosses the order boundary
		for _, r := range rules {
			if insert {
				m.insertRule(r)
			} else if err := m.deleteRule(r); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	switch {
	case m.sweeps(ins, del):
		m.sweep(ins)
	case order == InsertFirst:
		err = apply(ins, true)
		if err == nil {
			err = apply(del, false)
		}
	default:
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
	slices.SortFunc(rules, func(a, b dataplane.Rule) int {
		if a.Prefix.Len != b.Prefix.Len {
			return cmp.Compare(b.Prefix.Len, a.Prefix.Len)
		}
		if c := strings.Compare(a.Device, b.Device); c != 0 {
			return c
		}
		if a.Prefix.Addr != b.Prefix.Addr {
			return cmp.Compare(a.Prefix.Addr, b.Prefix.Addr)
		}
		return cmp.Or(strings.Compare(a.NextHop, b.NextHop), strings.Compare(a.OutIntf, b.OutIntf))
	})
}

// Block moves. A class of rules sorted longest prefix first often hands
// many sibling prefixes of one device to one port: 16 drop /28s tiling
// a /24, say. Moving them rule by rule splits the /24's EC 16 times and
// leaves 15 merges to undo it. Instead, a move whose effective space is
// the rule's whole prefix (an exact move) is queued, and consecutive
// exact moves to one device and port over adjacent prefixes form a run.
// The run moves as the maximal aligned CIDR blocks covering its range:
// each member lies in exactly one block, and a block tiled by several
// members moves once. Every other move flushes the run before it runs,
// so moves keep their rule order, and joining disjoint moves to one
// port on one device changes no packet's port.

// RuleSep separates the rules a block move's "rule" attribute lists.
const RuleSep = "; "

// queuedMove is one exact move waiting in the run: prefix p's whole
// space goes to the run's port. label is its rule's ruleLabel (traced
// applies only).
type queuedMove struct {
	p     netcfg.Prefix
	label string
}

// moveRun is the queue of exact moves to one port on one device, over
// prefixes that each start right after the previous one ends.
type moveRun struct {
	dev   DevID
	port  Port
	moves []queuedMove
}

// follows reports whether p starts right after the run's last prefix.
func (q *moveRun) follows(p netcfg.Prefix) bool {
	last := prefixRange(q.moves[len(q.moves)-1].p).hi
	return last != ^uint32(0) && uint32(p.Addr) == last+1
}

// move hands rule r's effective space on dev to port. A move is exact
// when no longer prefix inside r's has rules, so the space is the whole
// prefix: it joins the run when it continues it, and otherwise flushes
// the run and starts a new one. Any other move flushes the run and runs
// at once.
func (m *Model) move(dev DevID, r dataplane.Rule, port Port, verb string) {
	var label string
	if m.tr != nil {
		label = ruleLabel(verb, r)
	}
	ds, q := &m.devs[dev], &m.run
	if !ds.rules.hasLonger(r.Prefix) {
		if len(q.moves) > 0 && !(q.dev == dev && q.port == port && q.follows(r.Prefix)) {
			m.flushMoves()
		}
		q.dev, q.port = dev, port
		q.moves = append(q.moves, queuedMove{p: r.Prefix, label: label})
		return
	}
	eff := m.effective(ds, r.Prefix)
	if eff == bdd.False {
		return // every address has a longer rule: nothing moves
	}
	m.flushMoves()
	m.moveECs(dev, eff, port, dstHint{dstRange: prefixRange(r.Prefix)}, label)
}

// flushMoves runs the queued run as block moves and empties it: each
// maximal aligned CIDR block of the run's range moves once, with the
// members it holds. A block ends where a member does, since a member
// crossing its end would have made the block larger. A block of one
// member moves as that rule would; the events of a larger block name
// all its rules.
func (m *Model) flushMoves() {
	q := &m.run
	moves := q.moves
	if len(moves) == 0 {
		return
	}
	var buf [62]netcfg.Prefix // a range decomposes into at most 2*32-2 blocks
	i := 0
	for _, b := range netcfg.AppendRangeBlocks(buf[:0], uint32(moves[0].p.Addr), prefixRange(moves[len(moves)-1].p).hi, 32) {
		r := prefixRange(b)
		j := i + 1
		for j < len(moves) && uint32(moves[j].p.Addr) <= r.hi {
			j++
		}
		label := moves[i].label
		if j-i > 1 && m.tr != nil {
			labels := make([]string, 0, j-i)
			for _, mv := range moves[i:j] {
				labels = append(labels, mv.label)
			}
			label = strings.Join(labels, RuleSep)
		}
		m.moveECs(q.dev, m.H.DstPrefix(b), q.port, dstHint{dstRange: r, exact: true}, label)
		i = j
	}
	q.moves = moves[:0]
}
