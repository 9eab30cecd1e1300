package shard

import (
	"sort"
	"strconv"
	"sync"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/core"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/obs"
	"realconfig/internal/policy"
	"realconfig/internal/trace"
)

// Set is a generator-free shard group and the sharded back half of a
// core.Verifier (core.NewOn): it fans FIB and filter batches out to its
// units, joins their results, and maintains the joined verdict of every
// registered policy. The control plane cannot shard — routing protocols
// couple every device — so the verifier's one generator feeds it.
// Differential tests and benchmarks drive it directly with synthetic
// batches.
type Set struct {
	part  Partition
	units []*Unit
	// pending holds each unit's batch from the last UpdateModel, for the
	// Check that follows it.
	pending []*apkeep.BatchResult

	// regs tracks, per policy, which units it registered on (units whose
	// space intersects its header space).
	regs     map[string]setReg
	verdicts map[string]bool
}

type setReg struct {
	p     policy.Policy
	units []int
}

// NewSet creates n units. parallel is each unit's internal checker
// parallelism (the units themselves always run concurrently).
func NewSet(n, parallel int) *Set {
	part := NewPartition(n)
	units := make([]*Unit, part.N())
	for i := range units {
		units[i] = newUnit(i, part, parallel)
	}
	return &Set{
		part:     part,
		units:    units,
		pending:  make([]*apkeep.BatchResult, len(units)),
		regs:     make(map[string]setReg),
		verdicts: make(map[string]bool),
	}
}

// Partition returns the set's destination partition.
func (s *Set) Partition() Partition { return s.part }

// Units exposes the per-shard state (read-only use: traces, metrics).
func (s *Set) Units() []*Unit { return s.units }

// AddPolicy registers a policy across the shards its header space
// intersects and returns the joined initial verdict. Policies are plain
// values with backend-neutral Match headers, so the same value registers
// on every intersecting unit; each unit's scoped checker confines
// evaluation to its own slice. Units whose slice misses the header space
// entirely are skipped — essential for the join semantics, since a
// JoinAllWitness policy registered vacuously would count as satisfied.
// A policy replaces any registered under the same name, on every unit
// the old one reached.
func (s *Set) AddPolicy(p policy.Policy) bool {
	s.RemovePolicy(p.Name())
	r := setReg{p: p}
	var per []bool
	hdr := p.Header()
	for i, u := range s.units {
		if u.H.And(u.Model.Pred(hdr), u.Space) == bdd.False {
			continue
		}
		per = append(per, u.Checker.AddPolicy(p))
		r.units = append(r.units, i)
	}
	s.regs[p.Name()] = r
	v := policy.JoinVerdicts(p.Join(), per)
	s.verdicts[p.Name()] = v
	return v
}

// RemovePolicy unregisters a policy from every shard it registered on.
func (s *Set) RemovePolicy(name string) {
	r, ok := s.regs[name]
	if !ok {
		return
	}
	for _, i := range r.units {
		s.units[i].Checker.RemovePolicy(name)
	}
	delete(s.regs, name)
	delete(s.verdicts, name)
}

// Verdicts returns a copy of the joined verdicts.
func (s *Set) Verdicts() map[string]bool {
	out := make(map[string]bool, len(s.verdicts))
	for k, v := range s.verdicts {
		out[k] = v
	}
	return out
}

// Policies returns the registered policies sorted by name.
func (s *Set) Policies() []policy.Policy {
	out := make([]policy.Policy, 0, len(s.regs))
	for _, r := range s.regs {
		out = append(out, r.p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// NumECs sums the units' equivalence-class counts. Shards hold
// overlapping slices of the packet space, so this exceeds a monolithic
// verifier's count; it measures held state, not distinct classes.
func (s *Set) NumECs() int {
	n := 0
	for _, u := range s.units {
		n += u.Model.NumECs()
	}
	return n
}

// NumPairs sums the units' maintained (EC, device) pair counts.
func (s *Set) NumPairs() int {
	n := 0
	for _, u := range s.units {
		n += u.Checker.NumPairs()
	}
	return n
}

// UpdateModel routes a batch to the units — each rule to the shard its
// prefix lands on, broadcast rules and every filter to all — and
// updates their models concurrently. The joined result sums counters
// and concatenates the units' transfers and merges; each unit's own
// batch is kept for the Check that follows.
func (s *Set) UpdateModel(rules []dd.Entry[dataplane.Rule], filters []dd.Entry[dataplane.FilterRule],
	order apkeep.Order) (*apkeep.BatchResult, error) {
	perRules := make([][]dd.Entry[dataplane.Rule], len(s.units))
	for _, e := range rules {
		if s.part.Broadcast(e.Val.Prefix) {
			for i := range perRules {
				perRules[i] = append(perRules[i], e)
			}
		} else {
			i := s.part.ShardFor(e.Val.Prefix)
			perRules[i] = append(perRules[i], e)
		}
	}
	errs := make([]error, len(s.units))
	s.each(func(i int, u *Unit) {
		if errs[i] = u.Model.UpdateFilters(filters); errs[i] == nil {
			s.pending[i], errs[i] = u.Model.ApplyBatch(perRules[i], order)
		}
	})
	batch := &apkeep.BatchResult{}
	for i, r := range s.pending {
		if errs[i] != nil {
			return nil, errs[i]
		}
		batch.Inserted += r.Inserted
		batch.Deleted += r.Deleted
		batch.Transfers = append(batch.Transfers, r.Transfers...)
		batch.FilterTransfers = append(batch.FilterTransfers, r.FilterTransfers...)
		batch.Merges = append(batch.Merges, r.Merges...)
	}
	return batch, nil
}

// Check rechecks every unit's policies against the batch its own
// UpdateModel produced (the joined batch argument is not re-split) and
// joins the results: counters sum, affected pairs union, and policy
// events are the joined-verdict flips.
func (s *Set) Check(_ *apkeep.BatchResult, devices []string, adjs []dataplane.Adjacency) *policy.Result {
	results := make([]*policy.Result, len(s.units))
	s.each(func(i int, u *Unit) {
		b := s.pending[i]
		u.Checker.SetTopology(devices, adjs)
		results[i] = u.Checker.Update(b.Transfers, b.FilterTransfers, b.Merges...)
	})
	check := &policy.Result{}
	pairs := make(map[policy.Pair]struct{})
	for _, r := range results {
		check.AffectedECs += r.AffectedECs
		check.PoliciesChecked += r.PoliciesChecked
		for _, p := range r.AffectedPairs {
			pairs[p] = struct{}{}
		}
	}
	check.AffectedPairs = policy.SortedPairs(pairs)
	check.Events = s.rejoin()
	return check
}

// each runs f on every unit concurrently (inline for a single unit).
func (s *Set) each(f func(i int, u *Unit)) {
	if len(s.units) == 1 {
		f(0, s.units[0])
		return
	}
	var wg sync.WaitGroup
	for i, u := range s.units {
		wg.Add(1)
		go func(i int, u *Unit) {
			defer wg.Done()
			f(i, u)
		}(i, u)
	}
	wg.Wait()
}

// Locate returns the model and checker of the shard owning pkt's
// destination: forwarding there is exactly the global forwarding for
// the packet.
func (s *Set) Locate(pkt bdd.Packet) (core.Model, *policy.Checker) {
	u := s.units[s.part.ShardOf(pkt.Dst)]
	return u.Model, u.Checker
}

// Instrument registers a shard-count gauge and each unit's model and
// checker series labeled shard="i".
func (s *Set) Instrument(reg *obs.Registry) {
	reg.Gauge("realconfig_shard_count", "Configured verifier shards.", nil).Set(int64(len(s.units)))
	for _, u := range s.units {
		view := reg.WithLabels(obs.Labels{"shard": strconv.Itoa(u.Index)})
		u.Model.Instrument(view)
		u.Checker.Instrument(view)
	}
}

// SetTrace is a no-op: units run concurrently and a trace buffer is
// single-writer, so sharded traces carry the verifier's pipeline spans
// and events but no per-component (EC, recheck) events.
func (s *Set) SetTrace(*trace.Apply) {}

// rejoin recomputes every policy's joined verdict from the units'
// current per-shard verdicts and returns the flips as policy events,
// sorted by name like a checker's own result.
func (s *Set) rejoin() []policy.PolicyEvent {
	var events []policy.PolicyEvent
	for name, r := range s.regs {
		per := make([]bool, 0, len(r.units))
		for _, i := range r.units {
			if v, known := s.units[i].Checker.Verdict(name); known {
				per = append(per, v)
			}
		}
		v := policy.JoinVerdicts(r.p.Join(), per)
		if v != s.verdicts[name] {
			s.verdicts[name] = v
			events = append(events, policy.PolicyEvent{Policy: name, Satisfied: v})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Policy < events[j].Policy })
	return events
}

// Compile-time check that Set is a verifier back half.
var _ core.Stages = (*Set)(nil)
