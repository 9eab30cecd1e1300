package shard

import (
	"sort"
	"sync"
	"time"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/policy"
)

// Set is a generator-free shard group: it fans FIB and filter batches
// out to its units, joins their results, and maintains the joined
// verdict of every registered policy. The coordinator pairs it with a
// routing generator; benchmarks and differential tests drive it
// directly with synthetic batches.
type Set struct {
	part  Partition
	units []*Unit

	// regs tracks, per policy, which units it registered on (units whose
	// space intersects its header space) and how their verdicts join.
	regs     map[string]setReg
	verdicts map[string]bool
}

type setReg struct {
	mode  policy.JoinMode
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
func (s *Set) AddPolicy(p policy.Policy) bool {
	r := setReg{mode: p.Join()}
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
	v := policy.JoinVerdicts(r.mode, per)
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

// Apply routes a batch to the units, runs them concurrently, and joins
// the per-shard results: counters sum, affected pairs union, and policy
// events are the joined-verdict flips. The returned durations are the
// slowest unit's model and check times (the parallel critical path).
func (s *Set) Apply(rules []dd.Entry[dataplane.Rule], filters []dd.Entry[dataplane.FilterRule],
	order apkeep.Order, devices []string, adjs []dataplane.Adjacency) (*apkeep.BatchResult, *policy.Result, time.Duration, time.Duration, error) {
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

	results := make([]unitResult, len(s.units))
	if len(s.units) == 1 {
		results[0] = s.units[0].apply(perRules[0], filters, order, devices, adjs)
	} else {
		var wg sync.WaitGroup
		for i, u := range s.units {
			wg.Add(1)
			go func(i int, u *Unit) {
				defer wg.Done()
				results[i] = u.apply(perRules[i], filters, order, devices, adjs)
			}(i, u)
		}
		wg.Wait()
	}

	batch := &apkeep.BatchResult{}
	check := &policy.Result{}
	var modelDur, checkDur time.Duration
	pairs := make(map[policy.Pair]struct{})
	for _, r := range results {
		if r.err != nil {
			return nil, nil, 0, 0, r.err
		}
		batch.Inserted += r.batch.Inserted
		batch.Deleted += r.batch.Deleted
		batch.Transfers = append(batch.Transfers, r.batch.Transfers...)
		batch.FilterTransfers = append(batch.FilterTransfers, r.batch.FilterTransfers...)
		batch.Merges = append(batch.Merges, r.batch.Merges...)
		check.AffectedECs += r.check.AffectedECs
		check.PoliciesChecked += r.check.PoliciesChecked
		for _, p := range r.check.AffectedPairs {
			pairs[p] = struct{}{}
		}
		if r.modelDur > modelDur {
			modelDur = r.modelDur
		}
		if r.checkDur > checkDur {
			checkDur = r.checkDur
		}
	}
	check.AffectedPairs = policy.SortedPairs(pairs)
	check.Events = s.rejoin()
	return batch, check, modelDur, checkDur, nil
}

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
		v := policy.JoinVerdicts(r.mode, per)
		if v != s.verdicts[name] {
			s.verdicts[name] = v
			events = append(events, policy.PolicyEvent{Policy: name, Satisfied: v})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Policy < events[j].Policy })
	return events
}
