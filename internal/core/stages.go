package core

import (
	"fmt"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/obs"
	"realconfig/internal/policy"
	"realconfig/internal/trace"
)

// Stages is the verifier's back half: the data plane model updater and
// the policy checker of Figure 1, fed by the verifier's one generator.
// The verifier drives every implementation through the same pipeline
// (Verifier.SetNetwork). New uses the monolithic model+checker pair; a
// shard.Set fans each call out across destination-space shards.
type Stages interface {
	// UpdateModel applies the generator's filter and FIB rule deltas to
	// the EC model, rules in the given batch order.
	UpdateModel(rules []dd.Entry[dataplane.Rule], filters []dd.Entry[dataplane.FilterRule],
		order apkeep.Order) (*apkeep.BatchResult, error)
	// Check rechecks policies against the batch UpdateModel just
	// returned, over the current topology.
	Check(batch *apkeep.BatchResult, devices []string, adjs []dataplane.Adjacency) *policy.Result

	// AddPolicy registers (or replaces) a policy and returns its verdict.
	AddPolicy(p policy.Policy) bool
	// RemovePolicy unregisters a policy.
	RemovePolicy(name string)
	// Verdicts returns a copy of every registered policy's verdict.
	Verdicts() map[string]bool
	// Policies returns the registered policies sorted by name.
	Policies() []policy.Policy
	// NumECs returns the held equivalence-class count.
	NumECs() int
	// NumPairs returns the maintained (EC, device) pair count.
	NumPairs() int
	// Locate returns the model and checker whose forwarding state is
	// exact for pkt, for packet traces.
	Locate(pkt bdd.Packet) (Model, *policy.Checker)
	// Instrument registers the back half's metrics on reg.
	Instrument(reg *obs.Registry)
	// SetTrace attaches a provenance trace to subsequent updates (nil
	// detaches).
	SetTrace(tr *trace.Apply)
}

// monolith is the single-engine back half: one model and one checker
// over the whole packet space.
type monolith struct {
	model   Model
	checker *policy.Checker
}

func newMonolith(opts Options) *monolith {
	model := newModel(opts.Backend)
	checker := policy.NewChecker(model)
	checker.SetParallelism(opts.Parallel)
	return &monolith{model: model, checker: checker}
}

func (m *monolith) UpdateModel(rules []dd.Entry[dataplane.Rule], filters []dd.Entry[dataplane.FilterRule],
	order apkeep.Order) (*apkeep.BatchResult, error) {
	if err := m.model.UpdateFilters(filters); err != nil {
		return nil, fmt.Errorf("core: %s backend rejected filter changes: %w", m.model.Backend(), err)
	}
	return m.model.ApplyBatch(rules, order)
}

func (m *monolith) Check(batch *apkeep.BatchResult, devices []string, adjs []dataplane.Adjacency) *policy.Result {
	m.checker.SetTopology(devices, adjs)
	return m.checker.Update(batch.Transfers, batch.FilterTransfers, batch.Merges...)
}

func (m *monolith) AddPolicy(p policy.Policy) bool             { return m.checker.AddPolicy(p) }
func (m *monolith) RemovePolicy(name string)                   { m.checker.RemovePolicy(name) }
func (m *monolith) Verdicts() map[string]bool                  { return m.checker.Verdicts() }
func (m *monolith) Policies() []policy.Policy                  { return m.checker.Policies() }
func (m *monolith) NumECs() int                                { return m.model.NumECs() }
func (m *monolith) NumPairs() int                              { return m.checker.NumPairs() }
func (m *monolith) Locate(bdd.Packet) (Model, *policy.Checker) { return m.model, m.checker }

func (m *monolith) Instrument(reg *obs.Registry) {
	m.model.Instrument(reg)
	m.checker.Instrument(reg)
}

func (m *monolith) SetTrace(tr *trace.Apply) {
	m.model.SetTrace(tr)
	m.checker.SetTrace(tr)
}
