package core

import (
	"fmt"

	"realconfig/internal/apkeep"
	"realconfig/internal/atom"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/obs"
	"realconfig/internal/policy"
	"realconfig/internal/trace"
)

// Model is the pluggable data plane model backend: the pipeline stage
// between the generator's FIB/filter deltas and the policy checker.
// Two implementations exist — *apkeep.Model (BDD predicates, the
// general backend) and *atom.Model (Delta-net-style destination
// intervals, faster on IPv4 destination-prefix workloads but with a
// dst-only filter fragment). Both speak apkeep's vocabulary types
// (Port, Transfer, BatchResult), so everything downstream is
// backend-agnostic.
type Model interface {
	policy.Model

	// ApplyBatch applies FIB rule changes in the given order.
	ApplyBatch(changes []dd.Entry[dataplane.Rule], order apkeep.Order) (*apkeep.BatchResult, error)
	// UpdateFilters applies packet-filter changes. Backends with a
	// restricted match fragment reject unsupported filters (atom:
	// anything beyond dst-prefix matches) before changing state.
	UpdateFilters(changes []dd.Entry[dataplane.FilterRule]) error
	// NumECs returns the partition size.
	NumECs() int
	// ContainsPacket reports whether a concrete packet belongs to an EC.
	ContainsPacket(ec bdd.Node, pkt bdd.Packet) bool
	// Lookup resolves a concrete packet's port on a device through the
	// EC partition.
	Lookup(dev string, pkt bdd.Packet) apkeep.Port
	// Instrument registers the backend's metrics on reg.
	Instrument(reg *obs.Registry)
	// SetTrace attaches a provenance trace to subsequent updates.
	SetTrace(tr *trace.Apply)
	// CheckPartition verifies the backend's partition invariants (tests).
	CheckPartition() error
	// Backend names the implementation ("bdd", "atom").
	Backend() string
}

// Backend names accepted by Options.Backend and the -backend flags.
const (
	// BackendBDD is the default APKeep-style BDD backend.
	BackendBDD = "bdd"
	// BackendAtom is the Delta-net-style destination-interval backend.
	BackendAtom = "atom"
)

// ModelBackend returns the effective backend name: Options.Backend with
// the empty string resolved to the default, bdd.
func (o Options) ModelBackend() string {
	if o.Backend == "" {
		return BackendBDD
	}
	return o.Backend
}

// ValidateBackend checks a backend name from a flag or config ("" means
// the default, bdd).
func ValidateBackend(name string) error {
	switch name {
	case "", BackendBDD, BackendAtom:
		return nil
	}
	return fmt.Errorf("core: unknown model backend %q (have: bdd, atom)", name)
}

// newModel builds the backend named by opts.Backend. Callers validate
// the name first (ValidateBackend); an unknown name here is a
// programming error.
func newModel(backend string) Model {
	switch backend {
	case "", BackendBDD:
		m := apkeep.New()
		m.AutoMerge = true // keep the EC partition minimal, as APKeep does
		return m
	case BackendAtom:
		return atom.New()
	}
	panic("core: unknown model backend " + backend)
}
