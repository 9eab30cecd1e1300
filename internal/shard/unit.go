package shard

import (
	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/policy"
)

// Unit is one shard's verification state: a full model/checker pair over
// its own BDD table, fed only the FIB rules whose destination prefix
// routes to it (plus broadcast rules and all filter rules). Within its
// owned Space the unit's forwarding function is exactly the global one —
// every rule that can match a packet destined into the space intersects
// the space, so it was routed here — which is what makes per-shard
// policy evaluation sound. Outside its space the unit still holds
// equivalence classes (they start at True and only split along rule
// prefixes), but policies are restricted to the space at registration
// and never observe them.
type Unit struct {
	// Index is the shard number within the partition.
	Index int
	// H is the unit's private BDD table (Model.H).
	H *bdd.Headers
	// Model is the unit's slice of the EC model.
	Model *apkeep.Model
	// Checker evaluates the space-restricted policy copies.
	Checker *policy.Checker
	// Space is the unit's slice of the destination space, in H.
	Space bdd.Node
}

func newUnit(idx int, part Partition, parallel int) *Unit {
	m := apkeep.New()
	m.AutoMerge = true // keep each slice's partition minimal, like core.New
	c := policy.NewChecker(m)
	c.SetParallelism(parallel)
	space := part.SpaceOn(m.H, idx)
	// Scope the checker to the unit's slice: policies carry global Match
	// headers, and the scope confines their index membership and witnesses
	// to the destinations this unit owns.
	c.SetScope(space)
	return &Unit{
		Index:   idx,
		H:       m.H,
		Model:   m,
		Checker: c,
		Space:   space,
	}
}
