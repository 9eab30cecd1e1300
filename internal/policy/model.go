package policy

import (
	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
)

// Model is the data-plane model surface the checker evaluates against.
// Equivalence classes are opaque bdd.Node handles minted by the backend;
// the checker never interprets them, it only iterates, compares and
// passes them back. Policy header spaces are expressed as backend-neutral
// dataplane.Match values, so the same policy set runs unchanged on the
// BDD backend (apkeep) and the interval backend (atom).
type Model interface {
	// ECs returns the live set of equivalence classes. Callers must not
	// mutate the map; backends may return an internal map.
	ECs() map[bdd.Node]struct{}
	// PortOf returns the forwarding behaviour of dev for packets in ec.
	PortOf(dev string, ec bdd.Node) apkeep.Port
	// Blocked reports whether the ACL bound at (dev, intf, dir) drops ec.
	Blocked(dev, intf string, dir dataplane.Direction, ec bdd.Node) bool
	// MatchOverlaps reports whether m's packet space intersects ec.
	MatchOverlaps(m dataplane.Match, ec bdd.Node) bool
	// Witness returns a concrete packet in ec.
	Witness(ec bdd.Node) (bdd.Packet, bool)
	// WitnessIn returns a concrete packet in the intersection of m and ec.
	WitnessIn(m dataplane.Match, ec bdd.Node) (bdd.Packet, bool)
}
