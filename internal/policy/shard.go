package policy

import "realconfig/internal/dataplane"

// JoinMode says how per-shard verdicts of a destination-partitioned
// policy combine into the global verdict (Policy.Join). The shard layer scopes each
// unit's checker to that unit's slice of the destination space; because
// the slices partition the full space and equivalence classes refine
// packet behaviour, evaluating the policy under the per-unit scopes and
// joining the verdicts is exactly the unsharded evaluation.
type JoinMode uint8

const (
	// JoinAll: the policy holds iff it holds on every shard it
	// registered on; registering nowhere (empty header space) is
	// vacuously satisfied. Universally quantified policies (isolation,
	// waypointing, loop and blackhole freedom) join this way.
	JoinAll JoinMode = iota
	// JoinAny: the policy holds iff some registered shard satisfies it;
	// registering nowhere is violated. Existential policies (ReachSome)
	// join this way.
	JoinAny
	// JoinAllWitness: JoinAll, except that registering nowhere is
	// violated — ReachAll demands a nonempty header space actually
	// delivered, so an empty registration set cannot hold.
	JoinAllWitness
)

// JoinVerdicts folds per-shard verdicts under mode. verdicts holds one
// entry per shard the policy registered on (possibly none).
func JoinVerdicts(mode JoinMode, verdicts []bool) bool {
	switch mode {
	case JoinAny:
		for _, v := range verdicts {
			if v {
				return true
			}
		}
		return false
	case JoinAllWitness:
		if len(verdicts) == 0 {
			return false
		}
		fallthrough
	default: // JoinAll
		for _, v := range verdicts {
			if !v {
				return false
			}
		}
		return true
	}
}

// Header implements Policy.
func (p Reachability) Header() dataplane.Match { return p.Hdr }

// Join implements Policy. ReachAll needs a delivery witness (total > 0
// in at least one shard); ReachSome is existential; ReachNone is
// universal isolation.
func (p Reachability) Join() JoinMode {
	switch p.Mode {
	case ReachSome:
		return JoinAny
	case ReachAll:
		return JoinAllWitness
	default:
		return JoinAll
	}
}

// Header implements Policy.
func (p Waypoint) Header() dataplane.Match { return p.Hdr }

// Join implements Policy.
func (p Waypoint) Join() JoinMode { return JoinAll }

// Header implements Policy.
func (p LoopFree) Header() dataplane.Match { return p.Scope }

// Join implements Policy.
func (p LoopFree) Join() JoinMode { return JoinAll }

// Header implements Policy.
func (p BlackholeFree) Header() dataplane.Match { return p.Scope }

// Join implements Policy.
func (p BlackholeFree) Join() JoinMode { return JoinAll }
