package policy

import (
	"slices"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
)

// walkScratch is the checker's traversal state, reused from walk to walk.
// Between walks onChain is all false.
type walkScratch struct {
	onChain []bool // devices on the chain being traversed
	chain   []apkeep.DevID
}

// walk computes the EC's fate from every device by traversing its
// functional forwarding graph once, with memoization: each device has at
// most one successor for a given EC, so every node on a traversal chain
// shares the chain's terminal outcome, and chains that close on
// themselves (or join an in-progress chain) are loops.
func (c *Checker) walk(ec apkeep.ECID) *ecResult {
	s := &c.scratch
	n := c.model.NumColumns()
	r := &ecResult{outcomes: make([]Outcome, n), next: make([]apkeep.DevID, n)}
	for id := range r.outcomes {
		r.outcomes[id].Kind = notWalked
		r.next[id] = -1
	}
	if len(s.onChain) < n {
		s.onChain = make([]bool, n)
	}

	for _, start := range c.order {
		if r.outcomes[start].Kind != notWalked {
			continue
		}
		chain := s.chain[:0]
		cur := start
		var terminal Outcome
		for {
			if o := r.outcomes[cur]; o.Kind != notWalked {
				terminal = o
				break
			}
			if s.onChain[cur] {
				terminal = Outcome{Kind: Looped, At: c.model.DevName(cur)}
				break
			}
			s.onChain[cur] = true
			chain = append(chain, cur)
			next, end := c.hop(cur, ec)
			r.next[cur] = next
			if end.Kind != notWalked {
				terminal = end
				break
			}
			cur = next
		}
		for _, id := range chain {
			s.onChain[id] = false
			r.outcomes[id] = terminal
		}
		s.chain = chain
	}
	return r
}

// hop moves an EC's packets one step on from device cur: next is the
// device they reach (-1 if none), and end is where their fate is sealed
// (Kind notWalked while they travel on). An ingress filter seals it at
// next's door. A next hop with no link is the one name a hop looks up:
// unless it is a live topology device, the walk ends there as a drop,
// even if the model has interned the name.
func (c *Checker) hop(cur apkeep.DevID, ec apkeep.ECID) (next apkeep.DevID, end Outcome) {
	m := c.model
	port := m.PortAt(cur, ec)
	switch {
	case port.Action == dataplane.Deliver:
		return -1, Outcome{Kind: Delivered, At: m.DevName(cur)}
	case port.Action == dataplane.Drop:
		return -1, Outcome{Kind: Dropped, At: m.DevName(cur)}
	case m.BlockedAt(cur, port.OutIntf, dataplane.Out, ec):
		return -1, Outcome{Kind: Filtered, At: m.DevName(cur)}
	}
	if l, ok := c.ingress(cur, port.OutIntf); ok {
		if m.BlockedAt(l.peer, l.peerIntf, dataplane.In, ec) {
			return l.peer, Outcome{Kind: Filtered, At: m.DevName(l.peer)}
		}
		return l.peer, Outcome{Kind: notWalked}
	}
	if next := m.DevOf(port.NextHop); next >= 0 && int(next) < len(c.live) && c.live[next] {
		return next, Outcome{Kind: notWalked}
	}
	return -1, Outcome{Kind: Dropped, At: port.NextHop}
}

// TracePath returns the names of the devices an EC's packets visit
// starting at device src, ending where the fate is sealed, by
// re-walking the model hop by hop as walk does. Used by violation
// explanations and packet traces; waypoint checks follow the walk's
// cached next hops instead.
func (c *Checker) TracePath(ec apkeep.ECID, src apkeep.DevID) []string {
	var path []string
	var seen []apkeep.DevID
	for cur := src; !slices.Contains(seen, cur); {
		seen = append(seen, cur)
		path = append(path, c.model.DevName(cur))
		next, end := c.hop(cur, ec)
		if end.Kind != notWalked {
			if end.At != path[len(path)-1] {
				path = append(path, end.At) // an ingress filter or a next hop outside the topology
			}
			break
		}
		cur = next
	}
	return path
}

// Witness produces a concrete packet demonstrating an EC (for violation
// reports).
func (c *Checker) Witness(ec bdd.Node) (bdd.Packet, bool) { return c.model.Witness(ec) }
