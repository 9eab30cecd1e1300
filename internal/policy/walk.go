package policy

import (
	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
)

// walkScratch is the checker's traversal state, reused from walk to walk.
// Between walks onChain is all false.
type walkScratch struct {
	onChain []bool // devices on the chain being traversed
	chain   []int32
}

// walk computes the EC's fate from every device by traversing its
// functional forwarding graph once, with memoization: each device has at
// most one successor for a given EC, so every node on a traversal chain
// shares the chain's terminal outcome, and chains that close on
// themselves (or join an in-progress chain) are loops. A next hop
// outside the topology ends the walk as a drop at that name.
func (c *Checker) walk(ec apkeep.ECID) *ecResult {
	s := &c.scratch
	n := len(c.names)
	r := &ecResult{outcomes: make([]Outcome, n), next: make([]int32, n)}
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
	traverse:
		for {
			if o := r.outcomes[cur]; o.Kind != notWalked {
				terminal = o
				break traverse
			}
			if s.onChain[cur] {
				terminal = Outcome{Kind: Looped, At: c.names[cur]}
				break traverse
			}
			s.onChain[cur] = true
			chain = append(chain, cur)

			dev := c.names[cur]
			port := c.model.PortAt(dev, ec)
			switch port.Action {
			case dataplane.Deliver:
				terminal = Outcome{Kind: Delivered, At: dev}
				break traverse
			case dataplane.Drop:
				terminal = Outcome{Kind: Dropped, At: dev}
				break traverse
			}
			// Forward: check the egress filter here and the ingress
			// filter at the neighbor.
			if c.model.BlockedAt(dev, port.OutIntf, dataplane.Out, ec) {
				terminal = Outcome{Kind: Filtered, At: dev}
				break traverse
			}
			if l, ok := c.ingress(cur, port.OutIntf); ok {
				r.next[cur] = l.peer // the packet reaches the neighbor's door
				if c.model.BlockedAt(c.names[l.peer], l.peerIntf, dataplane.In, ec) {
					terminal = Outcome{Kind: Filtered, At: c.names[l.peer]}
					break traverse
				}
				cur = l.peer
				continue
			}
			next, ok := c.ids[port.NextHop]
			if !ok {
				terminal = Outcome{Kind: Dropped, At: port.NextHop}
				break traverse
			}
			r.next[cur] = next
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

// TracePath returns the devices an EC's packets visit starting at src,
// ending at the device where the fate is sealed, by re-walking the
// model. Used by violation explanations and packet traces; waypoint
// checks follow the walk's cached next hops instead.
func (c *Checker) TracePath(ec apkeep.ECID, src string) []string {
	var path []string
	seen := make(map[string]bool)
	cur := src
	for !seen[cur] {
		seen[cur] = true
		path = append(path, cur)
		port := c.model.PortAt(cur, ec)
		if port.Action != dataplane.Forward {
			return path
		}
		if c.model.BlockedAt(cur, port.OutIntf, dataplane.Out, ec) {
			return path
		}
		next := port.NextHop
		if in, ok := c.Ingress(cur, port.OutIntf); ok {
			if c.model.BlockedAt(in[0], in[1], dataplane.In, ec) {
				return append(path, in[0])
			}
			next = in[0]
		}
		cur = next
	}
	return path
}

// Witness produces a concrete packet demonstrating an EC (for violation
// reports).
func (c *Checker) Witness(ec bdd.Node) (bdd.Packet, bool) { return c.model.Witness(ec) }
