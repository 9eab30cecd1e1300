package policy

import (
	"fmt"
	"sort"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
)

// Policy is a forwarding property registered with the checker. Policies
// declare the packets they "register" on via Header, and the checker
// indexes them by it, so a change rechecks only the policies whose
// header meets an affected EC — the key to incremental policy checking.
// Header spaces are dataplane.Match values (the zero value matches
// everything), so policies carry no model-specific handles and
// transfer between verifiers as plain values.
type Policy interface {
	Name() string
	// Header returns the packet space the policy registers on.
	Header() dataplane.Match
	// Eval computes the policy's satisfaction from the checker state.
	Eval(c *Checker) bool
}

// AddPolicy registers a policy (replacing any registered under its
// name) and evaluates it immediately, returning the initial verdict.
func (c *Checker) AddPolicy(p Policy) bool {
	if old, ok := c.policies[p.Name()]; ok {
		c.unregister(old)
	}
	name, kind := kindOf(p)
	rec := &registered{p: p, kind: kind, src: -1, via: -1, hist: c.metrics.RecheckSeconds[name]}
	c.policies[p.Name()] = rec
	c.register(rec)
	rec.verdict = c.eval(rec, c.results(rec.entry.ecs))
	c.metrics.Policies.Set(int64(len(c.policies)))
	return rec.verdict
}

// RemovePolicy unregisters a policy by name.
func (c *Checker) RemovePolicy(name string) {
	if rec, ok := c.policies[name]; ok {
		c.unregister(rec)
	}
	delete(c.policies, name)
	c.metrics.Policies.Set(int64(len(c.policies)))
}

// Verdict returns a policy's last verdict.
func (c *Checker) Verdict(name string) (satisfied, known bool) {
	rec, ok := c.policies[name]
	if !ok {
		return false, false
	}
	return rec.verdict, true
}

// Verdicts returns a copy of all verdicts.
func (c *Checker) Verdicts() map[string]bool {
	out := make(map[string]bool, len(c.policies))
	for name, rec := range c.policies {
		out[name] = rec.verdict
	}
	return out
}

// Policies returns the registered policies sorted by name, so callers
// that rebuild a checker (forks) register them deterministically.
func (c *Checker) Policies() []Policy {
	out := make([]Policy, 0, len(c.policies))
	for _, rec := range c.policies {
		out = append(out, rec.p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// ReachMode selects reachability semantics.
type ReachMode uint8

// Reachability modes.
const (
	// ReachAll: every packet in the header space injected at Src is
	// delivered at Dst.
	ReachAll ReachMode = iota
	// ReachSome: at least one packet is delivered at Dst.
	ReachSome
	// ReachNone: no packet is delivered at Dst (isolation).
	ReachNone
)

// Reachability is the paper's example policy shape: "only HTTP traffic
// should be allowed between subnet A and subnet B" decomposes into
// Reachability policies over header predicates.
type Reachability struct {
	PolicyName string
	Src, Dst   string
	Hdr        dataplane.Match // packet space the policy registers on
	Mode       ReachMode
}

// Name implements Policy.
func (p Reachability) Name() string { return p.PolicyName }

// Header implements Policy.
func (p Reachability) Header() dataplane.Match { return p.Hdr }

// Eval implements Policy.
func (p Reachability) Eval(c *Checker) bool {
	return p.check(c.model.DevOf(p.Src), -1, c.results(c.headerECs(p.Hdr)))
}

func (p *Reachability) devices() (src, via string) { return p.Src, "" }

func (p *Reachability) check(src, _ apkeep.DevID, rs []*ecResult) bool {
	delivered := 0
	for _, r := range rs {
		if o := r.outcome(src); o.Kind == Delivered && o.At == p.Dst {
			delivered++
		}
	}
	switch p.Mode {
	case ReachAll:
		return len(rs) > 0 && delivered == len(rs)
	case ReachSome:
		return delivered > 0
	default: // ReachNone
		return delivered == 0
	}
}

// Waypoint requires every delivered path from Src to Dst (for packets in
// Hdr) to traverse Via.
type Waypoint struct {
	PolicyName string
	Src, Dst   string
	Via        string
	Hdr        dataplane.Match
}

// Name implements Policy.
func (p Waypoint) Name() string { return p.PolicyName }

// Header implements Policy.
func (p Waypoint) Header() dataplane.Match { return p.Hdr }

// Eval implements Policy.
func (p Waypoint) Eval(c *Checker) bool {
	return p.check(c.model.DevOf(p.Src), c.model.DevOf(p.Via), c.results(c.headerECs(p.Hdr)))
}

func (p *Waypoint) devices() (src, via string) { return p.Src, p.Via }

// check follows each delivered EC's cached next hops from src: a
// delivered chain ends at the delivering device, and is the path
// TracePath would re-walk.
func (p *Waypoint) check(src, via apkeep.DevID, rs []*ecResult) bool {
	for _, r := range rs {
		if o := r.outcome(src); o.Kind != Delivered || o.At != p.Dst {
			continue
		}
		through := false
		for dev := src; dev >= 0; dev = r.next[dev] {
			if dev == via {
				through = true
				break
			}
		}
		if !through {
			return false
		}
	}
	return true
}

// LoopFree requires that no packet in Scope loops, from any device: the
// paper's example of a universal invariant.
type LoopFree struct {
	PolicyName string
	Scope      dataplane.Match
}

// Name implements Policy.
func (p LoopFree) Name() string { return p.PolicyName }

// Header implements Policy.
func (p LoopFree) Header() dataplane.Match { return p.Scope }

// Eval implements Policy.
func (p LoopFree) Eval(c *Checker) bool { return p.check(-1, -1, c.results(c.headerECs(p.Scope))) }

func (*LoopFree) devices() (src, via string) { return "", "" }

func (*LoopFree) check(_, _ apkeep.DevID, rs []*ecResult) bool {
	for _, r := range rs {
		for _, o := range r.outcomes {
			if o.Kind == Looped {
				return false
			}
		}
	}
	return true
}

// BlackholeFree requires that no packet in Scope is dropped by a device
// without a route (static drop routes count as drops too).
type BlackholeFree struct {
	PolicyName string
	Scope      dataplane.Match
}

// Name implements Policy.
func (p BlackholeFree) Name() string { return p.PolicyName }

// Header implements Policy.
func (p BlackholeFree) Header() dataplane.Match { return p.Scope }

// Eval implements Policy.
func (p BlackholeFree) Eval(c *Checker) bool { return p.check(-1, -1, c.results(c.headerECs(p.Scope))) }

func (*BlackholeFree) devices() (src, via string) { return "", "" }

func (*BlackholeFree) check(_, _ apkeep.DevID, rs []*ecResult) bool {
	for _, r := range rs {
		for _, o := range r.outcomes {
			if o.Kind == Dropped {
				return false
			}
		}
	}
	return true
}

// Explain renders a human-readable account of why a reachability-style
// check currently fails between src and dst for packets in hdr. When
// several ECs in the header fail, the one with the lowest predicate
// node is reported, so the account is deterministic.
func (c *Checker) Explain(src, dst string, hdr dataplane.Match) string {
	ecs := c.headerECs(hdr).AppendTo(nil)
	if len(ecs) == 0 {
		return "no packets in the header space"
	}
	node := c.model.Node
	sort.Slice(ecs, func(i, j int) bool { return node(ecs[i]) < node(ecs[j]) })
	for _, ec := range ecs {
		o, ok := c.Outcome(ec, src)
		if ok && o.Kind == Delivered && o.At == dst {
			continue
		}
		pkt, _ := c.model.WitnessIn(hdr, node(ec))
		if !ok {
			return fmt.Sprintf("packet %v: no outcome at %s", pkt, src)
		}
		return fmt.Sprintf("packet %v: %s at %s (path %v)", pkt, o.Kind, o.At, c.TracePath(ec, c.model.DevOf(src)))
	}
	return "all packets delivered"
}
