package policy

import (
	"fmt"
	"sort"

	"realconfig/internal/bdd"
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
		c.unregister(old.Name(), old.Header())
	}
	c.policies[p.Name()] = p
	c.register(p.Name(), p.Header())
	v := p.Eval(c)
	c.verdicts[p.Name()] = v
	c.metrics.Policies.Set(int64(len(c.policies)))
	return v
}

// RemovePolicy unregisters a policy by name.
func (c *Checker) RemovePolicy(name string) {
	if p, ok := c.policies[name]; ok {
		c.unregister(name, p.Header())
	}
	delete(c.policies, name)
	delete(c.verdicts, name)
	c.metrics.Policies.Set(int64(len(c.policies)))
}

// Verdict returns a policy's last verdict.
func (c *Checker) Verdict(name string) (satisfied, known bool) {
	v, ok := c.verdicts[name]
	return v, ok
}

// Verdicts returns a copy of all verdicts.
func (c *Checker) Verdicts() map[string]bool {
	out := make(map[string]bool, len(c.verdicts))
	for k, v := range c.verdicts {
		out[k] = v
	}
	return out
}

// Policies returns the registered policies sorted by name, so callers
// that rebuild a checker (forks) register them deterministically.
func (c *Checker) Policies() []Policy {
	out := make([]Policy, 0, len(c.policies))
	for _, p := range c.policies {
		out = append(out, p)
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
	src := c.idOf(p.Src)
	delivered, total := 0, 0
	for ec := range c.headerECs(p.Hdr) {
		total++
		if o := c.ecs[ec].outcome(src); o.Kind == Delivered && o.At == p.Dst {
			delivered++
		}
	}
	switch p.Mode {
	case ReachAll:
		return total > 0 && delivered == total
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
	src := c.idOf(p.Src)
	for ec := range c.headerECs(p.Hdr) {
		if o := c.ecs[ec].outcome(src); o.Kind != Delivered || o.At != p.Dst {
			continue
		}
		through := false
		for _, dev := range c.TracePath(ec, p.Src) {
			if dev == p.Via {
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
func (p LoopFree) Eval(c *Checker) bool {
	for ec := range c.headerECs(p.Scope) {
		for _, o := range c.ecs[ec].outcomes {
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
func (p BlackholeFree) Eval(c *Checker) bool {
	for ec := range c.headerECs(p.Scope) {
		for _, o := range c.ecs[ec].outcomes {
			if o.Kind == Dropped {
				return false
			}
		}
	}
	return true
}

// Explain renders a human-readable account of why a reachability-style
// check currently fails between src and dst for packets in hdr. When
// several ECs in the header fail, the one with the lowest id is
// reported, so the account is deterministic.
func (c *Checker) Explain(src, dst string, hdr dataplane.Match) string {
	set := c.headerECs(hdr)
	if len(set) == 0 {
		return "no packets in the header space"
	}
	ecs := make([]bdd.Node, 0, len(set))
	for ec := range set {
		ecs = append(ecs, ec)
	}
	sort.Slice(ecs, func(i, j int) bool { return ecs[i] < ecs[j] })
	for _, ec := range ecs {
		o, ok := c.OutcomeOf(ec, src)
		if ok && o.Kind == Delivered && o.At == dst {
			continue
		}
		pkt, _ := c.model.WitnessIn(hdr, ec)
		if !ok {
			return fmt.Sprintf("packet %v: no outcome at %s", pkt, src)
		}
		return fmt.Sprintf("packet %v: %s at %s (path %v)", pkt, o.Kind, o.At, c.TracePath(ec, src))
	}
	return "all packets delivered"
}
