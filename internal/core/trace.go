package core

import (
	"fmt"
	"strings"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/policy"
)

// TraceHop is one step of a packet's journey: the device it is at, the
// FIB rule that matched there (nil when the device has no route), and
// what happened.
type TraceHop struct {
	Device string
	// Rule is the longest-prefix-match FIB rule applied (nil = no rule,
	// packet dropped by the default action).
	Rule *dataplane.Rule
	// Filtered names the ACL hop that discarded the packet ("" = none):
	// "out@<intf>" on egress or "in@<intf>" on the next device's ingress.
	Filtered string
}

// Trace is a full packet trace: the paper's section-4 debugging
// functionality ("dumping the full packet traces: what rules they match,
// which path they take").
type Trace struct {
	Packet bdd.Packet
	Hops   []TraceHop
	// Outcome is the packet's fate, as classified by the policy checker.
	Outcome policy.Outcome
}

func (t Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packet %v\n", t.Packet)
	for _, h := range t.Hops {
		fmt.Fprintf(&b, "  %s: ", h.Device)
		switch {
		case h.Rule == nil:
			b.WriteString("no matching rule -> drop")
		case h.Filtered != "":
			fmt.Fprintf(&b, "%s, filtered %s", ruleText(*h.Rule), h.Filtered)
		default:
			b.WriteString(ruleText(*h.Rule))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  => %s at %s\n", t.Outcome.Kind, t.Outcome.At)
	return b.String()
}

// ruleText renders a rule without repeating the device name.
func ruleText(r dataplane.Rule) string {
	switch r.Action {
	case dataplane.Forward:
		return fmt.Sprintf("match %s -> %s via %s", r.Prefix, r.NextHop, r.OutIntf)
	case dataplane.Deliver:
		return fmt.Sprintf("match %s -> deliver", r.Prefix)
	default:
		return fmt.Sprintf("match %s -> drop", r.Prefix)
	}
}

// Trace follows a concrete packet injected at src through the verified
// data plane, recording the matched rule at every hop and any filter
// that discards it. It reads the maintained state only; no recomputation
// happens, and it costs the path, not the network.
func (v *Verifier) Trace(src string, pkt bdd.Packet) Trace {
	model, checker := v.model, v.checker
	tr := Trace{Packet: pkt}
	// The EC containing the packet, found through the model's
	// destination index, determines outcomes; the concrete rule at each
	// hop is the longest covering prefix in that device's prefix trie.
	// The ECs partition the packet space, so one always contains it.
	ec, _ := model.ECOf(pkt)
	if o, ok := checker.Outcome(ec, src); ok {
		tr.Outcome = o
	} else {
		tr.Outcome = policy.Outcome{Kind: policy.Dropped, At: src}
	}
	path := []string{src}
	if id := model.DevOf(src); id >= 0 {
		path = checker.TracePath(ec, id)
	}
	for _, dev := range path {
		hop := TraceHop{Device: dev}
		if id := model.DevOf(dev); id >= 0 {
			if rule, ok := model.RuleAt(id, pkt.Dst); ok {
				hop.Rule = &rule
				if rule.Action == dataplane.Forward && model.BlockedAt(id, rule.OutIntf, dataplane.Out, ec) {
					hop.Filtered = "out@" + rule.OutIntf
				}
			}
		}
		tr.Hops = append(tr.Hops, hop)
	}
	// Attribute an ingress filter drop to the final hop, naming the
	// interface the packet arrived on (the previous hop's link).
	if tr.Outcome.Kind == policy.Filtered && len(tr.Hops) > 0 {
		last := &tr.Hops[len(tr.Hops)-1]
		if last.Filtered == "" && last.Device == tr.Outcome.At {
			last.Filtered = "in@ingress"
			if len(tr.Hops) >= 2 {
				prev := tr.Hops[len(tr.Hops)-2]
				if prev.Rule != nil {
					if in, ok := checker.Ingress(prev.Device, prev.Rule.OutIntf); ok && in[0] == last.Device {
						last.Filtered = "in@" + in[1]
					}
				}
			}
		}
	}
	return tr
}
