package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/topology"
)

// TestExplainVerdictFlip mirrors the examples/quickstart scenario: on a
// k=4 BGP fat-tree, shutting down every uplink of edge01-00 must flip
// the edge-to-edge reachability policy, and Explain must walk the trace
// back to the config change, the rule deltas and the ECs behind it.
func TestExplainVerdictFlip(t *testing.T) {
	net, err := topology.FatTree(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{Order: apkeep.InsertFirst, TraceApplies: 8})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	src, dst := "edge00-00", "edge01-00"
	v.AddPolicy(policy.Reachability{
		PolicyName: "edge-to-edge", Src: src, Dst: dst,
		Hdr: dataplane.Match{Dst: net.HostPrefix[dst]}, Mode: policy.ReachAll,
	})
	if sat, _ := v.Checker().Verdict("edge-to-edge"); !sat {
		t.Fatal("edge-to-edge should hold initially")
	}

	// Break the destination: shut down every uplink of edge01-00.
	var changes []netcfg.Change
	for intf := range net.Topology.Neighbors(dst) {
		changes = append(changes, netcfg.ShutdownInterface{Device: dst, Intf: intf, Shutdown: true})
	}
	rep, err := v.Apply(changes...)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Violations(); len(got) != 1 || got[0] != "edge-to-edge" {
		t.Fatalf("violations = %v, want [edge-to-edge]", got)
	}
	if rep.TraceID == 0 {
		t.Fatal("tracing enabled but report carries no trace id")
	}

	ex, err := v.Explain("edge-to-edge")
	if err != nil {
		t.Fatal(err)
	}
	if ex.ApplyID != rep.TraceID {
		t.Errorf("explanation from apply %d, want the flipping apply %d", ex.ApplyID, rep.TraceID)
	}
	if ex.From != "pass" || ex.To != "fail" {
		t.Errorf("verdict transition %s -> %s, want pass -> fail", ex.From, ex.To)
	}
	// The exact config change: the shutdown diff on edge01-00.
	foundChange := false
	for _, c := range ex.Changes {
		if strings.HasPrefix(c, dst+":") && strings.Contains(c, "shutdown") {
			foundChange = true
		}
	}
	if !foundChange {
		t.Errorf("explanation names no shutdown change on %s: %v", dst, ex.Changes)
	}
	// The intermediate rules: the flip is caused by rule deltas (the
	// withdrawn routes), each named with its device and prefix.
	if len(ex.Rules) == 0 {
		t.Fatal("explanation names no rules")
	}
	foundRule := false
	for _, r := range ex.Rules {
		if strings.Contains(r, net.HostPrefix[dst].String()) {
			foundRule = true
		}
	}
	if !foundRule {
		t.Errorf("no rule mentions the destination prefix %s: %v", net.HostPrefix[dst], ex.Rules)
	}
	// The ECs behind the flip.
	if len(ex.ECs) == 0 {
		t.Error("explanation names no ECs")
	}
	if len(ex.Transfers) == 0 {
		t.Error("explanation records no EC transfers")
	}
	if s := ex.String(); !strings.Contains(s, "pass -> fail") {
		t.Errorf("String() = %q", s)
	}

	// Repair: the flip back to pass must now be the newest explanation.
	for i := range changes {
		sd := changes[i].(netcfg.ShutdownInterface)
		sd.Shutdown = false
		changes[i] = sd
	}
	if _, err := v.Apply(changes...); err != nil {
		t.Fatal(err)
	}
	ex2, err := v.Explain("edge-to-edge")
	if err != nil {
		t.Fatal(err)
	}
	if ex2.From != "fail" || ex2.To != "pass" {
		t.Errorf("post-repair transition %s -> %s, want fail -> pass", ex2.From, ex2.To)
	}
	if ex2.ApplyID <= ex.ApplyID {
		t.Errorf("repair explanation from apply %d, want newer than %d", ex2.ApplyID, ex.ApplyID)
	}
}

// TestExplainNamesEveryBlockRule: 16 drop /28 statics that tile the
// destination's host /24 on the source edge flip a reachability policy
// and move the /24's class as one block; Explain must list all 16 rules,
// each as its own entry.
func TestExplainNamesEveryBlockRule(t *testing.T) {
	net, err := topology.FatTree(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{Order: apkeep.InsertFirst, TraceApplies: 4})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	src, dst := "edge00-00", "edge01-00"
	host := net.HostPrefix[dst]
	v.AddPolicy(policy.Reachability{
		PolicyName: "edge-to-edge", Src: src, Dst: dst,
		Hdr: dataplane.Match{Dst: host}, Mode: policy.ReachAll,
	})
	var changes []netcfg.Change
	want := make(map[string]bool)
	for i := 0; i < 16; i++ {
		p := netcfg.Prefix{Addr: host.Addr + netcfg.Addr(i)<<4, Len: 28}
		changes = append(changes, netcfg.AddStaticRoute{Device: src, Route: netcfg.StaticRoute{Prefix: p, Drop: true}})
		want["insert "+src+" "+p.String()+" -> drop"] = true
	}
	rep, err := v.Apply(changes...)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Violations(); len(got) != 1 || got[0] != "edge-to-edge" {
		t.Fatalf("violations = %v, want [edge-to-edge]", got)
	}
	ex, err := v.Explain("edge-to-edge")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ex.Rules {
		delete(want, r)
	}
	if len(want) != 0 {
		t.Errorf("explanation misses %d of the 16 rules: %v", len(want), ex.Rules)
	}
}

// TestTracedTransfersEqualUntraced runs acl-static-edits-shaped rounds
// (a 16-line ACL bound and unbound, 32 drop /28 statics that fill two
// host /24s added and removed) through a traced and an untraced
// verifier: tracing sorts the model's work but must not change it, so
// every apply reports the same EC transfers and verdicts on both.
func TestTracedTransfersEqualUntraced(t *testing.T) {
	net, err := topology.FatTree(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	plain, traced := New(Options{}), New(Options{TraceApplies: 2})
	for _, v := range []*Verifier{plain, traced} {
		if _, err := v.Load(net.Network); err != nil {
			t.Fatal(err)
		}
		for i, src := range net.NodeNames {
			dst := net.NodeNames[(i+1)%len(net.NodeNames)]
			v.AddPolicy(policy.Reachability{PolicyName: "reach-" + src, Src: src, Dst: dst,
				Hdr: dataplane.Match{Dst: net.HostPrefix[dst]}, Mode: policy.ReachAll})
		}
	}
	rng := rand.New(rand.NewSource(1))
	devs := net.NodeNames
	for round := 0; round < 8; round++ {
		a, d := devs[rng.Intn(len(devs))], rng.Intn(len(devs))
		dst := net.HostPrefix[devs[(d+3)%len(devs)]]
		lines := []netcfg.ACLLine{}
		for i := 0; i < 16; i++ {
			p := uint16(1024 + 16*i)
			lines = append(lines, netcfg.ACLLine{Seq: 10 * (i + 1), Action: netcfg.Deny, Proto: netcfg.ProtoTCP, Dst: dst, DstPortLo: p, DstPortHi: p})
		}
		lines = append(lines, netcfg.ACLLine{Seq: 170, Action: netcfg.Permit})
		intf := net.Devices[a].Interfaces[1].Name
		var add, remove []netcfg.Change
		for i := 0; i < 32; i++ {
			host := net.HostPrefix[devs[(d+1+i/16)%len(devs)]]
			r := netcfg.StaticRoute{Prefix: netcfg.Prefix{Addr: host.Addr + netcfg.Addr(i%16)<<4, Len: 28}, Drop: true}
			add = append(add, netcfg.AddStaticRoute{Device: devs[d], Route: r})
			remove = append(remove, netcfg.RemoveStaticRoute{Device: devs[d], Route: r})
		}
		for i, chs := range [][]netcfg.Change{
			{netcfg.SetACL{Device: a, Name: "edit", Lines: lines}, netcfg.BindACL{Device: a, Intf: intf, Name: "edit"}},
			{netcfg.BindACL{Device: a, Intf: intf}, netcfg.SetACL{Device: a, Name: "edit"}},
			add, remove,
		} {
			rp, err := plain.Apply(chs...)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := traced.Apply(chs...)
			if err != nil {
				t.Fatal(err)
			}
			if len(rp.Model.Transfers) != len(rt.Model.Transfers) {
				t.Fatalf("round %d apply %d: %d transfers untraced, %d traced", round, i, len(rp.Model.Transfers), len(rt.Model.Transfers))
			}
			if !reflect.DeepEqual(plain.Verdicts(), traced.Verdicts()) {
				t.Fatalf("round %d apply %d: verdicts differ traced and untraced", round, i)
			}
		}
	}
}

// TestExplainDisabled checks the error paths: tracing off, and a policy
// never rechecked.
func TestExplainDisabled(t *testing.T) {
	v := New(Options{})
	if _, err := v.Explain("x"); err == nil {
		t.Fatal("Explain must fail with tracing disabled")
	}
	vt := New(Options{TraceApplies: 2})
	if _, err := vt.Explain("never-checked"); err == nil {
		t.Fatal("Explain must fail for a policy with no recorded recheck")
	}
}
