package core

import (
	"fmt"
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

// sameModelWork requires a traced and an untraced verification to have
// done the same model work: the same transfers, filter transfers and
// merges, ids and order included, and the same EC table length.
func sameModelWork(t *testing.T, where string, plain, traced *Verifier, rp, rt *Report) {
	t.Helper()
	a, b := rp.Model, rt.Model
	for _, msg := range []string{
		firstDiff("transfer", a.Transfers, b.Transfers),
		firstDiff("filter transfer", a.FilterTransfers, b.FilterTransfers),
		firstDiff("merge", a.Merges, b.Merges),
	} {
		if msg != "" {
			t.Fatalf("%s: %s", where, msg)
		}
	}
	if a.Inserted != b.Inserted || a.Deleted != b.Deleted {
		t.Fatalf("%s: rule counts differ untraced and traced", where)
	}
	if a, b := plain.Model().NumSlots(), traced.Model().NumSlots(); a != b {
		t.Fatalf("%s: %d EC slots untraced, %d traced", where, a, b)
	}
}

// firstDiff describes the first difference between an untraced list a
// and a traced list b ("" when they are equal).
func firstDiff[T comparable](what string, a, b []T) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("%s %d is %+v untraced, %+v traced", what, i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d %ss untraced, %d traced", len(a), what, len(b))
	}
	return ""
}

// aclStaticRound returns one acl-static-edits-shaped round on net, four
// batches: a 16-line ACL bound, then unbound, and 32 drop statics of
// length plen (/28 or longer) that tile host /24s from the first,
// added, then removed.
func aclStaticRound(net *topology.Net, rng *rand.Rand, plen uint8) [][]netcfg.Change {
	devs := net.NodeNames
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
	per := 1 << (plen - 24) // statics per /24
	for i := 0; i < 32; i++ {
		host := net.HostPrefix[devs[(d+1+i/per)%len(devs)]]
		r := netcfg.StaticRoute{Prefix: netcfg.Prefix{Addr: host.Addr + netcfg.Addr(i%per)<<(32-plen), Len: plen}, Drop: true}
		add = append(add, netcfg.AddStaticRoute{Device: devs[d], Route: r})
		remove = append(remove, netcfg.RemoveStaticRoute{Device: devs[d], Route: r})
	}
	return [][]netcfg.Change{
		{netcfg.SetACL{Device: a, Name: "edit", Lines: lines}, netcfg.BindACL{Device: a, Intf: intf, Name: "edit"}},
		{netcfg.BindACL{Device: a, Intf: intf}, netcfg.SetACL{Device: a, Name: "edit"}},
		add, remove,
	}
}

// aclWideRound returns three batches on net: a port-only deny bound on
// one device, which splits every EC, then another on a second device,
// which splits every half again, then both unbound.
func aclWideRound(net *topology.Net, rng *rand.Rand) [][]netcfg.Change {
	devs := net.NodeNames
	a, b := devs[rng.Intn(len(devs))], devs[rng.Intn(len(devs))]
	ia, ib := net.Devices[a].Interfaces[1].Name, net.Devices[b].Interfaces[2].Name
	acl := func(proto netcfg.IPProto, port uint16) []netcfg.ACLLine {
		return []netcfg.ACLLine{
			{Seq: 10, Action: netcfg.Deny, Proto: proto, DstPortLo: port, DstPortHi: port},
			{Seq: 20, Action: netcfg.Permit},
		}
	}
	return [][]netcfg.Change{
		{netcfg.SetACL{Device: a, Name: "wide", Lines: acl(netcfg.ProtoTCP, 22)}, netcfg.BindACL{Device: a, Intf: ia, Name: "wide"}},
		{netcfg.SetACL{Device: b, Name: "wide2", Lines: acl(netcfg.ProtoUDP, 53)}, netcfg.BindACL{Device: b, Intf: ib, Name: "wide2"}},
		{netcfg.BindACL{Device: a, Intf: ia}, netcfg.SetACL{Device: a, Name: "wide"},
			netcfg.BindACL{Device: b, Intf: ib}, netcfg.SetACL{Device: b, Name: "wide2"}},
	}
}

// TestTracedTransfersEqualUntraced runs acl-static-edits-shaped rounds
// (a 16-line ACL bound and unbound, 32 drop /28 statics that fill two
// host /24s added and removed) through a traced and an untraced
// verifier: tracing only records, so the load and every apply do the
// same model work on both (sameModelWork) and give the same verdicts.
func TestTracedTransfersEqualUntraced(t *testing.T) {
	net, err := topology.FatTree(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	plain, traced := New(Options{}), New(Options{TraceApplies: 2})
	rp, err := plain.Load(net.Network)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := traced.Load(net.Network)
	if err != nil {
		t.Fatal(err)
	}
	sameModelWork(t, "load", plain, traced, rp, rt)
	for _, v := range []*Verifier{plain, traced} {
		for i, src := range net.NodeNames {
			dst := net.NodeNames[(i+1)%len(net.NodeNames)]
			v.AddPolicy(policy.Reachability{PolicyName: "reach-" + src, Src: src, Dst: dst,
				Hdr: dataplane.Match{Dst: net.HostPrefix[dst]}, Mode: policy.ReachAll})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 8; round++ {
		for i, chs := range aclStaticRound(net, rng, 28) {
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
			sameModelWork(t, fmt.Sprintf("round %d apply %d", round, i), plain, traced, rp, rt)
			if !reflect.DeepEqual(plain.Verdicts(), traced.Verdicts()) {
				t.Fatalf("round %d apply %d: verdicts differ traced and untraced", round, i)
			}
		}
	}
}

// TestTracedRunEqualsUntraced drives a traced and an untraced verifier
// through the same steps on FatTree(6): under BGP, acl-static-edits-
// shaped rounds with /28 and /29 statics, and under both OSPF and BGP,
// port-only ACLs that split and merge every EC (aclWideRound) and
// seeded link flaps, collecting both node tables every other step. The
// load and every step must do the same model work on both
// (sameModelWork): an attached trace records events and never reorders
// or re-chooses the model's work.
func TestTracedRunEqualsUntraced(t *testing.T) {
	for _, mode := range []topology.Mode{topology.OSPF, topology.BGP} {
		net, err := topology.FatTree(6, mode)
		if err != nil {
			t.Fatal(err)
		}
		plain, traced := New(Options{}), New(Options{TraceApplies: 2})
		rp, err := plain.Load(net.Network)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := traced.Load(net.Network)
		if err != nil {
			t.Fatal(err)
		}
		sameModelWork(t, fmt.Sprintf("%v load", mode), plain, traced, rp, rt)
		rng := rand.New(rand.NewSource(2))
		var steps [][]netcfg.Change
		if mode == topology.BGP {
			for _, plen := range []uint8{28, 29, 28, 29} {
				steps = append(steps, aclStaticRound(net, rng, plen)...)
			}
		}
		for range 2 {
			steps = append(steps, aclWideRound(net, rng)...)
		}
		for range 12 {
			l := net.Topology.Links[rng.Intn(len(net.Topology.Links))]
			steps = append(steps,
				[]netcfg.Change{netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: true}},
				[]netcfg.Change{netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA}})
		}
		for i, chs := range steps {
			rp, err := plain.Apply(chs...)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := traced.Apply(chs...)
			if err != nil {
				t.Fatal(err)
			}
			sameModelWork(t, fmt.Sprintf("%v step %d", mode, i), plain, traced, rp, rt)
			if i%2 == 1 {
				// New nodes reuse the freed handles, so node order
				// stops following id order.
				plain.Model().Collect()
				traced.Model().Collect()
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
