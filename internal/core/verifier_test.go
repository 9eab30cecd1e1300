package core

import (
	"errors"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/simulate"
	"realconfig/internal/topology"
)

// crossCheck verifies the pipeline end state against a from-scratch
// simulation plus model/checker internal invariants.
func crossCheck(t *testing.T, v *Verifier, net *netcfg.Network) {
	t.Helper()
	want, err := simulate.Run(net)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	got := v.FIB()
	for r := range want.Rules {
		if got[r] <= 0 {
			t.Errorf("missing FIB rule %v", r)
		}
	}
	count := 0
	for r, d := range got {
		if d > 0 {
			count++
			if !want.Rules[r] {
				t.Errorf("extra FIB rule %v", r)
			}
		}
	}
	if count != len(want.Rules) {
		t.Errorf("FIB size %d, oracle %d", count, len(want.Rules))
	}
	if err := v.Model().CheckPartition(); err != nil {
		t.Error(err)
	}
}

func TestVerifierEndToEndLine(t *testing.T) {
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	rep, err := v.Load(net.Network)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RulesInserted == 0 || rep.RulesDeleted != 0 {
		t.Errorf("initial load: +%d/-%d rules", rep.RulesInserted, rep.RulesDeleted)
	}
	if rep.Model.AffectedECs() == 0 {
		t.Error("initial load affected no ECs")
	}
	crossCheck(t, v, net.Network)

	// Register policies.
	p02 := net.HostPrefix["r02"]
	if !v.AddPolicy(policy.Reachability{
		PolicyName: "r00->r02", Src: "r00", Dst: "r02", Hdr: dataplane.Match{Dst: p02}, Mode: policy.ReachAll,
	}) {
		t.Fatal("reachability should hold initially")
	}

	// LinkFailure: shut the r01-r02 link; reachability must break.
	var link netcfg.Link
	for _, l := range net.Topology.Links {
		if (l.DevA == "r01" && l.DevB == "r02") || (l.DevA == "r02" && l.DevB == "r01") {
			link = l
		}
	}
	rep, err = v.Apply(netcfg.ShutdownInterface{Device: link.DevA, Intf: link.IntfA, Shutdown: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations()) != 1 || rep.Violations()[0] != "r00->r02" {
		t.Errorf("violations = %v", rep.Violations())
	}
	if rep.Diff.LineCount() == 0 {
		t.Error("diff empty for shutdown change")
	}
	curNet := v.Network()
	crossCheck(t, v, curNet)

	// Repair: bring it back; the policy must flip to satisfied.
	rep, err = v.Apply(netcfg.ShutdownInterface{Device: link.DevA, Intf: link.IntfA, Shutdown: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repaired()) != 1 {
		t.Errorf("repaired = %v", rep.Repaired())
	}
	crossCheck(t, v, v.Network())
}

func TestVerifierFatTreeBGPIncremental(t *testing.T) {
	net, err := topology.FatTree(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{Order: apkeep.InsertFirst})
	full, err := v.Load(net.Network)
	if err != nil {
		t.Fatal(err)
	}
	crossCheck(t, v, net.Network)

	// LP change on one session.
	link := net.Topology.Links[3]
	peerAddr := net.Devices[link.DevB].Intf(link.IntfB).Addr.Addr
	inc, err := v.Apply(netcfg.SetLocalPref{Device: link.DevA, Neighbor: peerAddr, LocalPref: 150})
	if err != nil {
		t.Fatal(err)
	}
	crossCheck(t, v, v.Network())
	if inc.Engine.Entries*4 > full.Engine.Entries {
		t.Errorf("incremental entries %d vs full %d", inc.Engine.Entries, full.Engine.Entries)
	}
	if inc.RulesInserted+inc.RulesDeleted == 0 {
		t.Error("LP change produced no rule changes")
	}
	// Affected rules must be a small fraction (paper: <1%).
	total := 0
	for _, d := range v.FIB() {
		if d > 0 {
			total++
		}
	}
	if changed := inc.RulesInserted + inc.RulesDeleted; changed*10 > total {
		t.Errorf("%d of %d rules changed; want <10%%", changed, total)
	}
}

func TestVerifierACLChange(t *testing.T) {
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	p02 := net.HostPrefix["r02"]
	sshHdr := dataplane.Match{Dst: p02, Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22}
	webHdr := dataplane.Match{Dst: p02, Proto: netcfg.ProtoTCP, DstPortLo: 80, DstPortHi: 80}
	v.AddPolicy(policy.Reachability{PolicyName: "no-ssh", Src: "r00", Dst: "r02", Hdr: sshHdr, Mode: policy.ReachNone})
	v.AddPolicy(policy.Reachability{PolicyName: "web-ok", Src: "r00", Dst: "r02", Hdr: webHdr, Mode: policy.ReachAll})
	if sat, _ := v.Checker().Verdict("no-ssh"); sat {
		t.Fatal("no-ssh should initially be violated (ssh reachable)")
	}

	// Find r02's ingress interface from r01 and install a deny-ssh ACL.
	var inIntf string
	for intf, peer := range net.Topology.Neighbors("r02") {
		if peer[0] == "r01" {
			inIntf = intf
		}
	}
	lines := []netcfg.ACLLine{
		{Seq: 10, Action: netcfg.Deny, Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22},
		{Seq: 20, Action: netcfg.Permit},
	}
	rep, err := v.Apply(
		netcfg.SetACL{Device: "r02", Name: "nossh", Lines: lines},
		netcfg.BindACL{Device: "r02", Intf: inIntf, Name: "nossh", In: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilterChanges != 2 {
		t.Errorf("filter changes = %d, want 2", rep.FilterChanges)
	}
	if sat, _ := v.Checker().Verdict("no-ssh"); !sat {
		t.Error("no-ssh still violated after ACL")
	}
	if sat, _ := v.Checker().Verdict("web-ok"); !sat {
		t.Error("web-ok broken by ssh-only ACL")
	}
	if err := v.Model().CheckPartition(); err != nil {
		t.Error(err)
	}
}

func TestVerifierReportsDiffAndTimings(t *testing.T) {
	net, err := topology.Line(2, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	rep, err := v.Load(net.Network)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timing.Total <= 0 {
		t.Error("no total timing")
	}
	rep, err = v.Apply(netcfg.SetOSPFCost{Device: "r00", Intf: "eth0", Cost: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diff.LineCount() != 1 {
		t.Errorf("diff lines = %d, want 1", rep.Diff.LineCount())
	}
	if v.Network().Devices["r00"].Intf("eth0").OSPFCost != 42 {
		t.Error("verifier snapshot not updated")
	}
}

func TestVerifierApplyErrorLeavesStateIntact(t *testing.T) {
	net, err := topology.Line(2, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	before := len(v.FIB())
	if _, err := v.Apply(netcfg.ShutdownInterface{Device: "ghost", Intf: "x"}); err == nil {
		t.Fatal("bad change applied")
	}
	if len(v.FIB()) != before {
		t.Error("failed Apply mutated state")
	}
	// A good change still works afterwards.
	if _, err := v.Apply(netcfg.SetOSPFCost{Device: "r00", Intf: "eth0", Cost: 9}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedApplyConsumesTraceContext: a rejected change must not lend
// its request id and sequence to the next verification, which in the
// daemon is a snapshot-install Load that never sets a context itself.
func TestFailedApplyConsumesTraceContext(t *testing.T) {
	net, err := topology.Line(2, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{TraceApplies: 4})
	if _, err := v.Load(net.Network.Clone()); err != nil {
		t.Fatal(err)
	}
	v.SetTraceContext("req-dead", 7)
	if _, err := v.Apply(netcfg.ShutdownInterface{Device: "ghost", Intf: "x", Shutdown: true}); err == nil {
		t.Fatal("bad change applied")
	}
	rep, err := v.Load(net.Network.Clone())
	if err != nil {
		t.Fatal(err)
	}
	tr := v.Recorder().Get(rep.TraceID)
	if tr == nil {
		t.Fatal("load recorded no trace")
	}
	if tr.ReqID != "" || tr.Seq != 0 {
		t.Errorf("load trace inherited context reqID=%q seq=%d, want empty and 0", tr.ReqID, tr.Seq)
	}
}

func TestVerifierOscillationDetection(t *testing.T) {
	// Static route pair causing a forwarding loop is fine (loops are a
	// data plane property), but a BGP dispute requires crafted policies
	// we cannot express; instead check the detector plumbs through: a
	// healthy network must not error with detection enabled.
	net, err := topology.FatTree(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{DetectOscillation: true})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	link := net.Topology.Links[0]
	if _, err := v.Apply(netcfg.ShutdownInterface{Device: link.DevA, Intf: link.IntfA, Shutdown: true}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifierLoopPolicyOnStaticLoop(t *testing.T) {
	// Two routers pointing default routes at each other: packets to an
	// unknown prefix loop; the LoopFree policy must catch it.
	net, err := topology.Line(2, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	r00to := net.Devices["r01"].Intf("eth0").Addr.Addr
	r01to := net.Devices["r00"].Intf("eth0").Addr.Addr
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	ext := netcfg.MustPrefix("203.0.113.0/24")
	extHdr := dataplane.Match{Dst: ext}
	if !v.AddPolicy(policy.LoopFree{PolicyName: "loopfree", Scope: extHdr}) {
		t.Fatal("loop-free should hold initially")
	}
	rep, err := v.Apply(
		netcfg.AddStaticRoute{Device: "r00", Route: netcfg.StaticRoute{Prefix: ext, NextHop: r00to}},
		netcfg.AddStaticRoute{Device: "r01", Route: netcfg.StaticRoute{Prefix: ext, NextHop: r01to}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations()) != 1 || rep.Violations()[0] != "loopfree" {
		t.Errorf("violations = %v", rep.Violations())
	}
	// And the witness machinery can explain it.
	ec := bdd.False
	for e := range v.Model().ECs() {
		if v.Model().MatchOverlaps(extHdr, e) {
			ec = e
		}
	}
	if o, ok := v.Checker().OutcomeOf(ec, "r00"); !ok || o.Kind != policy.Looped {
		t.Errorf("outcome = %+v ok=%v", o, ok)
	}
}

// TestApplyBeforeLoadReturnsErrNotLoaded: using a verifier before Load
// fails with the typed error (not a panic), so callers like the rcserved
// daemon can map it cleanly.
func TestApplyBeforeLoadReturnsErrNotLoaded(t *testing.T) {
	v := New(Options{})
	if _, err := v.Apply(netcfg.ShutdownInterface{Device: "r00", Intf: "eth0", Shutdown: true}); !errors.Is(err, ErrNotLoaded) {
		t.Fatalf("Apply before Load: err = %v, want ErrNotLoaded", err)
	}
}

// TestForkIsIndependent: changes applied to a fork never leak into the
// live verifier, and the fork re-evaluates policies on its own state.
func TestForkIsIndependent(t *testing.T) {
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	spec := "reach r00-r02 r00 r02 " + net.HostPrefix["r02"].String() + " all"
	ps, err := ParsePolicies(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if !v.AddPolicy(p) {
			t.Fatal("reachability should hold initially")
		}
	}
	fork, err := v.ForkSameAt(v.Network(), v.Options())
	if err != nil {
		t.Fatal(err)
	}
	if got := fork.Verdicts(); !got["r00-r02"] {
		t.Fatalf("fork verdicts = %v", got)
	}
	var link netcfg.Link
	for _, l := range net.Topology.Links {
		if (l.DevA == "r01" && l.DevB == "r02") || (l.DevA == "r02" && l.DevB == "r01") {
			link = l
		}
	}
	rep, err := fork.Apply(netcfg.ShutdownInterface{Device: link.DevA, Intf: link.IntfA, Shutdown: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations()) != 1 || rep.Violations()[0] != "r00-r02" {
		t.Errorf("fork violations = %v", rep.Violations())
	}
	if fork.Verdicts()["r00-r02"] {
		t.Error("fork verdict should have flipped to violated")
	}
	// The live verifier saw none of it.
	if !v.Verdicts()["r00-r02"] {
		t.Error("fork mutated the live verifier's verdicts")
	}
	if v.Network().Devices[link.DevA].Intf(link.IntfA).Shutdown {
		t.Error("fork mutated the live network")
	}
	crossCheck(t, v, v.Network())
}
