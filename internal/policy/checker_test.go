package policy

import (
	"errors"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// lineModel builds a 3-device line a-b-c where c delivers 10.9.0.0/24
// and a, b forward toward it.
func lineModel(t *testing.T) (*apkeep.Model, *Checker) {
	t.Helper()
	m := apkeep.New()
	p := "10.9.0.0/24"
	rules := []dataplane.Rule{
		{Device: "a", Prefix: netcfg.MustPrefix(p), Action: dataplane.Forward, NextHop: "b", OutIntf: "eth0"},
		{Device: "b", Prefix: netcfg.MustPrefix(p), Action: dataplane.Forward, NextHop: "c", OutIntf: "eth1"},
		{Device: "c", Prefix: netcfg.MustPrefix(p), Action: dataplane.Deliver, OutIntf: "lo0"},
	}
	var batch []dd.Entry[dataplane.Rule]
	for _, r := range rules {
		batch = append(batch, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
	}
	if _, err := m.ApplyBatch(batch, apkeep.InsertFirst); err != nil {
		t.Fatal(err)
	}
	c := NewChecker(m)
	c.SetTopology([]string{"a", "b", "c"}, []dataplane.Adjacency{
		{Dev: "a", LocalIntf: "eth0", Peer: "b", PeerIntf: "eth0"},
		{Dev: "b", LocalIntf: "eth0", Peer: "a", PeerIntf: "eth0"},
		{Dev: "b", LocalIntf: "eth1", Peer: "c", PeerIntf: "eth0"},
		{Dev: "c", LocalIntf: "eth0", Peer: "b", PeerIntf: "eth1"},
	})
	return m, c
}

// ecFor finds the EC containing a packet.
func ecFor(t *testing.T, m *apkeep.Model, pkt bdd.Packet) bdd.Node {
	t.Helper()
	for ec := range m.ECs() {
		if m.H.Contains(ec, pkt) {
			return ec
		}
	}
	t.Fatalf("no EC contains %v", pkt)
	return bdd.False
}

var probe = bdd.Packet{Dst: netcfg.MustAddr("10.9.0.5")}

func TestWalkOutcomesAndPairs(t *testing.T) {
	m, c := lineModel(t)
	res := c.Update(nil, nil) // initial full computation (all ECs new)
	if res.AffectedECs != m.NumECs() {
		t.Errorf("affected = %d, want all %d", res.AffectedECs, m.NumECs())
	}
	ec := ecFor(t, m, probe)
	for _, src := range []string{"a", "b", "c"} {
		o, ok := c.OutcomeOf(ec, src)
		if !ok || o.Kind != Delivered || o.At != "c" {
			t.Errorf("outcome(%s) = %+v ok=%v", src, o, ok)
		}
	}
	if _, ok := c.PairECs("a", "c")[ec]; !ok {
		t.Error("pair (a,c) missing EC")
	}
	if c.NumPairs() != 3 { // (a,c) (b,c) (c,c)
		t.Errorf("pairs = %d, want 3", c.NumPairs())
	}
	// The drop EC is dropped everywhere.
	dropEC := ecFor(t, m, bdd.Packet{Dst: netcfg.MustAddr("99.0.0.1")})
	if o, _ := c.OutcomeOf(dropEC, "a"); o.Kind != Dropped || o.At != "a" {
		t.Errorf("drop outcome = %+v", o)
	}
}

func TestIncrementalRuleChangeUpdatesOnlyAffected(t *testing.T) {
	m, c := lineModel(t)
	c.Update(nil, nil)

	// Break b's rule: modify to drop.
	old := dataplane.Rule{Device: "b", Prefix: netcfg.MustPrefix("10.9.0.0/24"), Action: dataplane.Forward, NextHop: "c", OutIntf: "eth1"}
	batch := []dd.Entry[dataplane.Rule]{
		{Val: old, Diff: -1},
		{Val: dataplane.Rule{Device: "b", Prefix: netcfg.MustPrefix("10.9.0.0/24"), Action: dataplane.Drop}, Diff: 1},
	}
	br, err := m.ApplyBatch(batch, apkeep.InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Update(br.Transfers, br.FilterTransfers)
	if res.AffectedECs != 1 {
		t.Errorf("affected ECs = %d, want 1", res.AffectedECs)
	}
	ec := ecFor(t, m, probe)
	if o, _ := c.OutcomeOf(ec, "a"); o.Kind != Dropped || o.At != "b" {
		t.Errorf("outcome(a) = %+v", o)
	}
	if o, _ := c.OutcomeOf(ec, "c"); o.Kind != Delivered {
		t.Errorf("outcome(c) = %+v", o)
	}
	// Pairs (a,c) and (b,c) lost the EC.
	if len(res.AffectedPairs) != 2 {
		t.Errorf("affected pairs = %v", res.AffectedPairs)
	}
	if set := c.PairECs("a", "c"); len(set) != 0 {
		t.Errorf("pair (a,c) still has ECs: %v", set)
	}
}

func TestLoopDetection(t *testing.T) {
	m := apkeep.New()
	p := netcfg.MustPrefix("10.9.0.0/24")
	batch := []dd.Entry[dataplane.Rule]{
		{Val: dataplane.Rule{Device: "a", Prefix: p, Action: dataplane.Forward, NextHop: "b", OutIntf: "eth0"}, Diff: 1},
		{Val: dataplane.Rule{Device: "b", Prefix: p, Action: dataplane.Forward, NextHop: "a", OutIntf: "eth0"}, Diff: 1},
		{Val: dataplane.Rule{Device: "x", Prefix: p, Action: dataplane.Forward, NextHop: "a", OutIntf: "eth0"}, Diff: 1},
	}
	if _, err := m.ApplyBatch(batch, apkeep.InsertFirst); err != nil {
		t.Fatal(err)
	}
	c := NewChecker(m)
	c.SetTopology([]string{"a", "b", "x"}, nil)
	c.Update(nil, nil)
	ec := ecFor(t, m, probe)
	for _, src := range []string{"a", "b", "x"} {
		if o, _ := c.OutcomeOf(ec, src); o.Kind != Looped {
			t.Errorf("outcome(%s) = %+v, want loop", src, o)
		}
	}
	// LoopFree over this space must be violated; over disjoint space it
	// must hold.
	scope := dataplane.Match{Dst: p}
	if (LoopFree{PolicyName: "lf", Scope: scope}).Eval(c) {
		t.Error("LoopFree satisfied despite loop")
	}
	other := dataplane.Match{Dst: netcfg.MustPrefix("172.16.0.0/16")}
	if !(LoopFree{PolicyName: "lf2", Scope: other}).Eval(c) {
		t.Error("LoopFree violated outside loop space")
	}
}

func TestFilterOutcomes(t *testing.T) {
	m, c := lineModel(t)
	// Deny SSH into c.
	fr := []dd.Entry[dataplane.FilterRule]{
		{Val: dataplane.FilterRule{Device: "c", Intf: "eth0", Dir: dataplane.In, Seq: 10, Action: netcfg.Deny,
			Match: dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22}}, Diff: 1},
		{Val: dataplane.FilterRule{Device: "c", Intf: "eth0", Dir: dataplane.In, Seq: 20, Action: netcfg.Permit,
			Match: dataplane.MatchAll}, Diff: 1},
	}
	m.UpdateFilters(fr)
	c.Update(nil, m.TakeFilterTransfers())

	ssh := bdd.Packet{Dst: netcfg.MustAddr("10.9.0.5"), Proto: netcfg.ProtoTCP, DstPort: 22}
	web := bdd.Packet{Dst: netcfg.MustAddr("10.9.0.5"), Proto: netcfg.ProtoTCP, DstPort: 80}
	sshEC, webEC := ecFor(t, m, ssh), ecFor(t, m, web)
	if o, _ := c.OutcomeOf(sshEC, "a"); o.Kind != Filtered || o.At != "c" {
		t.Errorf("ssh outcome = %+v", o)
	}
	if o, _ := c.OutcomeOf(webEC, "a"); o.Kind != Delivered || o.At != "c" {
		t.Errorf("web outcome = %+v", o)
	}
	// c itself still delivers its own SSH (filter is on the b->c hop).
	if o, _ := c.OutcomeOf(sshEC, "c"); o.Kind != Delivered {
		t.Errorf("local ssh outcome = %+v", o)
	}
}

func TestPoliciesIncrementalRecheck(t *testing.T) {
	m, c := lineModel(t)
	c.Update(nil, nil)
	hdr := dataplane.Match{Dst: netcfg.MustPrefix("10.9.0.0/24")}
	if !c.AddPolicy(Reachability{PolicyName: "a->c", Src: "a", Dst: "c", Hdr: hdr, Mode: ReachAll}) {
		t.Fatal("reachability should initially hold")
	}
	if !c.AddPolicy(Waypoint{PolicyName: "via-b", Src: "a", Dst: "c", Via: "b", Hdr: hdr}) {
		t.Fatal("waypoint should initially hold")
	}
	udpHdr := hdr
	udpHdr.Proto = netcfg.ProtoUDP
	c.AddPolicy(Reachability{PolicyName: "isolated", Src: "a", Dst: "c",
		Hdr: udpHdr, Mode: ReachNone})

	// An unrelated change must not recheck these policies.
	other := dataplane.Rule{Device: "a", Prefix: netcfg.MustPrefix("203.0.113.0/24"), Action: dataplane.Drop}
	br, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: other, Diff: 1}}, apkeep.InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Update(br.Transfers, br.FilterTransfers)
	if res.PoliciesChecked != 0 {
		t.Errorf("unrelated change rechecked %d policies", res.PoliciesChecked)
	}

	// Breaking the path must flip reachability (violation event).
	old := dataplane.Rule{Device: "b", Prefix: netcfg.MustPrefix("10.9.0.0/24"), Action: dataplane.Forward, NextHop: "c", OutIntf: "eth1"}
	br, err = m.ApplyBatch([]dd.Entry[dataplane.Rule]{
		{Val: old, Diff: -1},
		{Val: dataplane.Rule{Device: "b", Prefix: netcfg.MustPrefix("10.9.0.0/24"), Action: dataplane.Drop}, Diff: 1},
	}, apkeep.InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	res = c.Update(br.Transfers, br.FilterTransfers)
	if res.PoliciesChecked == 0 {
		t.Fatal("related change rechecked no policies")
	}
	foundViolation := false
	for _, e := range res.Events {
		if e.Policy == "a->c" && !e.Satisfied {
			foundViolation = true
		}
	}
	if !foundViolation {
		t.Errorf("no violation event for a->c: %v", res.Events)
	}
	if s, _ := c.Verdict("a->c"); s {
		t.Error("verdict for a->c still satisfied")
	}

	// Repairing the path must emit a satisfaction event (the paper:
	// "policies that become satisfied ... helps operators test whether a
	// repair plan works").
	br, err = m.ApplyBatch([]dd.Entry[dataplane.Rule]{
		{Val: dataplane.Rule{Device: "b", Prefix: netcfg.MustPrefix("10.9.0.0/24"), Action: dataplane.Drop}, Diff: -1},
		{Val: old, Diff: 1},
	}, apkeep.InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	res = c.Update(br.Transfers, br.FilterTransfers)
	repaired := false
	for _, e := range res.Events {
		if e.Policy == "a->c" && e.Satisfied {
			repaired = true
		}
	}
	if !repaired {
		t.Errorf("no repair event: %v", res.Events)
	}
}

func TestWaypointViolation(t *testing.T) {
	m, c := lineModel(t)
	// Direct a->c rule bypassing b.
	old := dataplane.Rule{Device: "a", Prefix: netcfg.MustPrefix("10.9.0.0/24"), Action: dataplane.Forward, NextHop: "b", OutIntf: "eth0"}
	bypass := dataplane.Rule{Device: "a", Prefix: netcfg.MustPrefix("10.9.0.0/24"), Action: dataplane.Forward, NextHop: "c", OutIntf: "eth9"}
	br, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: old, Diff: -1}, {Val: bypass, Diff: 1}}, apkeep.InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	c.Update(br.Transfers, br.FilterTransfers)
	hdr := dataplane.Match{Dst: netcfg.MustPrefix("10.9.0.0/24")}
	if (Waypoint{PolicyName: "via-b", Src: "a", Dst: "c", Via: "b", Hdr: hdr}).Eval(c) {
		t.Error("waypoint satisfied despite bypass")
	}
}

func TestBlackholeFreeAndExplain(t *testing.T) {
	m, c := lineModel(t)
	c.Update(nil, nil)
	hdr := dataplane.Match{Dst: netcfg.MustPrefix("10.9.0.0/24")}
	if !(BlackholeFree{PolicyName: "bh", Scope: hdr}).Eval(c) {
		t.Error("blackhole-free violated on healthy network")
	}
	if got := c.Explain("a", "c", hdr); got != "all packets delivered" {
		t.Errorf("Explain = %q", got)
	}
	// Remove c's deliver rule: traffic is dropped there.
	del := dataplane.Rule{Device: "c", Prefix: netcfg.MustPrefix("10.9.0.0/24"), Action: dataplane.Deliver, OutIntf: "lo0"}
	br, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: del, Diff: -1}}, apkeep.InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	c.Update(br.Transfers, br.FilterTransfers)
	if (BlackholeFree{PolicyName: "bh", Scope: hdr}).Eval(c) {
		t.Error("blackhole-free satisfied after route removal")
	}
	if got := c.Explain("a", "c", hdr); got == "all packets delivered" {
		t.Error("Explain found no problem after route removal")
	}
}

func TestRemovePolicy(t *testing.T) {
	_, c := lineModel(t)
	c.Update(nil, nil)
	c.AddPolicy(LoopFree{PolicyName: "lf", Scope: dataplane.MatchAll})
	if _, known := c.Verdict("lf"); !known {
		t.Fatal("policy not registered")
	}
	c.RemovePolicy("lf")
	if _, known := c.Verdict("lf"); known {
		t.Fatal("policy not removed")
	}
	if len(c.Verdicts()) != 0 {
		t.Errorf("verdicts = %v", c.Verdicts())
	}
}

// TestSplitAndMergeBackKeepsEC installs a more specific route with the
// port the covering route already gives: the batch splits the /24's EC
// and merges the halves back into its packet set. The union revives the
// EC's id, so the checker keeps its result and nothing is affected, as
// when an EC was identified by its BDD node.
func TestSplitAndMergeBackKeepsEC(t *testing.T) {
	m, c := lineModel(t)
	m.AutoMerge = true
	c.Update(nil, nil)
	ec, ok := m.ECOf(probe)
	if !ok {
		t.Fatal("no EC contains the probe")
	}
	walked := c.result(ec)
	same := dataplane.Rule{Device: "b", Prefix: netcfg.MustPrefix("10.9.0.0/25"), Action: dataplane.Forward, NextHop: "c", OutIntf: "eth1"}
	br, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: same, Diff: 1}}, apkeep.InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Merges) != 1 || br.Merges[0].Result != ec {
		t.Fatalf("merges %+v, want the halves merged back into EC %d", br.Merges, ec)
	}
	res := c.Update(br.Transfers, br.FilterTransfers, br.Merges...)
	if res.AffectedECs != 0 || len(res.AffectedPairs) != 0 {
		t.Errorf("split and merge back walked %d ECs and affected pairs %v, want none", res.AffectedECs, res.AffectedPairs)
	}
	if c.result(ec) != walked {
		t.Error("the EC's cached result was replaced")
	}
	if err := errors.Join(m.CheckRoots(), c.CheckRoots()); err != nil {
		t.Fatal(err)
	}
}

// PairECs returns the predicates of the ECs deliverable from src to dst
// (nil when there are none), read off the walk results.
func (c *Checker) PairECs(src, dst string) map[bdd.Node]struct{} {
	var out map[bdd.Node]struct{}
	s := c.model.DevOf(src)
	for id, r := range c.ecs {
		if r == nil {
			continue
		}
		if o := r.outcome(s); o.Kind == Delivered && o.At == dst {
			if out == nil {
				out = make(map[bdd.Node]struct{})
			}
			out[c.model.Node(apkeep.ECID(id))] = struct{}{}
		}
	}
	return out
}

// OutcomeOf returns the cached fate of the EC whose predicate is ec,
// injected at src.
func (c *Checker) OutcomeOf(ec bdd.Node, src string) (Outcome, bool) {
	pkt, ok := c.model.H.Witness(ec)
	if !ok {
		return Outcome{}, false
	}
	id, ok := c.model.ECOf(pkt)
	if !ok || c.model.Node(id) != ec {
		return Outcome{}, false
	}
	return c.Outcome(id, src)
}
