package core

import (
	"math/rand"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/topology"
)

// staticEdit loads FatTree(k,BGP) and returns the verifier with an
// add/remove pair of one drop static route on its first switch: the
// acl-static-edits workload's static half, one route at a time.
func staticEdit(tb testing.TB, k int) (*Verifier, [2]netcfg.Change) {
	tb.Helper()
	net, err := topology.FatTree(k, topology.BGP)
	if err != nil {
		tb.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		tb.Fatal(err)
	}
	dev := net.NodeNames[0]
	r := netcfg.StaticRoute{Prefix: netcfg.MustPrefix("10.250.0.0/24"), Drop: true}
	return v, [2]netcfg.Change{
		netcfg.AddStaticRoute{Device: dev, Route: r},
		netcfg.RemoveStaticRoute{Device: dev, Route: r},
	}
}

// applyPair applies the edit and then its undo, one Apply each.
func applyPair(tb testing.TB, v *Verifier, edit [2]netcfg.Change) {
	for _, ch := range edit {
		rep, err := v.Apply(ch)
		if err != nil {
			tb.Fatal(err)
		}
		if rep.RulesInserted+rep.RulesDeleted != 1 {
			tb.Fatalf("%v changed %d rules, want 1", ch, rep.RulesInserted+rep.RulesDeleted)
		}
	}
}

// blockStatics is staticBlock's route count: 16 /28s fill a host /24.
const blockStatics = 32

// staticBlock loads FatTree(k,BGP) and returns the verifier with an
// add/remove pair of 32 drop /28 statics on its first switch that fill
// the next two switches' host /24s: the acl-static-edits workload's
// static half as it applies them, one Apply per direction.
func staticBlock(tb testing.TB, k int) (*Verifier, [2][]netcfg.Change) {
	tb.Helper()
	net, err := topology.FatTree(k, topology.BGP)
	if err != nil {
		tb.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		tb.Fatal(err)
	}
	dev := net.NodeNames[0]
	var edit [2][]netcfg.Change
	for i := 0; i < blockStatics; i++ {
		host := net.HostPrefix[net.NodeNames[1+i/16]]
		r := netcfg.StaticRoute{Prefix: netcfg.Prefix{Addr: host.Addr + netcfg.Addr(i%16)<<4, Len: 28}, Drop: true}
		edit[0] = append(edit[0], netcfg.AddStaticRoute{Device: dev, Route: r})
		edit[1] = append(edit[1], netcfg.RemoveStaticRoute{Device: dev, Route: r})
	}
	return v, edit
}

// applyBlockPair applies the 32 adds and then the 32 removes.
func applyBlockPair(tb testing.TB, v *Verifier, edit [2][]netcfg.Change) {
	for _, chs := range edit {
		rep, err := v.Apply(chs...)
		if err != nil {
			tb.Fatal(err)
		}
		if rep.RulesInserted+rep.RulesDeleted != blockStatics {
			tb.Fatalf("%d statics changed %d rules, want %d", len(chs), rep.RulesInserted+rep.RulesDeleted, blockStatics)
		}
	}
}

// aclLines is the line count of aclEdit's ACL: 16 tcp dst-port denies
// and the final permit.
const aclLines = 17

// aclEdit loads FatTree(k,BGP) and returns the verifier with a bind/unbind
// pair of a 16-line deny ACL, outbound on its first switch's first
// interface, towards the next switch's host /24: the acl-static-edits
// workload's ACL half. Unlike staticEdit, which splits one EC, binding
// it splits the partition along a filter boundary and unbinding it
// merges the pieces back.
func aclEdit(tb testing.TB, k int) (*Verifier, [2][]netcfg.Change) {
	v, at := aclEditAt(tb, k)
	return v, at(1024)
}

// aclEditAt is aclEdit with the deny ports left open: at(base) is the
// pair whose 16 denies name the ports base, base+16, ..., base+240.
func aclEditAt(tb testing.TB, k int) (*Verifier, func(base uint16) [2][]netcfg.Change) {
	tb.Helper()
	net, err := topology.FatTree(k, topology.BGP)
	if err != nil {
		tb.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		tb.Fatal(err)
	}
	dev := net.NodeNames[0]
	intf := net.Devices[dev].Interfaces[0].Name
	dst := net.HostPrefix[net.NodeNames[1]]
	return v, func(base uint16) [2][]netcfg.Change {
		lines := make([]netcfg.ACLLine, 0, aclLines)
		for i := 0; i < aclLines-1; i++ {
			p := base + uint16(16*i)
			lines = append(lines, netcfg.ACLLine{Seq: 10 * (i + 1), Action: netcfg.Deny, Proto: netcfg.ProtoTCP, Dst: dst, DstPortLo: p, DstPortHi: p})
		}
		lines = append(lines, netcfg.ACLLine{Seq: 10 * aclLines, Action: netcfg.Permit})
		return [2][]netcfg.Change{
			{netcfg.SetACL{Device: dev, Name: "edit", Lines: lines}, netcfg.BindACL{Device: dev, Intf: intf, Name: "edit"}},
			{netcfg.BindACL{Device: dev, Intf: intf}, netcfg.SetACL{Device: dev, Name: "edit"}},
		}
	}
}

// aclEditVaried returns aclEdit's verifier and a function that applies
// one bind/unbind pair whose deny ports start at a base drawn from a
// seeded rng, as the acl-static-edits workload draws them: unlike
// aclEdit's fixed pair, whose repeats the BDD caches answer, every
// pair builds new predicates.
func aclEditVaried(tb testing.TB, k int) (*Verifier, func()) {
	v, at := aclEditAt(tb, k)
	rng := rand.New(rand.NewSource(1))
	return v, func() { applyACLPair(tb, v, at(uint16(1024+rng.Intn(30000)))) }
}

// applyACLPair applies the bind and then the unbind, one Apply each.
func applyACLPair(tb testing.TB, v *Verifier, edit [2][]netcfg.Change) {
	for _, chs := range edit {
		rep, err := v.Apply(chs...)
		if err != nil {
			tb.Fatal(err)
		}
		if rep.FilterChanges != aclLines {
			tb.Fatalf("%v changed %d filter lines, want %d", chs, rep.FilterChanges, aclLines)
		}
	}
}

func BenchmarkApplyStaticEdit(b *testing.B) {
	v, edit := staticEdit(b, 6)
	applyPair(b, v, edit) // warm both directions once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyPair(b, v, edit)
	}
}

func BenchmarkApplyStaticBlock(b *testing.B) {
	v, edit := staticBlock(b, 6)
	applyBlockPair(b, v, edit)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyBlockPair(b, v, edit)
	}
}

func BenchmarkApplyACLEdit(b *testing.B) {
	v, edit := aclEdit(b, 6)
	applyACLPair(b, v, edit)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyACLPair(b, v, edit)
	}
}

func BenchmarkApplyACLEditVaried(b *testing.B) {
	_, pair := aclEditVaried(b, 6)
	pair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair()
	}
}

// TestApplyAllocationCeilings pins the heap allocations of one
// add-static/remove-static Apply pair, one add/remove pair of 32 drop
// /28 statics and one ACL bind/unbind Apply pair, with fixed and with
// varied deny ports, on FatTree(6,BGP), 45 devices.
// Before copy-on-write applies, each Apply cloned every device, formatted
// and diffed every device on both sides, and cloned the network again.
// Before per-device compile units, each Apply compiled every device and
// set-differenced all eight relations and the filter set. Before the
// line diff was taken on demand, each Apply formatted every touched
// device on both sides and diffed the texts. Before the checker kept
// only a count per (src, dst) pair, each pair held a set of its
// deliverable ECs:
//
//	static add + remove: 19120 allocs before copy-on-write, 994 after
//	static add + remove:   994 allocs before compile units, 474 after
//	static add + remove:   468 allocs before dense EC ids, 459 after
//	static add + remove:   459 allocs before the on-demand diff, 106 after
//	ACL bind + unbind:    1087 allocs before dense EC ids, 1074 after
//	ACL bind + unbind:    1074 allocs before the on-demand diff, 339 after
//	ACL bind + unbind:     339 allocs before pair counts, 163 after
//	32 statics add + remove: 471 allocs before block moves, 301 after
//
// Each ceiling is the last "after" figure plus 20 %. Under the race
// detector sync.Pool is off; the eager diff's fmt printers made the race
// figures vary (629, 631, 639 and 1389, 1392, 1393, 1403). With the
// diff on demand, six race runs measured 106 for the static pair every
// time and 340 for the ACL pair every time; the race ceilings are those
// maxima plus 20 %. With pair counts, six race runs measured 106,
// 106, 106, 106, 106, 106 for the static pair and 164, 164, 164, 164,
// 164, 164 for the ACL pair. With block moves, four race runs measured
// 301 for the 32 statics every time, as without the race detector.
//
// The varied-port ACL pair binds and unbinds the same ACL with deny
// ports drawn from a seeded rng each time, so the BDD caches cannot
// answer it: 170 allocs before ACL predicates were built field by
// field, 169 after; its ceilings are 169 and, from four race runs that
// measured 171 every time, 171, each plus 20 %.
func TestApplyAllocationCeilings(t *testing.T) {
	pairCeiling, aclCeiling, blockCeiling, variedCeiling := 127.0, 195.0, 361.0, 203.0
	if raceEnabled {
		pairCeiling, aclCeiling, blockCeiling, variedCeiling = 127, 196, 361, 206
	}
	v, edit := staticEdit(t, 6)
	applyPair(t, v, edit)
	perPair := testing.AllocsPerRun(10, func() { applyPair(t, v, edit) })
	t.Logf("allocs: static add + remove Apply pair %.0f", perPair)
	if perPair > pairCeiling {
		t.Errorf("static add + remove Apply pair allocates %.0f objects, ceiling %.0f", perPair, pairCeiling)
	}

	bv, bedit := staticBlock(t, 6)
	applyBlockPair(t, bv, bedit)
	perBlock := testing.AllocsPerRun(10, func() { applyBlockPair(t, bv, bedit) })
	t.Logf("allocs: 32 statics add + remove Apply pair %.0f", perBlock)
	if perBlock > blockCeiling {
		t.Errorf("32 statics add + remove Apply pair allocates %.0f objects, ceiling %.0f", perBlock, blockCeiling)
	}

	av, aedit := aclEdit(t, 6)
	applyACLPair(t, av, aedit)
	perACL := testing.AllocsPerRun(10, func() { applyACLPair(t, av, aedit) })
	t.Logf("allocs: ACL bind + unbind Apply pair %.0f", perACL)
	if perACL > aclCeiling {
		t.Errorf("ACL bind + unbind Apply pair allocates %.0f objects, ceiling %.0f", perACL, aclCeiling)
	}

	_, varied := aclEditVaried(t, 6)
	varied()
	perVaried := testing.AllocsPerRun(10, varied)
	t.Logf("allocs: varied-port ACL bind + unbind Apply pair %.0f", perVaried)
	if perVaried > variedCeiling {
		t.Errorf("varied-port ACL bind + unbind Apply pair allocates %.0f objects, ceiling %.0f", perVaried, variedCeiling)
	}
}

// TestTraceAllocationCeiling pins the heap allocations of one
// Verifier.Trace across FatTree(6,BGP), from the first switch to the
// host /24 of the last: the path's names, hops and rules, 11 objects
// (also under the race detector). When each trace copied the whole FIB
// to scan it at every hop, the same trace made 18 (and ~330 KB); the
// ceiling is the measurement plus 20 %.
func TestTraceAllocationCeiling(t *testing.T) {
	const traceCeiling = 13
	net, err := topology.FatTree(6, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	src, dst := net.NodeNames[0], net.NodeNames[len(net.NodeNames)-1]
	pkt := bdd.Packet{Dst: net.HostPrefix[dst].Addr + 7, Proto: netcfg.ProtoTCP, DstPort: 80}
	if tr := v.Trace(src, pkt); tr.Outcome.Kind != policy.Delivered || len(tr.Hops) < 3 {
		t.Fatalf("trace from %s to %s is not a delivered multi-hop path:\n%s", src, dst, tr)
	}
	perTrace := testing.AllocsPerRun(20, func() { v.Trace(src, pkt) })
	t.Logf("allocs: one Trace %.0f", perTrace)
	if perTrace > traceCeiling {
		t.Errorf("one Trace allocates %.0f objects, ceiling %d", perTrace, traceCeiling)
	}
}
