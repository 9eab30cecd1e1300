package routing

import (
	"testing"

	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/simulate"
	"realconfig/internal/topology"
)

// checkAgainstSimulator asserts that the generator's accumulated state
// (FIB, OSPF bests, BGP bests) matches a from-scratch simulation of the
// same network: the differential-testing oracle.
func checkAgainstSimulator(t *testing.T, gen *Generator, net *netcfg.Network) {
	t.Helper()
	want, err := simulate.Run(net)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	// FIB.
	got := gen.FIB()
	for rule, d := range got {
		if d <= 0 {
			continue
		}
		if d != 1 {
			t.Errorf("FIB rule %v has multiplicity %d", rule, d)
		}
		if !want.Rules[rule] {
			t.Errorf("generator has extra rule %v", rule)
		}
	}
	for rule := range want.Rules {
		if got[rule] <= 0 {
			t.Errorf("generator missing rule %v", rule)
		}
	}
	// OSPF bests.
	ospfCount := 0
	for kv, d := range gen.OSPFBest() {
		if d <= 0 {
			continue
		}
		ospfCount++
		if w, ok := want.OSPF[kv.K]; !ok || w != kv.V {
			t.Errorf("ospf[%v] = %+v, oracle %+v (present=%v)", kv.K, kv.V, w, ok)
		}
	}
	if ospfCount != len(want.OSPF) {
		t.Errorf("generator has %d OSPF routes, oracle %d", ospfCount, len(want.OSPF))
	}
	// BGP bests.
	bgpCount := 0
	for kv, d := range gen.BGPBest() {
		if d <= 0 {
			continue
		}
		bgpCount++
		if w, ok := want.BGP[kv.K]; !ok || w != kv.V {
			t.Errorf("bgp[%v] = %+v, oracle %+v (present=%v)", kv.K, kv.V, w, ok)
		}
	}
	if bgpCount != len(want.BGP) {
		t.Errorf("generator has %d BGP routes, oracle %d", bgpCount, len(want.BGP))
	}
}

// loadAndStep loads net and runs an epoch, then checks the maintained
// live-rule count against a scan of the FIB.
func loadAndStep(t *testing.T, gen *Generator, net *netcfg.Network) {
	t.Helper()
	gen.SetNetwork(net)
	if _, err := gen.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	live := 0
	for _, d := range gen.FIB() {
		if d > 0 {
			live++
		}
	}
	if got := gen.NumFIBRules(); got != live {
		t.Fatalf("NumFIBRules = %d, FIB scan counts %d", got, live)
	}
}

func TestGeneratorMatchesOracleOSPFLine(t *testing.T) {
	net, err := topology.Line(4, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Options{})
	loadAndStep(t, gen, net.Network)
	checkAgainstSimulator(t, gen, net.Network)
}

func TestGeneratorMatchesOracleBGPLine(t *testing.T) {
	net, err := topology.Line(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Options{})
	loadAndStep(t, gen, net.Network)
	checkAgainstSimulator(t, gen, net.Network)
}

func TestGeneratorMatchesOracleFatTreeOSPF(t *testing.T) {
	net, err := topology.FatTree(4, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Options{})
	loadAndStep(t, gen, net.Network)
	checkAgainstSimulator(t, gen, net.Network)
}

func TestGeneratorMatchesOracleFatTreeBGP(t *testing.T) {
	net, err := topology.FatTree(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Options{})
	loadAndStep(t, gen, net.Network)
	checkAgainstSimulator(t, gen, net.Network)
}

// TestGeneratorIncrementalChangesMatchOracle applies the paper's three
// change types (LinkFailure, LC, LP) plus reverts, re-checking against
// the from-scratch oracle after every incremental epoch.
func TestGeneratorIncrementalChangesMatchOracle(t *testing.T) {
	for _, mode := range []topology.Mode{topology.OSPF, topology.BGP} {
		net, err := topology.FatTree(4, mode)
		if err != nil {
			t.Fatal(err)
		}
		gen := New(Options{})
		loadAndStep(t, gen, net.Network)
		checkAgainstSimulator(t, gen, net.Network)

		link := net.Topology.Links[len(net.Topology.Links)/2]
		var changes []netcfg.Change
		switch mode {
		case topology.OSPF:
			changes = []netcfg.Change{
				ShutdownOf(link, true),
				ShutdownOf(link, false),
				netcfg.SetOSPFCost{Device: link.DevA, Intf: link.IntfA, Cost: 100},
				netcfg.SetOSPFCost{Device: link.DevA, Intf: link.IntfA, Cost: 0},
			}
		case topology.BGP:
			peerAddr := net.Devices[link.DevB].Intf(link.IntfB).Addr.Addr
			changes = []netcfg.Change{
				ShutdownOf(link, true),
				ShutdownOf(link, false),
				netcfg.SetLocalPref{Device: link.DevA, Neighbor: peerAddr, LocalPref: 150},
				netcfg.SetLocalPref{Device: link.DevA, Neighbor: peerAddr, LocalPref: 0},
			}
		}
		for _, ch := range changes {
			if err := ch.Apply(net.Network); err != nil {
				t.Fatalf("%v: %v", ch, err)
			}
			loadAndStep(t, gen, net.Network)
			checkAgainstSimulator(t, gen, net.Network)
		}
	}
}

// ShutdownOf builds the LinkFailure change for a link's A side.
func ShutdownOf(l netcfg.Link, down bool) netcfg.Change {
	return netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: down}
}

func TestGeneratorIncrementalWorkIsSmall(t *testing.T) {
	net, err := topology.FatTree(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Options{})
	gen.SetNetwork(net.Network)
	full, err := gen.Step()
	if err != nil {
		t.Fatal(err)
	}
	link := net.Topology.Links[0]
	if err := (netcfg.ShutdownInterface{Device: link.DevA, Intf: link.IntfA, Shutdown: true}).Apply(net.Network); err != nil {
		t.Fatal(err)
	}
	gen.SetNetwork(net.Network)
	inc, err := gen.Step()
	if err != nil {
		t.Fatal(err)
	}
	if inc.Entries*4 > full.Entries {
		t.Errorf("incremental epoch processed %d entries vs %d full; want < 25%%", inc.Entries, full.Entries)
	}
}

func TestGeneratorNoOpReloadIsFree(t *testing.T) {
	net, err := topology.FatTree(4, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Options{})
	loadAndStep(t, gen, net.Network)
	gen.SetNetwork(net.Network) // identical network
	st, err := gen.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 0 {
		t.Errorf("no-op reload processed %d entries", st.Entries)
	}
	if len(gen.FIBChanges()) != 0 {
		t.Errorf("no-op reload changed FIB: %v", gen.FIBChanges())
	}
}

func TestGeneratorFIBChangesAreMinimal(t *testing.T) {
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Options{})
	loadAndStep(t, gen, net.Network)

	before, err := simulate.Run(net.Network)
	if err != nil {
		t.Fatal(err)
	}
	// Change the cost on the middle link.
	link := net.Topology.Links[0]
	if err := (netcfg.SetOSPFCost{Device: link.DevA, Intf: link.IntfA, Cost: 7}).Apply(net.Network); err != nil {
		t.Fatal(err)
	}
	loadAndStep(t, gen, net.Network)
	after, err := simulate.Run(net.Network)
	if err != nil {
		t.Fatal(err)
	}
	// The reported FIB changes must be exactly the set difference of the
	// two oracle FIBs.
	wantChanges := make(map[dataplane.Rule]int64)
	for r := range after.Rules {
		if !before.Rules[r] {
			wantChanges[r] = 1
		}
	}
	for r := range before.Rules {
		if !after.Rules[r] {
			wantChanges[r] = -1
		}
	}
	got := make(map[dataplane.Rule]int64)
	for _, e := range gen.FIBChanges() {
		got[e.Val] = e.Diff
	}
	if len(got) != len(wantChanges) {
		t.Errorf("FIB changes: got %v, want %v", got, wantChanges)
	}
	for r, d := range wantChanges {
		if got[r] != d {
			t.Errorf("change for %v = %d, want %d", r, got[r], d)
		}
	}
}

func TestGeneratorFilterExtraction(t *testing.T) {
	net, err := topology.Line(2, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Options{})
	gen.SetNetwork(net.Network)
	if len(gen.FilterChanges()) != 0 {
		t.Errorf("unexpected filter changes: %v", gen.FilterChanges())
	}
	// Add an ACL and bind it.
	lines := []netcfg.ACLLine{
		{Seq: 10, Action: netcfg.Deny, Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22},
		{Seq: 20, Action: netcfg.Permit},
	}
	if err := (netcfg.SetACL{Device: "r00", Name: "f", Lines: lines}).Apply(net.Network); err != nil {
		t.Fatal(err)
	}
	if err := (netcfg.BindACL{Device: "r00", Intf: "eth0", Name: "f", In: true}).Apply(net.Network); err != nil {
		t.Fatal(err)
	}
	gen.SetNetwork(net.Network)
	ch := gen.FilterChanges()
	if len(ch) != 2 {
		t.Fatalf("filter changes = %v", ch)
	}
	for _, e := range ch {
		if e.Diff != 1 {
			t.Errorf("expected insertions only, got %v", ch)
		}
	}
	if len(gen.Filters()) != 2 {
		t.Errorf("filters = %v", gen.Filters())
	}
	// Remove the binding: two deletions.
	if err := (netcfg.BindACL{Device: "r00", Intf: "eth0", Name: "", In: true}).Apply(net.Network); err != nil {
		t.Fatal(err)
	}
	gen.SetNetwork(net.Network)
	ch = gen.FilterChanges()
	if len(ch) != 2 || ch[0].Diff != -1 || ch[1].Diff != -1 {
		t.Errorf("filter changes = %v", ch)
	}
}

func TestGeneratorMutualRedistribution(t *testing.T) {
	// OSPF island a-b, BGP island b-c, with b redistributing OSPF into
	// BGP: c must learn a's prefix. (Same network as the simulator's
	// TestRedistributeOSPFIntoBGP, so the oracle check applies.)
	net := netcfg.NewNetwork()
	a := netcfg.MustParse("hostname a\ninterface lo0\n ip address 10.0.0.1/24\ninterface eth0\n ip address 172.16.0.1/30\nrouter ospf 1\n network 0.0.0.0/0\n")
	b := netcfg.MustParse("hostname b\ninterface eth0\n ip address 172.16.0.2/30\ninterface eth1\n ip address 172.16.0.5/30\nrouter ospf 1\n network 172.16.0.0/30\nrouter bgp 65001\n neighbor 172.16.0.6 remote-as 65002\n redistribute ospf metric 0\n")
	c := netcfg.MustParse("hostname c\ninterface eth0\n ip address 172.16.0.6/30\nrouter bgp 65002\n neighbor 172.16.0.5 remote-as 65001\n")
	net.Devices["a"], net.Devices["b"], net.Devices["c"] = a, b, c
	net.Topology.Add("a", "eth0", "b", "eth0")
	net.Topology.Add("b", "eth1", "c", "eth0")

	gen := New(Options{})
	loadAndStep(t, gen, net)
	checkAgainstSimulator(t, gen, net)

	// Shut the OSPF side down: the redistributed route must retract all
	// the way through BGP.
	if err := (netcfg.ShutdownInterface{Device: "a", Intf: "eth0", Shutdown: true}).Apply(net); err != nil {
		t.Fatal(err)
	}
	loadAndStep(t, gen, net)
	checkAgainstSimulator(t, gen, net)
	for rule, d := range gen.FIB() {
		if d > 0 && rule.Device == "c" && rule.Prefix == netcfg.MustPrefix("10.0.0.0/24") {
			t.Errorf("stale redistributed rule: %v", rule)
		}
	}
}

func TestGeneratorStaticRoutes(t *testing.T) {
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	var nh netcfg.Addr
	for _, peer := range net.Topology.Neighbors("r00") {
		if peer[0] == "r01" {
			nh = net.Devices["r01"].Intf(peer[1]).Addr.Addr
		}
	}
	net.Devices["r00"].StaticRoutes = []netcfg.StaticRoute{
		{Prefix: netcfg.MustPrefix("0.0.0.0/0"), NextHop: nh},
		{Prefix: netcfg.MustPrefix("203.0.113.0/24"), Drop: true},
	}
	gen := New(Options{})
	loadAndStep(t, gen, net.Network)
	checkAgainstSimulator(t, gen, net.Network)
}
