package routing

import (
	"fmt"
	"reflect"
	"testing"

	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/simulate"
	"realconfig/internal/topology"
)

// TestFilterDefsStayAtLiveSize edits one prefix list 100 times on a
// session that uses it. Every edit compiles to a new content-addressed
// definition; the table must drop the superseded one once the epoch that
// retracts it is done, not keep one snapshot per edit.
func TestFilterDefsStayAtLiveSize(t *testing.T) {
	net, err := topology.Line(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	var r02Addr netcfg.Addr
	for _, peer := range net.Topology.Neighbors("r01") {
		if peer[0] == "r02" {
			r02Addr = net.Devices["r02"].Intf(peer[1]).Addr.Addr
		}
	}
	edit := func(i int) {
		t.Helper()
		ch := netcfg.SetPrefixList{Device: "r01", Name: "churn", Entries: []netcfg.PrefixListEntry{
			{Seq: 10, Action: netcfg.Deny, Prefix: topology.HostPrefixOf(100 + i), Exact: true},
			{Seq: 20, Action: netcfg.Permit, Prefix: netcfg.Prefix{}},
		}}
		if err := ch.Apply(net.Network); err != nil {
			t.Fatal(err)
		}
	}
	edit(0)
	if err := (netcfg.BindNeighborFilter{Device: "r01", Neighbor: r02Addr, Name: "churn", In: true}).Apply(net.Network); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	gen := New(Options{})
	gen.Instrument(reg)
	loadAndStep(t, gen, net.Network)
	if len(gen.filterDefs) != 1 || len(gen.filterIDs) != 1 {
		t.Fatalf("one list in use, table has %d defs / %d ids", len(gen.filterDefs), len(gen.filterIDs))
	}
	symbols := len(gen.syms.names)
	for i := 1; i <= 100; i++ {
		edit(i)
		loadAndStep(t, gen, net.Network)
		if len(gen.filterDefs) != 1 || len(gen.filterIDs) != 1 {
			t.Fatalf("edit %d: table has %d defs / %d ids, want the 1 live list", i, len(gen.filterDefs), len(gen.filterIDs))
		}
	}
	checkAgainstSimulator(t, gen, net.Network)
	// Filter content never reaches the symbol table.
	if got := len(gen.syms.names); got != symbols {
		t.Errorf("symbol table grew from %d to %d over prefix-list edits", symbols, got)
	}
	if got := gaugeValue(t, reg, "realconfig_routing_filter_defs"); got != 1 {
		t.Errorf("realconfig_routing_filter_defs = %v, want 1", got)
	}
	if got := gaugeValue(t, reg, "realconfig_routing_symbols"); got != float64(symbols) {
		t.Errorf("realconfig_routing_symbols = %v, want %d", got, symbols)
	}

	// Unbinding the filter leaves nothing live.
	if err := (netcfg.BindNeighborFilter{Device: "r01", Neighbor: r02Addr, Name: "", In: true}).Apply(net.Network); err != nil {
		t.Fatal(err)
	}
	loadAndStep(t, gen, net.Network)
	if len(gen.filterDefs) != 0 || len(gen.filterIDs) != 0 {
		t.Errorf("no list in use, table has %d defs / %d ids", len(gen.filterDefs), len(gen.filterIDs))
	}
	checkAgainstSimulator(t, gen, net.Network)
}

// gaugeValue reads one unlabeled series from the registry's snapshot.
func gaugeValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	v, ok := reg.Snapshot()[name]
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return v
}

// TestSymbolTableBoundedAcrossFlaps flaps links of a BGP fat-tree for
// many rounds. AS paths are interned as candidates appear, so the first
// rounds add the paths of each failure state; after that every state has
// been seen and the table must stop growing.
func TestSymbolTableBoundedAcrossFlaps(t *testing.T) {
	net, err := topology.FatTree(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Options{})
	loadAndStep(t, gen, net.Network)
	links := net.Topology.Links[:6]
	round := func() {
		for _, l := range links {
			for _, down := range []bool{true, false} {
				ch := netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: down}
				if err := ch.Apply(net.Network); err != nil {
					t.Fatal(err)
				}
				loadAndStep(t, gen, net.Network)
			}
		}
	}
	round()
	after1 := len(gen.syms.names)
	for i := 0; i < 20; i++ {
		round()
	}
	if got := len(gen.syms.names); got != after1 {
		t.Errorf("symbol table grew from %d to %d over 20 repeated flap rounds", after1, got)
	}
	checkAgainstSimulator(t, gen, net.Network)
}

// tiedRing is a 4-ring in which r00 reaches r02's prefix through r01 and
// r03 with nothing but the next-hop name to choose between them: equal
// OSPF cost, or in BGP mode equal local preference, path length and
// advertising AS (r01 and r03 share one; they are not adjacent).
func tiedRing(t *testing.T, mode topology.Mode) *topology.Net {
	t.Helper()
	net, err := topology.Ring(4, mode)
	if err != nil {
		t.Fatal(err)
	}
	if mode == topology.BGP {
		shared := net.Devices["r01"].BGP.ASN
		old := net.Devices["r03"].BGP.ASN
		net.Devices["r03"].BGP.ASN = shared
		for _, dev := range []string{"r00", "r02"} {
			for _, nb := range net.Devices[dev].BGP.Neighbors {
				if nb.RemoteAS == old {
					nb.RemoteAS = shared
				}
			}
		}
	}
	return net
}

// TestTieBreaksIndependentOfInterningOrder reaches the same final network
// through two histories that intern device names in different orders: one
// generator loads the full network directly (devices interned in sorted
// order), the other first loads only the devices whose names sort last
// and then grows to the full network, so names that sort first get late,
// large symbol ids. Every tie (equal-cost OSPF next hops, BGP candidates
// equal up to the next hop) is broken on names, so both must equal each
// other and the from-scratch simulator rule for rule.
func TestTieBreaksIndependentOfInterningOrder(t *testing.T) {
	fatTree := func(t *testing.T, mode topology.Mode) *topology.Net {
		net, err := topology.FatTree(4, mode)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	topos := []struct {
		name  string
		build func(*testing.T, topology.Mode) *topology.Net
	}{{"fattree4", fatTree}, {"tiedring", tiedRing}}
	for _, topo := range topos {
		for _, mode := range []topology.Mode{topology.OSPF, topology.BGP} {
			t.Run(fmt.Sprintf("%s/%v/ecmp=false", topo.name, mode), func(t *testing.T) {
				full := topo.build(t, mode)
				direct := New(Options{})
				loadAndStep(t, direct, full.Network)

				grown := New(Options{})
				loadAndStep(t, grown, lastHalf(full.Network))
				loadAndStep(t, grown, full.Network)

				names := full.DeviceNames()
				first, last := names[0], names[len(names)-1]
				if d, g := direct.syms.ids[first], grown.syms.ids[first]; !(d < direct.syms.ids[last] && g > grown.syms.ids[last]) {
					t.Fatalf("histories did not intern %q/%q in opposite orders (direct %d, grown %d)", first, last, d, g)
				}

				if !reflect.DeepEqual(direct.FIB(), grown.FIB()) {
					t.Errorf("FIB depends on interning order")
				}
				if !reflect.DeepEqual(direct.OSPFBest(), grown.OSPFBest()) {
					t.Errorf("OSPFBest depends on interning order")
				}
				if !reflect.DeepEqual(direct.BGPBest(), grown.BGPBest()) {
					t.Errorf("BGPBest depends on interning order")
				}
				checkAgainstSimulator(t, grown, full.Network)
				want, err := simulate.Run(full.Network)
				if err != nil {
					t.Fatal(err)
				}
				if len(grown.FIB()) != len(want.Rules) {
					t.Errorf("FIB has %d rules, oracle %d", len(grown.FIB()), len(want.Rules))
				}
			})
		}
	}
}

// lastHalf returns the sub-network induced by the devices whose names
// sort in the upper half (links to absent devices are dropped).
func lastHalf(net *netcfg.Network) *netcfg.Network {
	sub := net.Clone()
	names := sub.DeviceNames()
	drop := make(map[string]bool)
	for _, name := range names[:len(names)/2] {
		drop[name] = true
		delete(sub.Devices, name)
	}
	for _, l := range append([]netcfg.Link(nil), sub.Topology.Links...) {
		if drop[l.DevA] || drop[l.DevB] {
			sub.Topology.Remove(l.DevA, l.IntfA, l.DevB, l.IntfB)
		}
	}
	return sub
}
