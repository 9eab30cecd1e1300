package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/topology"
	"realconfig/internal/trace"
)

// soakRounds is how many undone edit rounds TestStateBoundedByLiveNetwork
// runs: enough for the verifier's own collection rule to fire several
// times on FatTree(4,BGP).
const soakRounds = 400

// liveNodeSlack bounds a soaked verifier's live BDD nodes as a multiple
// of a fresh load's: after a collection the table holds the live
// network's predicates, whatever history built them.
const liveNodeSlack = 2

// tableSlack bounds a soaked model's port table and column count above a
// fresh load's. Both are append-only, but the soak's edits install no
// port and touch no device a fresh load lacks: its statics drop, and the
// drop port is the port table's first entry.
const tableSlack = 2

// soakRound returns round's four changes: bind an ACL denying a fresh
// TCP port, unbind it, add a drop static route for a fresh /28, remove
// it. Together they leave the network as they found it.
func soakRound(net *topology.Net, round int) []netcfg.Change {
	devs := net.NodeNames
	dev := devs[round%len(devs)]
	port := uint16(1000 + round)
	lines := []netcfg.ACLLine{
		{Seq: 10, Action: netcfg.Deny, Proto: netcfg.ProtoTCP, Dst: net.HostPrefix[devs[(round+1)%len(devs)]], DstPortLo: port, DstPortHi: port},
		{Seq: 20, Action: netcfg.Permit},
	}
	intf := net.Devices[dev].Interfaces[0].Name
	route := netcfg.StaticRoute{Prefix: netcfg.Prefix{Addr: netcfg.MustAddr("10.200.0.0") + netcfg.Addr(round<<4), Len: 28}, Drop: true}
	return []netcfg.Change{
		aclBind{dev: dev, intf: intf, name: "soak", lines: lines},
		aclUnbind{dev: dev, intf: intf, name: "soak"},
		netcfg.AddStaticRoute{Device: dev, Route: route},
		netcfg.RemoveStaticRoute{Device: dev, Route: route},
	}
}

// TestStateBoundedByLiveNetwork runs rounds that each bind and unbind an
// ACL denying a fresh TCP port and add and remove a drop static route
// for a fresh /28, so the network ends every round where it started.
// After a final collection the BDD table must be within liveNodeSlack
// of a fresh load's, and the model's port table and column count within
// tableSlack of a fresh load's. The destination index and the
// generator's symbol table are reported but not bounded: both stay
// append-only.
func TestStateBoundedByLiveNetwork(t *testing.T) {
	net, err := topology.FatTree(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	ps := backendPolicies(net)
	v := New(Options{})
	reg := obs.NewRegistry()
	v.Instrument(reg)
	if _, err := v.Load(net.Network.Clone()); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		v.AddPolicy(p)
	}
	symbols := reg.Gauge("realconfig_routing_symbols", "", nil)
	intervals0, syms0 := v.Model().NumIntervals(), symbols.Value()
	for round := 0; round < soakRounds; round++ {
		for _, ch := range soakRound(net, round) {
			if _, err := v.Apply(ch); err != nil {
				t.Fatalf("round %d (%s): %v", round, ch, err)
			}
		}
	}
	collections := reg.Counter("realconfig_bdd_collections_total", "", nil).Value()
	v.Model().Collect()
	live := v.Model().H.Size()

	fresh := New(Options{})
	freshReg := obs.NewRegistry()
	fresh.Instrument(freshReg)
	if _, err := fresh.Load(v.Network()); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		fresh.AddPolicy(p)
	}
	fresh.Model().Collect()
	base := fresh.Model().H.Size()
	t.Logf("after %d rounds: %d live BDD nodes, fresh load %d; %d collections on the way; ECs %d (fresh %d)",
		soakRounds, live, base, collections, v.NumECs(), fresh.NumECs())
	t.Logf("not bounded: index intervals %d -> %d (fresh %d), symbols %d -> %d (fresh %d)",
		intervals0, v.Model().NumIntervals(), fresh.Model().NumIntervals(),
		syms0, symbols.Value(), freshReg.Gauge("realconfig_routing_symbols", "", nil).Value())
	if collections < 3 {
		t.Errorf("the collection rule fired %d times in %d rounds, want at least 3", collections, soakRounds)
	}
	if live > liveNodeSlack*base {
		t.Errorf("%d live BDD nodes after %d undone rounds, more than %d x a fresh load's %d",
			live, soakRounds, liveNodeSlack, base)
	}
	for _, n := range []struct {
		what         string
		soaked, base int
	}{
		{"port table entries", v.Model().NumPorts(), fresh.Model().NumPorts()},
		{"row columns", v.Model().NumColumns(), fresh.Model().NumColumns()},
	} {
		t.Logf("%s %d (fresh %d)", n.what, n.soaked, n.base)
		if n.soaked > n.base+tableSlack {
			t.Errorf("%d %s after %d undone rounds, more than a fresh load's %d + %d",
				n.soaked, n.what, soakRounds, n.base, tableSlack)
		}
	}
}

// portDenyPool adds, per device, an ACL denying one TCP port towards
// another device's host prefix, bound inbound on its last interface.
// Unlike the dst-only ACLs of backendChangePool, which deny whole ECs,
// it cuts an EC in two, and unbinding it merges them back, so the
// checker retires ECs.
func portDenyPool(net *topology.Net) []changePair {
	var pool []changePair
	for i, dev := range net.NodeNames {
		intfs := net.Devices[dev].Interfaces
		if len(intfs) == 0 {
			continue
		}
		intf := intfs[len(intfs)-1].Name
		name := fmt.Sprintf("pfx-%d", i)
		port := uint16(8000 + i)
		lines := []netcfg.ACLLine{
			{Seq: 10, Action: netcfg.Deny, Proto: netcfg.ProtoTCP, Dst: net.HostPrefix[net.NodeNames[(i+1)%len(net.NodeNames)]], DstPortLo: port, DstPortHi: port},
			{Seq: 20, Action: netcfg.Permit},
		}
		pool = append(pool, changePair{
			do:   aclBind{dev: dev, intf: intf, name: name, lines: lines},
			undo: aclUnbind{dev: dev, intf: intf, name: name},
		})
	}
	return pool
}

// TestCollectedEqualsBootstrap is TestIncrementalEqualsBootstrap with the
// model's node table collected after every apply, so every step runs on
// a table whose freed slots come back as new predicates. Its pool adds
// portDenyPool to backendChangePool, so ECs split and merge and the
// retired ones must leave no trace. After each collection it checks the
// root invariant: every node the model and checker key state by is a
// live EC, and every other root the model keeps still denotes its
// definition.
func TestCollectedEqualsBootstrap(t *testing.T) {
	type topo struct {
		name  string
		build func() (*topology.Net, error)
	}
	topos := []topo{
		{"line4-ospf", func() (*topology.Net, error) { return topology.Line(4, topology.OSPF) }},
		{"ring5-ospf", func() (*topology.Net, error) { return topology.Ring(5, topology.OSPF) }},
		{"fattree4-bgp", func() (*topology.Net, error) { return topology.FatTree(4, topology.BGP) }},
	}
	for _, tp := range topos {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", tp.name, seed), func(t *testing.T) {
				net, err := tp.build()
				if err != nil {
					t.Fatal(err)
				}
				v := New(Options{})
				if _, err := v.Load(net.Network.Clone()); err != nil {
					t.Fatal(err)
				}
				o := newBootstrapOracle(t, v, backendPolicies(net))
				o.collect = true
				pool := append(backendChangePool(net), portDenyPool(net)...)
				rng := rand.New(rand.NewSource(seed))
				picks := make([]int, 40)
				for i := range picks {
					picks[i] = rng.Intn(len(pool))
				}
				walkPool(t, v, o, pool, picks)
			})
		}
	}
}

// TestCollectingApplyIsTraced runs soak rounds on a traced, instrumented
// verifier until an apply collects, then requires that apply's trace to
// hold one bdd_collect event that shrank the table, and the node gauge
// and collection counter to agree with the model.
func TestCollectingApplyIsTraced(t *testing.T) {
	net, err := topology.FatTree(4, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{TraceApplies: 4})
	reg := obs.NewRegistry()
	v.Instrument(reg)
	if _, err := v.Load(net.Network.Clone()); err != nil {
		t.Fatal(err)
	}
	collections := reg.Counter("realconfig_bdd_collections_total", "", nil)
	for round := 0; collections.Value() == 0; round++ {
		if round == soakRounds {
			t.Fatalf("no apply collected in %d rounds", round)
		}
		for _, ch := range soakRound(net, round) {
			rep, err := v.Apply(ch)
			if err != nil {
				t.Fatalf("round %d (%s): %v", round, ch, err)
			}
			if collections.Value() == 0 {
				continue
			}
			var found []trace.Event
			for _, ev := range v.Recorder().Get(rep.TraceID).Events {
				if ev.Kind == obs.EventBDDCollect {
					found = append(found, ev)
				}
			}
			if len(found) != 1 {
				t.Fatalf("collecting apply traced %d bdd_collect events, want 1", len(found))
			}
			before, _ := trace.Get(found[0].Attrs, "nodes_before")
			after, _ := trace.Get(found[0].Attrs, "nodes_after")
			if b, a := atoi(t, before), atoi(t, after); a >= b || a != v.Model().H.Size() {
				t.Fatalf("bdd_collect nodes %d -> %d, table holds %d", b, a, v.Model().H.Size())
			}
			spans := 0
			for _, s := range v.Recorder().Get(rep.TraceID).Spans {
				if s.Track == obs.TrackPipeline && s.Name == obs.StageCollect {
					spans++
				}
			}
			if rep.Timing.Collect <= 0 || spans != 1 {
				t.Fatalf("collecting apply: Timing.Collect = %v and %d collect spans, want > 0 and 1", rep.Timing.Collect, spans)
			}
			break
		}
	}
	if got, want := reg.Gauge("realconfig_bdd_nodes", "", nil).Value(), int64(v.Model().H.Size()); got != want {
		t.Errorf("realconfig_bdd_nodes = %d, table holds %d", got, want)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
