package routing

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/topology"
)

// TestDeltaCompileEqualsFull is the oracle of the per-device compile
// units. Seeded walks apply every netcfg.Change kind, plus snapshot
// swaps that add and remove a device, copy-on-write as core.Verifier
// does, and feed each step to one generator through SetNetworkDelta.
// After every step that generator must equal a fresh generator's full
// compile of the same network: each relation's tuple multiset, the
// filter set, the live prefix-list table and the FIB, which must also
// match simulate.Run. Its filter changes must be the set difference of
// its filter sets, and a step that reports no topology change must
// leave the device set and every device's adjacencies as they were.
func TestDeltaCompileEqualsFull(t *testing.T) {
	steps := 40
	if testing.Short() {
		steps = 12
	}
	cases := []struct {
		name  string
		build func() (*topology.Net, error)
	}{
		{"fattree4-bgp", func() (*topology.Net, error) { return topology.FatTree(4, topology.BGP) }},
		{"fattree4-ospf", func() (*topology.Net, error) { return topology.FatTree(4, topology.OSPF) }},
		{"random14-bgp", func() (*topology.Net, error) { return topology.Random(14, 3.0, 7, topology.BGP) }},
		{"random14-ospf", func() (*topology.Net, error) { return topology.Random(14, 3.0, 8, topology.OSPF) }},
	}
	covered := make(map[string]bool)
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tn, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			w := &deltaWalk{rng: rand.New(rand.NewSource(int64(31 + i))), mode: tn.Mode}
			cur := tn.Network
			gen := New(Options{})
			gen.SetNetworkDelta(cur, cur.DeviceNames())
			if _, err := gen.Step(); err != nil {
				t.Fatal(err)
			}
			checkDeltaEqualsFull(t, "load", gen, cur)
			for s := 0; s < steps; s++ {
				kind, next, err := w.step(cur)
				if err != nil {
					continue // the drawn change does not apply here
				}
				covered[kind] = true
				label := fmt.Sprintf("step %d (%s)", s, kind)
				before := filterSet(gen)
				st := gen.SetNetworkDelta(next, changedBetween(cur, next))
				if _, err := gen.Step(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkDeltaEqualsFull(t, label, gen, next)
				checkFilterChanges(t, label, before, gen)
				if !st.TopologyChanged {
					if !slices.Equal(cur.DeviceNames(), next.DeviceNames()) ||
						!reflect.DeepEqual(adjacenciesByDevice(cur), adjacenciesByDevice(next)) {
						t.Errorf("%s: topology moved but TopologyChanged is false", label)
					}
				}
				cur = next
			}
		})
	}
	if testing.Short() {
		return
	}
	for _, kind := range deltaKinds {
		if !covered[kind] {
			t.Errorf("no walk applied a %s", kind)
		}
	}
}

// deltaKinds are the steps a deltaWalk draws from: every netcfg.Change
// kind, plus adding and removing a whole device.
var deltaKinds = []string{
	"ShutdownInterface", "SetOSPFCost", "SetLocalPref", "AddStaticRoute", "RemoveStaticRoute",
	"SetACL", "BindACL", "SetPrefixList", "BindNeighborFilter", "SetAggregate",
	"AddLink", "RemoveLink", "add-device", "remove-device",
}

// deltaWalk draws random steps over a network. It never writes a
// network it was given: each step returns a new one that shares every
// device configuration, and the topology, that the step leaves alone.
type deltaWalk struct {
	rng     *rand.Rand
	mode    topology.Mode
	removed []netcfg.Link // links a RemoveLink took out, for AddLink
	added   []string      // devices add-device created and not yet removed
	nextDev int
}

func (w *deltaWalk) step(cur *netcfg.Network) (string, *netcfg.Network, error) {
	kind := deltaKinds[w.rng.Intn(len(deltaKinds))]
	switch kind {
	case "add-device":
		next, err := w.addDevice(cur)
		return kind, next, err
	case "remove-device":
		next, err := w.removeDevice(cur)
		return kind, next, err
	}
	ch := w.change(kind, cur)
	if ch == nil {
		return kind, nil, fmt.Errorf("no %s applies", kind)
	}
	next, err := applyCOW(cur, ch)
	if err == nil {
		switch c := ch.(type) {
		case netcfg.RemoveLink:
			w.removed = append(w.removed, c.Link)
		case netcfg.AddLink:
			w.removed = slices.DeleteFunc(w.removed, func(l netcfg.Link) bool { return l == c.Link })
		}
	}
	return reflect.TypeOf(ch).Name(), next, err
}

// change builds one change of the named kind against cur, or nil.
func (w *deltaWalk) change(kind string, cur *netcfg.Network) netcfg.Change {
	rng := w.rng
	links := cur.Topology.Links
	if len(links) == 0 {
		return nil
	}
	l := links[rng.Intn(len(links))]
	if rng.Intn(2) == 0 {
		l = netcfg.Link{DevA: l.DevB, IntfA: l.IntfB, DevB: l.DevA, IntfB: l.IntfA}
	}
	cfg, peer := cur.Devices[l.DevA], cur.Devices[l.DevB]
	if cfg == nil || peer == nil || cfg.Intf(l.IntfA) == nil || peer.Intf(l.IntfB) == nil {
		return nil
	}
	peerAddr := peer.Intf(l.IntfB).Addr.Addr
	aclName := fmt.Sprintf("acl%d", rng.Intn(2))
	plName := fmt.Sprintf("pl%d", rng.Intn(2))
	host := topology.HostPrefixOf(rng.Intn(20))
	switch kind {
	case "ShutdownInterface":
		return netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: !cfg.Intf(l.IntfA).Shutdown}
	case "SetOSPFCost":
		return netcfg.SetOSPFCost{Device: l.DevA, Intf: l.IntfA, Cost: uint32(rng.Intn(40))}
	case "SetLocalPref":
		return netcfg.SetLocalPref{Device: l.DevA, Neighbor: peerAddr, LocalPref: uint32(50 + rng.Intn(150))}
	case "AddStaticRoute", "RemoveStaticRoute":
		r := netcfg.StaticRoute{Prefix: netcfg.Prefix{Addr: netcfg.MustAddr("198.18.0.0") + netcfg.Addr(rng.Intn(3))<<8, Len: 24}}
		if rng.Intn(3) == 0 {
			r.Drop = true
		} else {
			r.NextHop = peerAddr
		}
		if kind == "RemoveStaticRoute" {
			if len(cfg.StaticRoutes) == 0 {
				return nil
			}
			return netcfg.RemoveStaticRoute{Device: l.DevA, Route: cfg.StaticRoutes[rng.Intn(len(cfg.StaticRoutes))]}
		}
		return netcfg.AddStaticRoute{Device: l.DevA, Route: r}
	case "SetACL":
		if rng.Intn(4) == 0 {
			return netcfg.SetACL{Device: l.DevA, Name: aclName} // remove it
		}
		return netcfg.SetACL{Device: l.DevA, Name: aclName, Lines: []netcfg.ACLLine{
			{Seq: 10, Action: netcfg.Deny, Proto: netcfg.ProtoTCP, Dst: host, DstPortLo: 22, DstPortHi: 22},
			{Seq: 20 + rng.Intn(2), Action: netcfg.Permit},
		}}
	case "BindACL":
		if rng.Intn(3) == 0 {
			aclName = "" // unbind
		}
		return netcfg.BindACL{Device: l.DevA, Intf: l.IntfA, Name: aclName, In: rng.Intn(2) == 0}
	case "SetPrefixList":
		if rng.Intn(4) == 0 {
			return netcfg.SetPrefixList{Device: l.DevA, Name: plName} // remove it
		}
		return netcfg.SetPrefixList{Device: l.DevA, Name: plName, Entries: []netcfg.PrefixListEntry{
			{Seq: 10, Action: netcfg.Deny, Prefix: host, Exact: true},
			{Seq: 20, Action: netcfg.Permit},
		}}
	case "BindNeighborFilter":
		if rng.Intn(3) == 0 {
			plName = "" // unbind
		}
		return netcfg.BindNeighborFilter{Device: l.DevA, Neighbor: peerAddr, Name: plName, In: rng.Intn(2) == 0}
	case "SetAggregate":
		agg := netcfg.MustPrefix("10.0.0.0/20")
		if cfg.BGP == nil {
			return nil
		}
		return netcfg.SetAggregate{Device: l.DevA, Prefix: agg, Remove: slices.Contains(cfg.BGP.Aggregates, agg)}
	case "RemoveLink":
		return netcfg.RemoveLink{Link: netcfg.NewLink(l.DevA, l.IntfA, l.DevB, l.IntfB)}
	case "AddLink":
		if len(w.removed) == 0 {
			return nil
		}
		return netcfg.AddLink{Link: w.removed[rng.Intn(len(w.removed))]}
	}
	return nil
}

// addDevice attaches a new router to a random device over a new /30:
// an OSPF router redistributing a drop static, or a BGP router with its
// own AS redistributing its connected routes.
func (w *deltaWalk) addDevice(cur *netcfg.Network) (*netcfg.Network, error) {
	names := cur.DeviceNames()
	attach := names[w.rng.Intn(len(names))]
	n := w.nextDev
	w.nextDev++
	name := fmt.Sprintf("new%02d", n)
	sub := netcfg.MustAddr("172.31.0.0") + netcfg.Addr(4*n)
	lo := netcfg.Prefix{Addr: netcfg.MustAddr("10.200.0.0") + netcfg.Addr(n)<<8, Len: 24}

	next := &netcfg.Network{Devices: maps.Clone(cur.Devices), Topology: cur.Topology.Clone()}
	peer := cur.Devices[attach].Clone()
	upIntf := fmt.Sprintf("up%d", n)
	peer.Interfaces = append(peer.Interfaces, &netcfg.Interface{Name: upIntf, Addr: netcfg.InterfaceAddr{Addr: sub + 1, Len: 30}})
	cfg := &netcfg.Config{Hostname: name, Interfaces: []*netcfg.Interface{
		{Name: "lo0", Addr: netcfg.InterfaceAddr{Addr: lo.Addr + 1, Len: 24}},
		{Name: "eth0", Addr: netcfg.InterfaceAddr{Addr: sub + 2, Len: 30}},
	}}
	if w.mode == topology.OSPF {
		cfg.OSPF = &netcfg.OSPF{ProcessID: 1,
			Networks:     []netcfg.Prefix{netcfg.MustPrefix("10.0.0.0/8"), netcfg.MustPrefix("172.16.0.0/12")},
			Redistribute: []netcfg.Redistribution{{From: netcfg.ProtoStatic, Metric: 7}},
		}
		cfg.StaticRoutes = []netcfg.StaticRoute{{Prefix: netcfg.Prefix{Addr: netcfg.MustAddr("198.19.0.0") + netcfg.Addr(n)<<8, Len: 24}, Drop: true}}
	} else {
		asn := 65400 + uint32(n)
		cfg.BGP = &netcfg.BGP{ASN: asn,
			Neighbors:    []*netcfg.Neighbor{{Addr: sub + 1, RemoteAS: peer.BGP.ASN}},
			Redistribute: []netcfg.Redistribution{{From: netcfg.ProtoConnected}},
		}
		peer.BGP.Neighbors = append(peer.BGP.Neighbors, &netcfg.Neighbor{Addr: sub + 2, RemoteAS: asn})
	}
	next.Devices[attach], next.Devices[name] = peer, cfg
	next.Topology.Add(attach, upIntf, name, "eth0")
	w.added = append(w.added, name)
	return next, nil
}

// removeDevice deletes a device addDevice created. Half the time its
// link stays behind, dangling, which leaves the device's neighbour to be
// found through it.
func (w *deltaWalk) removeDevice(cur *netcfg.Network) (*netcfg.Network, error) {
	if len(w.added) == 0 {
		return nil, fmt.Errorf("no added device")
	}
	i := w.rng.Intn(len(w.added))
	name := w.added[i]
	w.added = slices.Delete(w.added, i, i+1)
	next := &netcfg.Network{Devices: maps.Clone(cur.Devices), Topology: cur.Topology}
	delete(next.Devices, name)
	if w.rng.Intn(2) == 0 {
		next.Topology = &netcfg.Topology{Links: slices.DeleteFunc(slices.Clone(cur.Topology.Links),
			func(l netcfg.Link) bool { return l.DevA == name || l.DevB == name })}
	}
	return next, nil
}

// applyCOW applies ch to a copy of cur that shares everything ch does
// not touch, as core.Verifier.Apply builds its next network.
func applyCOW(cur *netcfg.Network, ch netcfg.Change) (*netcfg.Network, error) {
	next := &netcfg.Network{Devices: maps.Clone(cur.Devices), Topology: cur.Topology}
	devs, links := ch.Touches()
	for _, d := range devs {
		if cfg := next.Devices[d]; cfg != nil {
			next.Devices[d] = cfg.Clone()
		}
	}
	if links {
		next.Topology = cur.Topology.Clone()
	}
	return next, ch.Apply(next)
}

// changedBetween is the changed list SetNetworkDelta documents: devices
// whose *Config differs by pointer, added and removed ones, and the
// endpoints of added and removed links.
func changedBetween(cur, next *netcfg.Network) []string {
	var out []string
	for name, cfg := range next.Devices {
		if cur.Devices[name] != cfg {
			out = append(out, name)
		}
	}
	for name := range cur.Devices {
		if next.Devices[name] == nil {
			out = append(out, name)
		}
	}
	if cur.Topology != next.Topology {
		for _, pair := range [][2]*netcfg.Topology{{cur.Topology, next.Topology}, {next.Topology, cur.Topology}} {
			for _, l := range pair[0].Links {
				if !slices.Contains(pair[1].Links, l) {
					out = append(out, l.DevA, l.DevB)
				}
			}
		}
	}
	return out
}

// checkDeltaEqualsFull compares gen with a fresh generator's full
// compile of net, and gen's FIB with simulate.Run.
func checkDeltaEqualsFull(t *testing.T, label string, gen *Generator, net *netcfg.Network) {
	t.Helper()
	full := New(Options{})
	full.SetNetwork(net)
	if _, err := full.Step(); err != nil {
		t.Fatalf("%s: full compile: %v", label, err)
	}
	got, want := dumpRelations(gen), dumpRelations(full)
	for rel, w := range want {
		if g := got[rel]; !maps.Equal(g, w) {
			t.Errorf("%s: relation %s differs from the full compile's:%s", label, rel, multisetDiff(g, w))
		}
	}
	if g, w := filterSet(gen), filterSet(full); !maps.Equal(g, w) {
		t.Errorf("%s: filters differ: delta %d rules, full %d", label, len(g), len(w))
	}
	if len(gen.filterDefs) != len(full.filterDefs) || len(gen.filterIDs) != len(full.filterIDs) {
		t.Errorf("%s: prefix-list table %d defs / %d ids, full %d / %d",
			label, len(gen.filterDefs), len(gen.filterIDs), len(full.filterDefs), len(full.filterIDs))
	}
	if !maps.Equal(liveRules(gen), liveRules(full)) {
		t.Errorf("%s: FIB differs from the full compile's", label)
	}
	if t.Failed() {
		t.FailNow()
	}
	checkAgainstSimulator(t, gen, net)
	if t.Failed() {
		t.FailNow()
	}
}

// checkFilterChanges asserts that the last compile's filter changes are
// exactly the difference between the filter sets before and after it.
func checkFilterChanges(t *testing.T, label string, before map[dataplane.FilterRule]bool, gen *Generator) {
	t.Helper()
	after := filterSet(gen)
	want := make(map[dd.Entry[dataplane.FilterRule]]int)
	for f := range after {
		if !before[f] {
			want[dd.Entry[dataplane.FilterRule]{Val: f, Diff: 1}]++
		}
	}
	for f := range before {
		if !after[f] {
			want[dd.Entry[dataplane.FilterRule]{Val: f, Diff: -1}]++
		}
	}
	got := make(map[dd.Entry[dataplane.FilterRule]]int)
	for _, e := range gen.FilterChanges() {
		got[e]++
	}
	if !maps.Equal(got, want) {
		t.Errorf("%s: filter changes %v, want %v", label, got, want)
	}
}

// multisetDiff lists the tuples whose multiplicity differs, with the
// delta and full counts.
func multisetDiff(delta, full map[string]dd.Diff) string {
	var lines []string
	for _, m := range []map[string]dd.Diff{delta, full} {
		for k := range m {
			if delta[k] != full[k] {
				lines = append(lines, fmt.Sprintf("\n  %s: delta %d, full %d", k, delta[k], full[k]))
			}
		}
	}
	slices.Sort(lines)
	return strings.Join(slices.Compact(lines), "")
}

func filterSet(gen *Generator) map[dataplane.FilterRule]bool {
	out := make(map[dataplane.FilterRule]bool)
	for _, f := range gen.Filters() {
		out[f] = true
	}
	return out
}

func liveRules(gen *Generator) map[dataplane.Rule]bool {
	out := make(map[dataplane.Rule]bool)
	for r, d := range gen.FIB() {
		if d > 0 {
			out[r] = true
		}
	}
	return out
}

// adjacenciesByDevice groups a network's adjacencies by their Dev, in
// order: the per-device lists a policy.Checker keeps.
func adjacenciesByDevice(net *netcfg.Network) map[string][]dataplane.Adjacency {
	out := make(map[string][]dataplane.Adjacency)
	for _, a := range dataplane.Adjacencies(net) {
		out[a.Dev] = append(out[a.Dev], a)
	}
	return out
}

// dumpRelations renders every input relation's multiset with names for
// symbols and content keys for prefix-list ids, which differ between
// generators that interned in a different order.
func dumpRelations(gen *Generator) map[string]map[string]dd.Diff {
	n := gen.syms.name
	key := func(id uint32) string {
		if id == 0 {
			return "-"
		}
		return gen.filterDefs[id].key
	}
	rk := func(k rkey) string { return fmt.Sprintf("%v", gen.syms.routeKey(k)) }
	out := make(map[string]map[string]dd.Diff)
	dumpInput(out, "ospfRouters", gen.ospfRouters, func(o sym) string { return n(o) })
	dumpInput(out, "ospfAdj", gen.ospfAdj, func(kv dd.KV[sym, ospfHop]) string {
		return fmt.Sprintf("%s<-%s/%s cost %d", n(kv.K), n(kv.V.Dev), n(kv.V.Intf), kv.V.Cost)
	})
	dumpInput(out, "ospfSeeds", gen.ospfSeeds, func(kv dd.KV[rkey, ospfRt]) string {
		return fmt.Sprintf("%s %+v", rk(kv.K), gen.syms.ospfRoute(kv.V))
	})
	dumpInput(out, "bgpSess", gen.bgpSess, func(kv dd.KV[sym, bgpSess]) string {
		s := kv.V
		return fmt.Sprintf("%s->%s/%s as %d<-%d pref %d in %s out %s",
			n(kv.K), n(s.Dev), n(s.Intf), s.DevAS, s.PeerAS, s.Pref, key(s.FIn), key(s.FOut))
	})
	dumpInput(out, "bgpOrigins", gen.bgpOrigin, func(kv dd.KV[rkey, bgpRt]) string {
		return fmt.Sprintf("%s %+v", rk(kv.K), gen.syms.bgpRoute(kv.V))
	})
	dumpInput(out, "ribDirect", gen.ribDirect, func(kv dd.KV[rkey, ribEnt]) string {
		return fmt.Sprintf("%s %+v", rk(kv.K), gen.syms.ribEntry(kv.V))
	})
	dumpInput(out, "ospfFromBGP", gen.ospfFromB, func(kv dd.KV[sym, uint32]) string {
		return fmt.Sprintf("%s metric %d", n(kv.K), kv.V)
	})
	dumpInput(out, "bgpFromOSPF", gen.bgpFromO, func(kv dd.KV[sym, struct{}]) string { return n(kv.K) })
	dumpInput(out, "bgpAgg", gen.bgpAgg, func(kv dd.KV[sym, netcfg.Prefix]) string {
		return fmt.Sprintf("%s %v", n(kv.K), kv.V)
	})
	return out
}

func dumpInput[T comparable](out map[string]map[string]dd.Diff, rel string, in *dd.Input[T], render func(T) string) {
	m := make(map[string]dd.Diff)
	for v, d := range in.State() {
		m[render(v)] += d
	}
	out[rel] = m
}
