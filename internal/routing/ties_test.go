package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"realconfig/internal/netcfg"
	"realconfig/internal/topology"
)

// TestOSPFTiesMatchOracle is the OSPF oracle where equal-cost paths are
// the rule, not the exception: every interface's cost is 1 or 2, drawn
// per side, so most destinations tie between next hops and, through
// redistribution, between origins. The generator must match
// simulate.Run after the load and after every flap and cost change
// (drawn from the same two costs). In the redistribution case one
// anycast prefix is statically routed at three devices and redistributed
// into OSPF at metric 1 or 2, and others redistribute their connected
// prefixes, so a device reaches one prefix through several origins at
// one distance.
func TestOSPFTiesMatchOracle(t *testing.T) {
	for _, redist := range []bool{false, true} {
		for trial := int64(0); trial < 4; trial++ {
			t.Run(fmt.Sprintf("redistribution=%v/%d", redist, trial), func(t *testing.T) {
				checkOSPFTies(t, trial, redist)
			})
		}
	}
}

func checkOSPFTies(t *testing.T, trial int64, redist bool) {
	rng := rand.New(rand.NewSource(700 + trial))
	net, err := topology.Random(10+int(trial), 3.0, 300+trial, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	cost := func() uint32 { return uint32(1 + rng.Intn(2)) }
	apply := func(ch netcfg.Change) {
		t.Helper()
		if err := ch.Apply(net.Network); err != nil {
			t.Fatalf("%v: %v", ch, err)
		}
	}
	for _, l := range net.Topology.Links {
		apply(netcfg.SetOSPFCost{Device: l.DevA, Intf: l.IntfA, Cost: cost()})
		apply(netcfg.SetOSPFCost{Device: l.DevB, Intf: l.IntfB, Cost: cost()})
	}
	if redist {
		names := net.DeviceNames()
		anycast := netcfg.MustPrefix("198.51.100.0/24")
		for i, d := range rng.Perm(len(names))[:3] {
			cfg := net.Devices[names[d]]
			cfg.StaticRoutes = append(cfg.StaticRoutes, netcfg.StaticRoute{Prefix: anycast, Drop: true})
			cfg.OSPF.Redistribute = append(cfg.OSPF.Redistribute, netcfg.Redistribution{From: netcfg.ProtoStatic, Metric: uint32(1 + i%2)})
		}
		for _, d := range rng.Perm(len(names))[:3] {
			cfg := net.Devices[names[d]]
			cfg.OSPF.Redistribute = append(cfg.OSPF.Redistribute, netcfg.Redistribution{From: netcfg.ProtoConnected, Metric: cost()})
		}
	}
	gen := New(Options{})
	loadAndStep(t, gen, net.Network)
	checkAgainstSimulator(t, gen, net.Network)
	for step := 0; step < 16; step++ {
		l := net.Topology.Links[rng.Intn(len(net.Topology.Links))]
		dev, intf := l.DevA, l.IntfA
		if rng.Intn(2) == 0 {
			dev, intf = l.DevB, l.IntfB
		}
		var ch netcfg.Change = netcfg.SetOSPFCost{Device: dev, Intf: intf, Cost: cost()}
		if rng.Intn(3) == 0 {
			ch = netcfg.ShutdownInterface{Device: dev, Intf: intf, Shutdown: !net.Devices[dev].Intf(intf).Shutdown}
		}
		apply(ch)
		loadAndStep(t, gen, net.Network)
		checkAgainstSimulator(t, gen, net.Network)
		if t.Failed() {
			t.Fatalf("step %d (%v)", step, ch)
		}
	}
}
