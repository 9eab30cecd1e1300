package routing

import (
	"maps"
	"testing"

	"realconfig/internal/netcfg"
	"realconfig/internal/topology"
)

// fatTreeOSPF builds the benchmark topology and picks a core-facing link
// to flap (the first link's A side).
func fatTreeOSPF(tb testing.TB, k int) (*topology.Net, netcfg.ShutdownInterface) {
	tb.Helper()
	net, err := topology.FatTree(k, topology.OSPF)
	if err != nil {
		tb.Fatal(err)
	}
	l := net.Topology.Links[0]
	return net, netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA}
}

// fullLoad is one from-scratch evaluation: build the graph, load the
// network, run the first epoch.
func fullLoad(tb testing.TB, net *netcfg.Network) *Generator {
	gen := New(Options{})
	step(tb, gen, net)
	return gen
}

// step is loadAndStep for benchmarks as well as tests.
func step(tb testing.TB, gen *Generator, net *netcfg.Network) {
	gen.SetNetwork(net)
	if _, err := gen.Step(); err != nil {
		tb.Fatal(err)
	}
}

// flapOnce takes the link down or up and runs the incremental epoch.
func flapOnce(tb testing.TB, gen *Generator, net *netcfg.Network, flap netcfg.ShutdownInterface, down bool) {
	flap.Shutdown = down
	if err := flap.Apply(net); err != nil {
		tb.Fatal(err)
	}
	step(tb, gen, net)
}

func BenchmarkGeneratorFullLoad(b *testing.B) {
	net, _ := fatTreeOSPF(b, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(fullLoad(b, net.Network).FIB()) == 0 {
			b.Fatal("empty FIB")
		}
	}
}

func BenchmarkGeneratorLinkFlap(b *testing.B) {
	net, flap := fatTreeOSPF(b, 6)
	gen := fullLoad(b, net.Network)
	flapOnce(b, gen, net.Network, flap, true) // warm both directions once
	flapOnce(b, gen, net.Network, flap, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flapOnce(b, gen, net.Network, flap, i%2 == 0)
	}
}

// TestGeneratorAllocationCeilings pins heap allocations of the hot
// paths independently of this box's clock. On FatTree(4,OSPF) this test
// measured, with the map-based traces and string-keyed tuples of the
// commit before the flat storage, and with it:
//
//	full load:       27061 allocs before, 7344 after
//	link-flap epoch:  2621 allocs before,  281 after
//
// The ceilings sit below half of the "before" column, with room above
// the "after" column for runtime and map-growth differences between Go
// releases. With per-device compile units the SetNetwork flap measured
// 135, and the same flap through SetNetworkDelta, naming the one
// changed device, 134; its ceiling is that figure plus 20 %.
func TestGeneratorAllocationCeilings(t *testing.T) {
	const (
		fullLoadCeiling  = 10000
		linkFlapCeiling  = 600
		deltaFlapCeiling = 161
	)
	net, flap := fatTreeOSPF(t, 4)
	full := testing.AllocsPerRun(5, func() { fullLoad(t, net.Network) })

	gen := fullLoad(t, net.Network)
	down := false
	perFlap := testing.AllocsPerRun(20, func() {
		down = !down
		flapOnce(t, gen, net.Network, flap, down)
	})

	// The delta path, as core.Verifier drives it: the flap alternates
	// between two networks that share every configuration but the
	// flapped device's.
	fresh, _ := fatTreeOSPF(t, 4)
	up := fresh.Network
	downNet := &netcfg.Network{Devices: maps.Clone(up.Devices), Topology: up.Topology}
	downNet.Devices[flap.Device] = up.Devices[flap.Device].Clone()
	flap.Shutdown = true
	if err := flap.Apply(downNet); err != nil {
		t.Fatal(err)
	}
	gen = fullLoad(t, up)
	sides := [2]*netcfg.Network{downNet, up}
	flips := 0
	perDeltaFlap := testing.AllocsPerRun(20, func() {
		gen.SetNetworkDelta(sides[flips%2], []string{flap.Device})
		if _, err := gen.Step(); err != nil {
			t.Fatal(err)
		}
		flips++
	})
	t.Logf("allocs: full load %.0f, link-flap epoch %.0f, delta link-flap epoch %.0f", full, perFlap, perDeltaFlap)
	if full > fullLoadCeiling {
		t.Errorf("full load allocates %.0f objects, ceiling %d", full, fullLoadCeiling)
	}
	if perFlap > linkFlapCeiling {
		t.Errorf("link-flap epoch allocates %.0f objects, ceiling %d", perFlap, linkFlapCeiling)
	}
	if perDeltaFlap > deltaFlapCeiling {
		t.Errorf("delta link-flap epoch allocates %.0f objects, ceiling %d", perDeltaFlap, deltaFlapCeiling)
	}
}
