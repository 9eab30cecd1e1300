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

// deltaFlapSides returns a generator loaded with net and the two networks
// a flap of the given interface alternates between, as core.Verifier
// drives SetNetworkDelta: they share every configuration but the flapped
// device's.
func deltaFlapSides(tb testing.TB, net *netcfg.Network, flap netcfg.ShutdownInterface) (*Generator, [2]*netcfg.Network) {
	tb.Helper()
	down := &netcfg.Network{Devices: maps.Clone(net.Devices), Topology: net.Topology}
	down.Devices[flap.Device] = net.Devices[flap.Device].Clone()
	flap.Shutdown = true
	if err := flap.Apply(down); err != nil {
		tb.Fatal(err)
	}
	return fullLoad(tb, net), [2]*netcfg.Network{down, net}
}

// deltaStep loads one side of a delta flap and runs its epoch.
func deltaStep(tb testing.TB, gen *Generator, net *netcfg.Network, changed []string) {
	gen.SetNetworkDelta(net, changed)
	if _, err := gen.Step(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkGeneratorDeltaFlap is the link-flap epoch on the
// SetNetworkDelta path core drives: only the flapped device and its
// link neighbours recompile, where BenchmarkGeneratorLinkFlap recompiles
// every device.
func BenchmarkGeneratorDeltaFlap(b *testing.B) {
	net, flap := fatTreeOSPF(b, 6)
	gen, sides := deltaFlapSides(b, net.Network, flap)
	changed := []string{flap.Device}
	deltaStep(b, gen, sides[0], changed) // warm both directions once
	deltaStep(b, gen, sides[1], changed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltaStep(b, gen, sides[i%2], changed)
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
// changed device, 134. Once reductions merged arrivals in place, the
// best-route sinks were gone and the scheduler reused its per-iteration
// node sets, they measured 57 and 56; both flap ceilings are those
// figures plus 20 %.
func TestGeneratorAllocationCeilings(t *testing.T) {
	const (
		fullLoadCeiling  = 10000
		linkFlapCeiling  = 69
		deltaFlapCeiling = 68
	)
	net, flap := fatTreeOSPF(t, 4)
	full := testing.AllocsPerRun(5, func() { fullLoad(t, net.Network) })

	gen := fullLoad(t, net.Network)
	down := false
	perFlap := testing.AllocsPerRun(20, func() {
		down = !down
		flapOnce(t, gen, net.Network, flap, down)
	})

	// The delta path, as core.Verifier drives it.
	fresh, _ := fatTreeOSPF(t, 4)
	gen, sides := deltaFlapSides(t, fresh.Network, flap)
	flips := 0
	perDeltaFlap := testing.AllocsPerRun(20, func() {
		deltaStep(t, gen, sides[flips%2], []string{flap.Device})
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
