package policy

import (
	"fmt"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/routing"
	"realconfig/internal/topology"
)

// flapNet is a FatTree(k,OSPF) loaded through the generator and the BDD
// model into a checker carrying the sparse policy suite, with a
// core-facing link (the first link's A side) to flap.
type flapNet struct {
	net   *topology.Net
	gen   *routing.Generator
	model *apkeep.Model
	c     *Checker
	flap  netcfg.ShutdownInterface
}

func newFlapNet(tb testing.TB, k int) *flapNet {
	tb.Helper()
	net, err := topology.FatTree(k, topology.OSPF)
	if err != nil {
		tb.Fatal(err)
	}
	f := &flapNet{net: net, gen: routing.New(routing.Options{}), model: apkeep.New()}
	f.model.AutoMerge = true // as the verifier configures its model
	f.c = NewChecker(f.model)
	f.update(tb, f.epoch(tb))
	for _, p := range sparseSuite(net, k) {
		f.c.AddPolicy(p)
	}
	l := net.Topology.Links[0]
	f.flap = netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA}
	return f
}

// epoch runs the generator on the current network, applies its changes
// to the model and installs the topology, in the verifier's order.
func (f *flapNet) epoch(tb testing.TB) *apkeep.BatchResult {
	tb.Helper()
	f.gen.SetNetwork(f.net.Network)
	if _, err := f.gen.Step(); err != nil {
		tb.Fatal(err)
	}
	if err := f.model.UpdateFilters(f.gen.FilterChanges()); err != nil {
		tb.Fatal(err)
	}
	br, err := f.model.ApplyBatch(f.gen.FIBChanges(), apkeep.InsertFirst)
	if err != nil {
		tb.Fatal(err)
	}
	f.c.SetTopology(f.net.DeviceNames(), dataplane.Adjacencies(f.net.Network))
	return br
}

// flapTo takes the link down or up and returns the model's batch.
func (f *flapNet) flapTo(tb testing.TB, down bool) *apkeep.BatchResult {
	tb.Helper()
	f.flap.Shutdown = down
	if err := f.flap.Apply(f.net.Network); err != nil {
		tb.Fatal(err)
	}
	return f.epoch(tb)
}

func (f *flapNet) update(tb testing.TB, br *apkeep.BatchResult) *Result {
	tb.Helper()
	return f.c.Update(br.Transfers, br.FilterTransfers, br.Merges...)
}

// sparseSuite is the benchmark's sparse policy suite: loop and blackhole
// freedom, one reachability per host /24, and one waypoint per edge
// switch through its pod's first aggregation switch.
func sparseSuite(net *topology.Net, k int) []Policy {
	ps := []Policy{
		LoopFree{PolicyName: "no-loops", Scope: dataplane.MatchAll},
		BlackholeFree{PolicyName: "no-blackholes", Scope: dataplane.Match{Dst: netcfg.MustPrefix("10.0.0.0/16")}},
	}
	for i, dev := range net.NodeNames {
		src := fmt.Sprintf("edge%02d-%02d", i%k, 0)
		if src == dev {
			src = fmt.Sprintf("edge%02d-%02d", i%k, 1)
		}
		ps = append(ps, Reachability{PolicyName: "reach-" + dev, Src: src, Dst: dev,
			Hdr: dataplane.Match{Dst: net.HostPrefix[dev]}, Mode: ReachAll})
	}
	for pod := 0; pod < k; pod++ {
		for idx := 0; idx < k/2; idx++ {
			e := fmt.Sprintf("edge%02d-%02d", pod, idx)
			dst := fmt.Sprintf("edge%02d-%02d", (pod+1)%k, idx)
			ps = append(ps, Waypoint{PolicyName: "via-" + e, Src: e, Dst: dst,
				Via: fmt.Sprintf("agg%02d-00", pod), Hdr: dataplane.Match{Dst: net.HostPrefix[dst]}})
		}
	}
	return ps
}

// denseSuite is the benchmark's dense addition to the sparse suite:
// perPrefix reachability policies per host /24, from edge switches,
// with modes cycling all/some/none.
func denseSuite(net *topology.Net, k, perPrefix int) []Policy {
	modes := []ReachMode{ReachAll, ReachSome, ReachNone}
	var ps []Policy
	for i, dev := range net.NodeNames {
		for j := 0; j < perPrefix; j++ {
			n := i*perPrefix + j*7
			src := fmt.Sprintf("edge%02d-%02d", n%k, (n/k)%(k/2))
			if src == dev {
				src = fmt.Sprintf("edge%02d-%02d", (n+1)%k, (n/k)%(k/2))
			}
			ps = append(ps, Reachability{PolicyName: fmt.Sprintf("dense-%s-%d", dev, j), Src: src, Dst: dev,
				Hdr: dataplane.Match{Dst: net.HostPrefix[dev]}, Mode: modes[(i+j)%len(modes)]})
		}
	}
	return ps
}

// newDenseFlapNet is newFlapNet with 64 reachability policies per host
// /24 on top of the sparse suite: the shape of the benchmark's
// bgp-dense-policy workload, where each flap rechecks dozens of
// policies per touched header.
func newDenseFlapNet(tb testing.TB, k int) *flapNet {
	f := newFlapNet(tb, k)
	for _, p := range denseSuite(f.net, k, 64) {
		f.c.AddPolicy(p)
	}
	return f
}

// TestCheckerAllocationCeilings pins the heap allocations of one
// Checker.Update for a link-flap batch on FatTree(4,OSPF), independently
// of this box's clock: the link goes down, and the down batch's Update
// is repeated (each repeat re-walks, re-merges and rechecks the same
// ECs). With the sparse suite, the commit before device-id indexed
// walks, with name-keyed maps per EC for outcomes, next hops, walk
// state and delivered pairs and a fresh reverse map per merge, measured
// 3740 allocs; with id-indexed slices it measured 277, with
// registration records 258, and with walk results indexed by dense EC
// id and the model's churn in place of two scans of every EC, 209. With
// the dense suite on top (1115 rechecks instead of 27) it measures 209
// too, against 283 when each recheck looked its policy up by name and
// queued it. Each ceiling leaves ~20 % above its measurement for
// runtime and map-growth differences between Go releases.
func TestCheckerAllocationCeilings(t *testing.T) {
	const (
		linkFlapUpdateCeiling  = 251
		denseFlapUpdateCeiling = 251
	)
	for _, tc := range []struct {
		name    string
		newNet  func(testing.TB, int) *flapNet
		ceiling float64
	}{
		{"sparse", newFlapNet, linkFlapUpdateCeiling},
		{"dense", newDenseFlapNet, denseFlapUpdateCeiling},
	} {
		f := tc.newNet(t, 4)
		br := f.flapTo(t, true)
		res := f.update(t, br)
		if res.AffectedECs == 0 || res.PoliciesChecked == 0 {
			t.Fatalf("%s: flap walked %d ECs and rechecked %d policies; the test needs both", tc.name, res.AffectedECs, res.PoliciesChecked)
		}
		perUpdate := testing.AllocsPerRun(20, func() { f.update(t, br) })
		t.Logf("allocs: %s link-flap Update %.0f (%d ECs walked, %d policies rechecked)",
			tc.name, perUpdate, res.AffectedECs, res.PoliciesChecked)
		if perUpdate > tc.ceiling {
			t.Errorf("%s link-flap Update allocates %.0f objects, ceiling %.0f", tc.name, perUpdate, tc.ceiling)
		}
	}
}

// BenchmarkUpdateDenseFlap times Checker.Update alone for real link
// flaps on FatTree(6,OSPF) with the dense suite: each iteration takes
// the link down or up, the generator and model run with the timer
// stopped, and the checker's Update is timed. It reports rechecks/op
// beside ns/op and allocs/op. It is a micro-benchmark of the checker,
// not the benchmark of record.
func BenchmarkUpdateDenseFlap(b *testing.B) {
	f := newDenseFlapNet(b, 6)
	b.ReportAllocs()
	rechecks := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		br := f.flapTo(b, i%2 == 0)
		b.StartTimer()
		rechecks += f.update(b, br).PoliciesChecked
	}
	b.ReportMetric(float64(rechecks)/float64(b.N), "rechecks/op")
}
