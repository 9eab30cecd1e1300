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

// TestCheckerAllocationCeilings pins the heap allocations of one
// Checker.Update for a link-flap batch on FatTree(4,OSPF) with the
// sparse suite, independently of this box's clock: the link goes down,
// and the down batch's Update is repeated (each repeat re-walks,
// re-merges and rechecks the same ECs). The commit before device-id
// indexed walks, with name-keyed maps per EC for outcomes, next hops,
// walk state and delivered pairs and a fresh reverse map per merge,
// measured 3740 allocs here; with id-indexed slices it measures 277.
// The ceiling leaves ~20 % above the latter for runtime and map-growth
// differences between Go releases.
func TestCheckerAllocationCeilings(t *testing.T) {
	const linkFlapUpdateCeiling = 335
	f := newFlapNet(t, 4)
	br := f.flapTo(t, true)
	res := f.update(t, br)
	if res.AffectedECs == 0 || res.PoliciesChecked == 0 {
		t.Fatalf("flap walked %d ECs and rechecked %d policies; the test needs both", res.AffectedECs, res.PoliciesChecked)
	}
	perUpdate := testing.AllocsPerRun(20, func() { f.update(t, br) })
	t.Logf("allocs: link-flap Update %.0f (%d ECs walked, %d policies rechecked)",
		perUpdate, res.AffectedECs, res.PoliciesChecked)
	if perUpdate > linkFlapUpdateCeiling {
		t.Errorf("link-flap Update allocates %.0f objects, ceiling %d", perUpdate, linkFlapUpdateCeiling)
	}
}
