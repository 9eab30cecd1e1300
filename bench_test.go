// Benchmarks reproducing the paper's evaluation (section 5). Every
// table and figure with data maps to benchmarks here:
//
//   - Table 2 (data plane generation time): BenchmarkTable2_* measure
//     from-scratch generation by the domain-specific baseline ("Batfish")
//     and by the dataflow engine ("RealConfigFull"), and incremental
//     generation for the paper's change types (LinkFailure, LC, LP).
//   - Table 3 (model update + policy checking): BenchmarkTable3_*
//     measure batch model updates in both orders (insertion-first vs
//     deletion-first) and the incremental policy recheck.
//   - Section 2/5 spec-mining claim: BenchmarkSpecMining_* compare an
//     incremental single-link-failure sweep against from-scratch
//     recomputation per failure.
//
// The topology is the paper's fat-tree; arity defaults to 6 (45 nodes)
// so the suite stays fast, and REALCONFIG_BENCH_K=12 reproduces the
// paper's 180-node / 864-link scale.
package realconfig_test

import (
	"os"
	"strconv"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/routing"
	"realconfig/internal/simulate"
	"realconfig/internal/topology"
)

// benchK returns the fat-tree arity (REALCONFIG_BENCH_K overrides).
func benchK(b *testing.B) int {
	if s := os.Getenv("REALCONFIG_BENCH_K"); s != "" {
		k, err := strconv.Atoi(s)
		if err != nil || k < 2 || k%2 != 0 {
			b.Fatalf("bad REALCONFIG_BENCH_K=%q", s)
		}
		return k
	}
	return 6
}

func benchNet(b *testing.B, mode topology.Mode) *topology.Net {
	net, err := topology.FatTree(benchK(b), mode)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// loadedGenerator returns a generator that has fully computed the
// network's data plane.
func loadedGenerator(b *testing.B, net *topology.Net) *routing.Generator {
	gen := routing.New(routing.Options{})
	gen.SetNetwork(net.Network)
	if _, err := gen.Step(); err != nil {
		b.Fatal(err)
	}
	return gen
}

// --- Table 2: data plane generation ---------------------------------------

func benchBatfishFull(b *testing.B, mode topology.Mode) {
	net := benchNet(b, mode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(net.Network); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_OSPF_BatfishFull(b *testing.B) { benchBatfishFull(b, topology.OSPF) }
func BenchmarkTable2_BGP_BatfishFull(b *testing.B)  { benchBatfishFull(b, topology.BGP) }

func benchRealConfigFull(b *testing.B, mode topology.Mode) {
	net := benchNet(b, mode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := routing.New(routing.Options{})
		gen.SetNetwork(net.Network)
		if _, err := gen.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_OSPF_RealConfigFull(b *testing.B) { benchRealConfigFull(b, topology.OSPF) }
func BenchmarkTable2_BGP_RealConfigFull(b *testing.B)  { benchRealConfigFull(b, topology.BGP) }

// benchIncremental measures one incremental epoch per iteration; the
// reverting epoch runs outside the timer.
func benchIncremental(b *testing.B, mode topology.Mode, mkChange func(*topology.Net, netcfg.Link) (apply, revert netcfg.Change)) {
	net := benchNet(b, mode)
	gen := loadedGenerator(b, net)
	links := net.Topology.Links
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link := links[i%len(links)]
		apply, revert := mkChange(net, link)
		b.StopTimer()
		if err := apply.Apply(net.Network); err != nil {
			b.Fatal(err)
		}
		gen.SetNetwork(net.Network)
		b.StartTimer()
		if _, err := gen.Step(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := revert.Apply(net.Network); err != nil {
			b.Fatal(err)
		}
		gen.SetNetwork(net.Network)
		if _, err := gen.Step(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkTable2_OSPF_IncrementalLinkFailure(b *testing.B) {
	benchIncremental(b, topology.OSPF, func(_ *topology.Net, l netcfg.Link) (netcfg.Change, netcfg.Change) {
		return netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: true},
			netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: false}
	})
}

func BenchmarkTable2_OSPF_IncrementalLC(b *testing.B) {
	benchIncremental(b, topology.OSPF, func(_ *topology.Net, l netcfg.Link) (netcfg.Change, netcfg.Change) {
		return netcfg.SetOSPFCost{Device: l.DevA, Intf: l.IntfA, Cost: 100},
			netcfg.SetOSPFCost{Device: l.DevA, Intf: l.IntfA, Cost: 0}
	})
}

func BenchmarkTable2_BGP_IncrementalLinkFailure(b *testing.B) {
	benchIncremental(b, topology.BGP, func(_ *topology.Net, l netcfg.Link) (netcfg.Change, netcfg.Change) {
		return netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: true},
			netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: false}
	})
}

func BenchmarkTable2_BGP_IncrementalLP(b *testing.B) {
	benchIncremental(b, topology.BGP, func(net *topology.Net, l netcfg.Link) (netcfg.Change, netcfg.Change) {
		peer := net.Devices[l.DevB].Intf(l.IntfB).Addr.Addr
		return netcfg.SetLocalPref{Device: l.DevA, Neighbor: peer, LocalPref: 150},
			netcfg.SetLocalPref{Device: l.DevA, Neighbor: peer, LocalPref: 0}
	})
}

// --- Table 3: model update and policy checking -----------------------------

// table3Fixture precomputes the base FIB and the FIB delta for a change.
type table3Fixture struct {
	base  []dd.Entry[dataplane.Rule]
	delta []dd.Entry[dataplane.Rule]
	net   *topology.Net
}

func newTable3Fixture(b *testing.B, change string) *table3Fixture {
	net := benchNet(b, topology.BGP)
	gen := loadedGenerator(b, net)
	f := &table3Fixture{net: net}
	for r, d := range gen.FIB() {
		if d > 0 {
			f.base = append(f.base, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
		}
	}
	link := net.Topology.Links[len(net.Topology.Links)/2]
	var apply, revert netcfg.Change
	switch change {
	case "LinkFailure":
		apply = netcfg.ShutdownInterface{Device: link.DevA, Intf: link.IntfA, Shutdown: true}
		revert = netcfg.ShutdownInterface{Device: link.DevA, Intf: link.IntfA, Shutdown: false}
	case "LP":
		peer := net.Devices[link.DevB].Intf(link.IntfB).Addr.Addr
		apply = netcfg.SetLocalPref{Device: link.DevA, Neighbor: peer, LocalPref: 150}
		revert = netcfg.SetLocalPref{Device: link.DevA, Neighbor: peer, LocalPref: 0}
	default:
		b.Fatalf("unknown change %q", change)
	}
	if err := apply.Apply(net.Network); err != nil {
		b.Fatal(err)
	}
	gen.SetNetwork(net.Network)
	if _, err := gen.Step(); err != nil {
		b.Fatal(err)
	}
	f.delta = append(f.delta, gen.FIBChanges()...)
	if err := revert.Apply(net.Network); err != nil {
		b.Fatal(err)
	}
	return f
}

// warmModel builds a model pre-loaded with the base FIB.
func (f *table3Fixture) warmModel(b *testing.B) *apkeep.Model {
	m := apkeep.New()
	if _, err := m.ApplyBatch(f.base, apkeep.InsertFirst); err != nil {
		b.Fatal(err)
	}
	return m
}

// undo returns the batch reversing delta.
func (f *table3Fixture) undo() []dd.Entry[dataplane.Rule] {
	out := make([]dd.Entry[dataplane.Rule], len(f.delta))
	for i, e := range f.delta {
		out[i] = dd.Entry[dataplane.Rule]{Val: e.Val, Diff: -e.Diff}
	}
	return out
}

func benchModelUpdate(b *testing.B, change string, order apkeep.Order) {
	f := newTable3Fixture(b, change)
	m := f.warmModel(b) // warm once; iterations apply the delta and revert
	rev := f.undo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.ApplyBatch(f.delta, order)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.AffectedECs()), "ECs")
			b.ReportMetric(float64(res.Inserted), "ins")
			b.ReportMetric(float64(res.Deleted), "del")
			b.ReportMetric(float64(len(f.base)), "rules_total")
		}
		b.StopTimer()
		if _, err := m.ApplyBatch(rev, order); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkTable3_ModelUpdate_LinkFailure_InsertFirst(b *testing.B) {
	benchModelUpdate(b, "LinkFailure", apkeep.InsertFirst)
}
func BenchmarkTable3_ModelUpdate_LinkFailure_DeleteFirst(b *testing.B) {
	benchModelUpdate(b, "LinkFailure", apkeep.DeleteFirst)
}
func BenchmarkTable3_ModelUpdate_LP_InsertFirst(b *testing.B) {
	benchModelUpdate(b, "LP", apkeep.InsertFirst)
}
func BenchmarkTable3_ModelUpdate_LP_DeleteFirst(b *testing.B) {
	benchModelUpdate(b, "LP", apkeep.DeleteFirst)
}

func benchPolicyCheck(b *testing.B, change string) {
	f := newTable3Fixture(b, change)
	m := f.warmModel(b)
	checker := policy.NewChecker(m)
	checker.SetTopology(f.net.DeviceNames(), dataplane.Adjacencies(f.net.Network))
	checker.Update(nil, nil)
	pairsTotal := checker.NumPairs()
	rev := f.undo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		res, err := m.ApplyBatch(f.delta, apkeep.InsertFirst)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		cres := checker.Update(res.Transfers, res.FilterTransfers)
		if i == 0 {
			b.ReportMetric(float64(len(cres.AffectedPairs)), "pairs")
			b.ReportMetric(float64(pairsTotal), "pairs_total")
		}
		b.StopTimer()
		res, err = m.ApplyBatch(rev, apkeep.InsertFirst)
		if err != nil {
			b.Fatal(err)
		}
		checker.Update(res.Transfers, res.FilterTransfers)
		b.StartTimer()
	}
}

func BenchmarkTable3_PolicyCheck_LinkFailure(b *testing.B) { benchPolicyCheck(b, "LinkFailure") }
func BenchmarkTable3_PolicyCheck_LP(b *testing.B)          { benchPolicyCheck(b, "LP") }

// --- Section 2/5: specification mining -------------------------------------

// The sweep size is capped so a single benchmark iteration stays
// reasonable; the speedup ratio is what matters.
const specMiningFailures = 16

func BenchmarkSpecMining_Incremental(b *testing.B) {
	net := benchNet(b, topology.OSPF)
	gen := loadedGenerator(b, net)
	links := net.Topology.Links
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < specMiningFailures; j++ {
			l := links[j*len(links)/specMiningFailures]
			for _, down := range []bool{true, false} {
				ch := netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: down}
				if err := ch.Apply(net.Network); err != nil {
					b.Fatal(err)
				}
				gen.SetNetwork(net.Network)
				if _, err := gen.Step(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkSpecMining_FromScratch(b *testing.B) {
	net := benchNet(b, topology.OSPF)
	links := net.Topology.Links
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < specMiningFailures; j++ {
			l := links[j*len(links)/specMiningFailures]
			down := netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: true}
			up := netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: false}
			if err := down.Apply(net.Network); err != nil {
				b.Fatal(err)
			}
			if _, err := simulate.Run(net.Network); err != nil {
				b.Fatal(err)
			}
			if err := up.Apply(net.Network); err != nil {
				b.Fatal(err)
			}
		}
	}
}
