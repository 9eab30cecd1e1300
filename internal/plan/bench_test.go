package plan_test

import (
	"testing"

	"realconfig/internal/core"
	"realconfig/internal/plan"
	"realconfig/internal/topology"
)

// BenchmarkPlan plans the order-dependent RingBatch of 8 changes on
// Ring(16,OSPF). Besides time and allocations per search it reports the
// search's oracle probes and fork repositionings (rebuilds), both fixed
// by the batch.
func BenchmarkPlan(b *testing.B) {
	net, err := topology.Ring(16, topology.OSPF)
	if err != nil {
		b.Fatal(err)
	}
	v, _, err := core.Bootstrap(core.Options{}, net.Network, plan.RingPolicies(net))
	if err != nil {
		b.Fatal(err)
	}
	batch, err := plan.RingBatch(net, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st plan.Stats
	for i := 0; i < b.N; i++ {
		res, err := plan.Search(v, batch, plan.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Plan == nil {
			b.Fatalf("no plan: %v", res.Counterexample)
		}
		st = res.Stats
	}
	b.ReportMetric(float64(st.Probes), "probes/op")
	b.ReportMetric(float64(st.Rebuilds), "rebuilds/op")
}
