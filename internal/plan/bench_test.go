package plan_test

import (
	"fmt"
	"testing"

	"realconfig/internal/core"
	"realconfig/internal/plan"
	"realconfig/internal/topology"
)

// BenchmarkPlan plans the order-dependent RingBatch of 8 changes on
// Ring(16,OSPF), with a pool of 1 and of 4 probe workers. Besides time
// and allocations per search it reports the search's oracle probes and
// fork repositionings (rebuilds); with 4 workers the latter depend on
// scheduling.
func BenchmarkPlan(b *testing.B) {
	net, err := topology.Ring(16, topology.OSPF)
	if err != nil {
		b.Fatal(err)
	}
	v, _, err := core.Bootstrap(core.Options{DetectOscillation: true}, net.Network, plan.RingPolicies(net))
	if err != nil {
		b.Fatal(err)
	}
	batch, err := plan.RingBatch(net, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var st plan.Stats
			for i := 0; i < b.N; i++ {
				res, err := plan.Search(v, batch, plan.Options{Workers: workers})
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
		})
	}
}
