package core

import (
	"fmt"
	"reflect"
	"testing"

	"realconfig/internal/obs"
	"realconfig/internal/topology"
	"realconfig/internal/trace"
)

// unitsCompiled reads units_compiled from the generate span of a
// traced verifier's report.
func unitsCompiled(t *testing.T, v *Verifier, rep *Report) string {
	t.Helper()
	for _, s := range v.Recorder().Get(rep.TraceID).Spans {
		if s.Name == obs.StageGenerate {
			n, _ := trace.Get(s.Attrs, "units_compiled")
			return n
		}
	}
	t.Fatal("no generate span")
	return ""
}

// TestSetNetworkCompilesOnlyWhatDiffers checks that SetNetwork shares
// what the verifier already holds: handed its own network back, it
// compiles nothing and moves no FIB rule; handed its network derived by
// With, it compiles the units an Apply of the same changes compiles on
// a twin, to the same FIB and verdicts. The same holds on a Build fork
// over the verifier's network, the planner's pattern. Each change kind
// of cowBatchPool is applied and undone.
func TestSetNetworkCompilesOnlyWhatDiffers(t *testing.T) {
	for _, mode := range []topology.Mode{topology.BGP, topology.OSPF} {
		t.Run(fmt.Sprintf("fattree4-%v", mode), func(t *testing.T) {
			net, err := topology.FatTree(4, mode)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{TraceApplies: 2}
			v, _, err := Build(opts, net.Network.Clone(), backendPolicies(net))
			if err != nil {
				t.Fatal(err)
			}
			twin, _, err := Build(opts, net.Network.Clone(), backendPolicies(net))
			if err != nil {
				t.Fatal(err)
			}
			fib := v.FIB()
			rep, err := v.SetNetwork(v.Network())
			if err != nil {
				t.Fatal(err)
			}
			if got := unitsCompiled(t, v, rep); got != "0" {
				t.Errorf("SetNetwork(Network()) compiled %s units, want 0", got)
			}
			if rep.RulesInserted+rep.RulesDeleted != 0 || !reflect.DeepEqual(v.FIB(), fib) {
				t.Errorf("SetNetwork(Network()) moved FIB rules: +%d -%d", rep.RulesInserted, rep.RulesDeleted)
			}

			seen := make(map[string]bool)
			steps := 0
			for _, pair := range cowBatchPool(net) {
				kind := fmt.Sprintf("%T", pair[0][0])
				if seen[kind] {
					continue
				}
				seen[kind] = true
				for _, batch := range pair {
					next, err := v.Network().With(batch...)
					if err != nil {
						t.Fatalf("%v: %v", batch, err)
					}
					fork, _, err := Build(opts, v.Network(), v.Checker().Policies())
					if err != nil {
						t.Fatal(err)
					}
					repF, err := fork.SetNetwork(next)
					if err != nil {
						t.Fatalf("fork %v: %v", batch, err)
					}
					repV, err := v.SetNetwork(next)
					if err != nil {
						t.Fatalf("%v: %v", batch, err)
					}
					repT, err := twin.Apply(batch...)
					if err != nil {
						t.Fatalf("twin %v: %v", batch, err)
					}
					want := unitsCompiled(t, twin, repT)
					if want == "0" {
						t.Fatalf("%v: Apply compiled no unit, so the step tests nothing", batch)
					}
					for _, side := range []struct {
						name string
						v    *Verifier
						rep  *Report
					}{{"SetNetwork", v, repV}, {"fork SetNetwork", fork, repF}} {
						if got := unitsCompiled(t, side.v, side.rep); got != want {
							t.Errorf("%v: %s compiled %s units, Apply %s", batch, side.name, got, want)
						}
						if !reflect.DeepEqual(side.v.FIB(), twin.FIB()) {
							t.Errorf("%v: %s FIB differs from Apply's", batch, side.name)
						}
						if !reflect.DeepEqual(side.v.Verdicts(), twin.Verdicts()) {
							t.Errorf("%v: %s verdicts %v, Apply's %v", batch, side.name, side.v.Verdicts(), twin.Verdicts())
						}
					}
					steps++
				}
			}
			if steps < 8 {
				t.Fatalf("only %d steps over kinds %v", steps, seen)
			}
		})
	}
}
