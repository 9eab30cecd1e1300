package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
)

// recountPairs counts, from the walk results alone, the ECs deliverable
// along each (src, dst) pair.
func recountPairs(c *Checker) map[Pair]int32 {
	out := make(map[Pair]int32)
	for _, r := range c.ecs {
		if r == nil {
			continue
		}
		for id, o := range r.outcomes {
			if o.Kind == Delivered {
				out[Pair{Src: c.model.DevName(apkeep.DevID(id)), Dst: o.At}]++
			}
		}
	}
	return out
}

// checkPairCounts requires the maintained pair counts to equal a recount
// over the walk results, with no key holding a count of zero.
func checkPairCounts(t *testing.T, where string, c *Checker) {
	t.Helper()
	want := recountPairs(c)
	for p, n := range c.pairs {
		if n <= 0 {
			t.Fatalf("%s: pair %v holds count %d", where, p, n)
		}
		if want[p] != n {
			t.Fatalf("%s: pair %v counts %d ECs, recount %d", where, p, n, want[p])
		}
	}
	for p, n := range want {
		if _, ok := c.pairs[p]; !ok {
			t.Fatalf("%s: pair %v missing, recount %d", where, p, n)
		}
	}
}

// TestPairCountsEqualRecount churns seeded rule/filter batches (the
// index oracle's generator) through a checker, with and without
// AutoMerge, while a device joins the ring and later leaves it, and
// after every Update requires each pair's count to equal the number of
// walked ECs delivering along it.
func TestPairCountsEqualRecount(t *testing.T) {
	for _, autoMerge := range []bool{true, false} {
		t.Run(fmt.Sprintf("automerge=%v", autoMerge), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			devs := []string{"a", "b", "c", "d", "e"}
			model := apkeep.New()
			model.AutoMerge = autoMerge
			c := NewChecker(model)
			c.SetTopology(devs, ringAdjs(devs))
			c.Update(nil, nil)
			checkPairCounts(t, "first load", c)
			rules := map[dataplane.Rule]bool{}
			filters := map[dataplane.FilterRule]bool{}
			f := dataplane.Rule{Device: "f", Prefix: netcfg.MustPrefix("10.0.0.0/24"), Action: dataplane.Deliver, OutIntf: "lo0"}
			retired := 0
			for step := 0; step < 60; step++ {
				where := fmt.Sprintf("step %d", step)
				rb, fb := churn(rng, devs, rules, filters)
				switch step {
				case 20: // f joins the ring and delivers the shared header
					devs = append(devs, "f")
					c.SetTopology(devs, ringAdjs(devs))
					rb = append(rb, entries(1, f)...)
				case 40: // f leaves; its rules stay, but it is walked from no more
					devs = devs[:len(devs)-1]
					c.SetTopology(devs, ringAdjs(devs))
				}
				if err := model.UpdateFilters(fb); err != nil {
					t.Fatal(err)
				}
				br, err := model.ApplyBatch(rb, apkeep.InsertFirst)
				if err != nil {
					t.Fatal(err)
				}
				retired += len(br.Merges)
				c.Update(br.Transfers, br.FilterTransfers, br.Merges...)
				checkPairCounts(t, where, c)
			}
			if autoMerge && retired == 0 {
				t.Fatal("no EC was merged away; the walk does not exercise retire")
			}
			if c.NumPairs() == 0 {
				t.Fatal("no pair delivers; the walk does not exercise the counts")
			}
		})
	}
}
