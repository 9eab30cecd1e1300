package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// evalFresh evaluates p by its public Eval with the registration index
// hidden, so Eval reads a fresh overlapping scan of the walked ECs
// rather than any entry.
func evalFresh(c *Checker, p Policy) bool {
	index := c.index
	c.index = nil
	defer func() { c.index = index }()
	return p.Eval(c)
}

// checkRecheck requires every registered verdict to equal evalFresh.
func checkRecheck(t *testing.T, where string, c *Checker) {
	t.Helper()
	for name, rec := range c.policies {
		if want := evalFresh(c, rec.p); rec.verdict != want {
			t.Fatalf("%s: %s recheck verdict %v, Eval over a fresh scan %v", where, name, rec.verdict, want)
		}
	}
}

// checkChains requires, for every walked EC and every device it is
// delivered from, the cached next-hop chain to be the path TracePath
// re-walks through the model.
func checkChains(t *testing.T, where string, c *Checker) {
	t.Helper()
	for ec, r := range snapshot(c) {
		for id, o := range r.outcomes {
			if o.Kind != Delivered {
				continue
			}
			var chain []string
			for dev := apkeep.DevID(id); dev >= 0; dev = r.next[dev] {
				chain = append(chain, c.model.DevName(dev))
			}
			if path := c.TracePath(ec, apkeep.DevID(id)); !reflect.DeepEqual(chain, path) {
				t.Fatalf("%s: EC %d from %s: next-hop chain %v, TracePath %v", where, ec, c.model.DevName(apkeep.DevID(id)), chain, path)
			}
		}
	}
}

// denseHeader carries the test's dense suite.
var denseHeader = dataplane.Match{Dst: netcfg.MustPrefix("10.0.1.0/24")}

// foreign is a policy kind defined outside the package's four: the
// checker rechecks it by its Eval.
type foreign struct{ Reachability }

// recheckPolicies is the oracle mix plus a dense suite (many
// reachability policies, a few waypoints and a foreign kind on one
// header) and policies whose source, late, joins the topology only
// later.
func recheckPolicies(devs []string, late string) []Policy {
	ps := oraclePolicies(devs)
	modes := []ReachMode{ReachAll, ReachSome, ReachNone}
	for i := 0; i < 48; i++ {
		src, dst := devs[i%len(devs)], devs[(i/len(devs)+i+1)%len(devs)]
		ps = append(ps, Reachability{PolicyName: fmt.Sprintf("dense-%02d", i), Src: src, Dst: dst,
			Hdr: denseHeader, Mode: modes[i%len(modes)]})
	}
	for i, dev := range devs {
		ps = append(ps, Waypoint{PolicyName: "dense-via-" + dev, Src: dev, Dst: devs[(i+2)%len(devs)],
			Via: devs[(i+1)%len(devs)], Hdr: denseHeader})
	}
	ps = append(ps, foreign{Reachability{PolicyName: "dense-foreign", Src: devs[1], Dst: devs[3], Hdr: denseHeader, Mode: ReachSome}})
	shared := dataplane.Match{Dst: netcfg.MustPrefix("10.0.0.0/24")}
	for i, mode := range modes {
		ps = append(ps, Reachability{PolicyName: fmt.Sprintf("late-%d", i), Src: late, Dst: late, Hdr: shared, Mode: mode})
	}
	return append(ps, Waypoint{PolicyName: "late-via", Src: late, Dst: devs[0], Via: devs[len(devs)-1], Hdr: shared})
}

// TestRecheckEqualsEval churns seeded rule and filter batches through a
// checker carrying the oracle mix and a dense suite on a ring, and after
// every Update requires each registered verdict, kept by registration
// record and rechecked over its entry's gathered EC results, to equal
// the policy's public Eval over a fresh overlapping scan, and every
// delivered next-hop chain to be TracePath's path. The walk registers
// policies from device f before f joins the ring (step 8, when f also
// starts delivering the shared header), re-registers a dense policy
// under its name onto another header (step 14), drops that header's
// entry (step 22) and re-creates it (step 26).
func TestRecheckEqualsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	devs := []string{"a", "b", "c", "d", "e"}
	model := apkeep.New()
	model.AutoMerge = true
	c := NewChecker(model)
	c.SetTopology(devs, ringAdjs(devs))
	c.Update(nil, nil)
	for _, p := range recheckPolicies(devs, "f") {
		c.AddPolicy(p)
	}
	checkRecheck(t, "registration", c)
	rules := map[dataplane.Rule]bool{}
	filters := map[dataplane.FilterRule]bool{}
	other := dataplane.Match{Dst: netcfg.MustPrefix("10.0.2.0/24")}

	for step := 0; step < 40; step++ {
		where := fmt.Sprintf("step %d", step)
		var joined []dd.Entry[dataplane.Rule]
		switch step {
		case 8: // f joins the ring and delivers the shared header
			devs = append(devs, "f")
			c.SetTopology(devs, ringAdjs(devs))
			r := dataplane.Rule{Device: "f", Prefix: netcfg.MustPrefix("10.0.0.0/24"), Action: dataplane.Deliver, OutIntf: "lo0"}
			joined = append(joined, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
			rules[r] = true
		case 14: // re-register under an existing name, onto another header
			c.AddPolicy(Reachability{PolicyName: "dense-03", Src: "b", Dst: "c", Hdr: other, Mode: ReachSome})
		case 22: // drop the only policy on that header, and its entry
			c.RemovePolicy("dense-03")
			if c.index[other] != nil {
				t.Fatalf("%s: entry for %+v outlived its last policy", where, other)
			}
		case 26: // re-create the entry
			c.AddPolicy(Reachability{PolicyName: "dense-03", Src: "d", Dst: "a", Hdr: other, Mode: ReachAll})
		}
		checkRecheck(t, where+" (registration)", c)

		rb, fb := churn(rng, devs, rules, filters)
		if err := model.UpdateFilters(fb); err != nil {
			t.Fatal(err)
		}
		br, err := model.ApplyBatch(append(joined, rb...), apkeep.InsertFirst)
		if err != nil {
			t.Fatal(err)
		}
		c.Update(br.Transfers, br.FilterTransfers, br.Merges...)
		checkIndex(t, where, c)
		checkRecheck(t, where, c)
		checkChains(t, where, c)
		if v, _ := c.Verdict("late-1"); step == 8 && !v {
			t.Fatalf("%s: late-1 does not see f deliver to itself; the walk does not exercise a late source", where)
		}
	}
}
