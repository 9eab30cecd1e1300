package shard

import (
	"reflect"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
)

// TestSetReRegistration registers a policy on one /24, re-registers the
// same name on a /24 owned by another shard, then removes it. The
// re-registration must leave no copy on the first shard, the removal
// none anywhere, and the joined verdicts must match a monolithic
// checker at every step.
func TestSetReRegistration(t *testing.T) {
	devs := []string{"a", "b", "c", "d", "e"}
	adjs := ringAdjs(devs)
	set := NewSet(2, 0)
	first, second := netcfg.MustPrefix("10.0.0.0/24"), netcfg.MustPrefix("10.0.1.0/24")
	i, j := set.Partition().ShardFor(first), set.Partition().ShardFor(second)
	if i == j {
		t.Fatalf("fixture prefixes share shard %d", i)
	}

	// a -> b -> c delivers the first /24; the second is dropped at b.
	fwd := func(dev, next string, pfx netcfg.Prefix) dataplane.Rule {
		return dataplane.Rule{Device: dev, Prefix: pfx, Action: dataplane.Forward, NextHop: next, OutIntf: "r"}
	}
	var rules []dd.Entry[dataplane.Rule]
	for _, r := range []dataplane.Rule{
		fwd("a", "b", first), fwd("b", "c", first),
		{Device: "c", Prefix: first, Action: dataplane.Deliver, OutIntf: "lo0"},
		fwd("a", "b", second),
		{Device: "b", Prefix: second, Action: dataplane.Drop},
	} {
		rules = append(rules, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
	}

	om := apkeep.New()
	om.AutoMerge = true
	oc := policy.NewChecker(om)
	oc.SetTopology(devs, adjs)
	br, err := om.ApplyBatch(rules, apkeep.InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	oc.Update(br.Transfers, br.FilterTransfers, br.Merges...)
	batch, err := set.UpdateModel(rules, nil, apkeep.InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	set.Check(batch, devs, adjs)

	reach := func(pfx netcfg.Prefix) policy.Policy {
		return policy.Reachability{PolicyName: "p", Src: "a", Dst: "c",
			Hdr: dataplane.Match{Dst: pfx}, Mode: policy.ReachAll}
	}
	holders := func() []int {
		var out []int
		for _, u := range set.Units() {
			for _, p := range u.Checker.Policies() {
				if p.Name() == "p" {
					out = append(out, u.Index)
				}
			}
		}
		return out
	}
	check := func(step string, want []int) {
		t.Helper()
		if got, want := set.Verdicts(), oc.Verdicts(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: verdicts = %v, oracle %v", step, got, want)
		}
		if got := holders(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: units holding p = %v, want %v", step, got, want)
		}
	}

	oc.AddPolicy(reach(first))
	if !set.AddPolicy(reach(first)) {
		t.Error("p on the delivered /24 should hold")
	}
	check("register on first /24", []int{i})

	oc.AddPolicy(reach(second))
	if set.AddPolicy(reach(second)) {
		t.Error("p on the dropped /24 should fail")
	}
	check("re-register on second /24", []int{j})

	set.RemovePolicy("p")
	oc.RemovePolicy("p")
	check("remove", nil)
}
