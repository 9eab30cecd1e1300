package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
)

// ringAdjs wires devices into a bidirectional ring (mirrors the policy
// package's differential-test topology).
func ringAdjs(devs []string) []dataplane.Adjacency {
	var out []dataplane.Adjacency
	for i := range devs {
		next := devs[(i+1)%len(devs)]
		out = append(out,
			dataplane.Adjacency{Dev: devs[i], LocalIntf: "r", Peer: next, PeerIntf: "l"},
			dataplane.Adjacency{Dev: next, LocalIntf: "l", Peer: devs[i], PeerIntf: "r"},
		)
	}
	return out
}

// diffPrefixes mixes shardable prefixes (>= /24, landing on one shard)
// with broadcast ones (aggregates and a default route) so batches
// exercise both routing paths.
var diffPrefixes = []string{
	"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24", "10.0.4.0/24",
	"192.168.5.0/24", "10.0.1.64/26", "10.0.2.0/30",
	"10.0.0.0/8", "192.168.0.0/16", "0.0.0.0/0",
}

func randomRule(rng *rand.Rand, devs []string) dataplane.Rule {
	r := dataplane.Rule{
		Device: devs[rng.Intn(len(devs))],
		Prefix: netcfg.MustPrefix(diffPrefixes[rng.Intn(len(diffPrefixes))]),
	}
	switch rng.Intn(4) {
	case 0:
		r.Action = dataplane.Deliver
		r.OutIntf = "lo0"
	case 1:
		r.Action = dataplane.Drop
	default:
		r.Action = dataplane.Forward
		r.NextHop = devs[rng.Intn(len(devs))]
		r.OutIntf = []string{"l", "r"}[rng.Intn(2)]
	}
	return r
}

func randomFilter(rng *rand.Rand, devs []string) dataplane.FilterRule {
	f := dataplane.FilterRule{
		Device: devs[rng.Intn(len(devs))],
		Intf:   []string{"l", "r"}[rng.Intn(2)],
		Dir:    dataplane.Direction(rng.Intn(2)),
	}
	if rng.Intn(2) == 0 {
		f.Seq = 10
		f.Action = netcfg.Deny
		f.Match = dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22}
	} else {
		f.Seq = 20
		f.Action = netcfg.Permit
		f.Match = dataplane.MatchAll
	}
	return f
}

// diffPolicies builds a policy suite covering every type and join mode
// over headers in h: per-prefix reachability in all three modes,
// waypointing, and the universal loop/blackhole invariants.
func diffPolicies(devs []string) []policy.Policy {
	ps := []policy.Policy{
		policy.LoopFree{PolicyName: "no-loops", Scope: dataplane.MatchAll},
		policy.BlackholeFree{PolicyName: "no-blackholes", Scope: dataplane.Match{Dst: netcfg.MustPrefix("10.0.0.0/22")}},
		policy.Waypoint{PolicyName: "via-c", Src: devs[0], Dst: devs[3], Via: devs[2],
			Hdr: dataplane.Match{Dst: netcfg.MustPrefix("10.0.2.0/24")}},
	}
	modes := []policy.ReachMode{policy.ReachAll, policy.ReachSome, policy.ReachNone}
	for i, pfx := range []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24", "192.168.0.0/16"} {
		ps = append(ps, policy.Reachability{
			PolicyName: fmt.Sprintf("reach-%d", i),
			Src:        devs[i%len(devs)],
			Dst:        devs[(i+2)%len(devs)],
			Hdr:        dataplane.Match{Dst: netcfg.MustPrefix(pfx)},
			Mode:       modes[i%len(modes)],
		})
	}
	return ps
}

// eventNames extracts the flipped-policy names of one polarity, sorted.
func eventNames(events []policy.PolicyEvent, satisfied bool) []string {
	out := []string{}
	for _, e := range events {
		if e.Satisfied == satisfied {
			out = append(out, e.Policy)
		}
	}
	sort.Strings(out)
	return out
}

// TestSetDifferential churns random rule/filter batches through shard
// sets at several counts alongside a monolithic model+checker oracle:
// after every batch, the joined verdicts and the verdict-flip events
// (violations and repairs) must match the oracle's exactly, for every
// seed × shard-count combination.
func TestSetDifferential(t *testing.T) {
	devs := []string{"a", "b", "c", "d", "e"}
	adjs := ringAdjs(devs)

	for _, seed := range []int64{1, 7, 42} {
		for _, n := range []int{2, 3, 5} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))

				// Oracle: one monolithic model + checker.
				om := apkeep.New()
				om.AutoMerge = true
				oc := policy.NewChecker(om)
				oc.SetTopology(devs, adjs)
				oc.Update(nil, nil)
				for _, p := range diffPolicies(devs) {
					oc.AddPolicy(p)
				}

				// Subject: an n-way set fed the same policy values.
				// Prime it with an empty apply (the
				// Load-before-AddPolicy order every engine follows) so
				// its checkers hold outcomes like the oracle's.
				set := NewSet(n, 0)
				if _, err := set.UpdateModel(nil, nil, apkeep.InsertFirst); err != nil {
					t.Fatal(err)
				}
				set.Check(nil, devs, adjs)
				for _, p := range diffPolicies(devs) {
					set.AddPolicy(p)
				}
				if got, want := set.Verdicts(), oc.Verdicts(); !reflect.DeepEqual(got, want) {
					t.Fatalf("initial verdicts = %v, want %v", got, want)
				}

				installedRules := map[dataplane.Rule]bool{}
				installedFilters := map[dataplane.FilterRule]bool{}
				for step := 0; step < 30; step++ {
					var rules []dd.Entry[dataplane.Rule]
					var filters []dd.Entry[dataplane.FilterRule]
					for k := 1 + rng.Intn(4); k > 0; k-- {
						if rng.Intn(4) == 0 {
							f := randomFilter(rng, devs)
							if installedFilters[f] {
								filters = append(filters, dd.Entry[dataplane.FilterRule]{Val: f, Diff: -1})
								delete(installedFilters, f)
							} else {
								filters = append(filters, dd.Entry[dataplane.FilterRule]{Val: f, Diff: 1})
								installedFilters[f] = true
							}
							continue
						}
						r := randomRule(rng, devs)
						if installedRules[r] {
							rules = append(rules, dd.Entry[dataplane.Rule]{Val: r, Diff: -1})
							delete(installedRules, r)
						} else {
							conflict := false
							for ex := range installedRules {
								if ex.Device == r.Device && ex.Prefix == r.Prefix {
									conflict = true
								}
							}
							if conflict {
								continue
							}
							rules = append(rules, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
							installedRules[r] = true
						}
					}

					om.UpdateFilters(filters)
					br, err := om.ApplyBatch(rules, apkeep.InsertFirst)
					if err != nil {
						t.Fatal(err)
					}
					ores := oc.Update(br.Transfers, br.FilterTransfers, br.Merges...)

					sbatch, err := set.UpdateModel(rules, filters, apkeep.InsertFirst)
					if err != nil {
						t.Fatal(err)
					}
					sres := set.Check(sbatch, devs, adjs)

					if got, want := set.Verdicts(), oc.Verdicts(); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: verdicts = %v, want %v", step, got, want)
					}
					for _, sat := range []bool{false, true} {
						if got, want := eventNames(sres.Events, sat), eventNames(ores.Events, sat); !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d: events(satisfied=%v) = %v, want %v", step, sat, got, want)
						}
					}
				}
			})
		}
	}
}
