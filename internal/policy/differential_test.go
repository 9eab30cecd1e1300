package policy

import (
	"math/rand"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// ringAdjs wires the devices into a bidirectional ring for filter
// ingress lookups.
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

// randomRule picks a forwarding/deliver/drop rule over a small prefix
// and device pool.
func randomRule(rng *rand.Rand, devs []string) dataplane.Rule {
	prefixes := []string{"10.0.0.0/8", "10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "192.168.0.0/16", "0.0.0.0/0"}
	r := dataplane.Rule{
		Device: devs[rng.Intn(len(devs))],
		Prefix: netcfg.MustPrefix(prefixes[rng.Intn(len(prefixes))]),
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

// randomFilter picks a deny-SSH or deny-subnet line plus permit-all on a
// random binding.
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

// TestCheckerIncrementalEqualsRebuild churns random rule and filter
// batches through one incrementally-maintained checker and, after every
// batch, rebuilds a fresh model+checker from the accumulated state and
// compares outcomes and pair maps exactly.
func TestCheckerIncrementalEqualsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	devs := []string{"a", "b", "c", "d", "e"}
	adjs := ringAdjs(devs)

	for trial := 0; trial < 3; trial++ {
		model := apkeep.New()
		model.AutoMerge = trial%2 == 0 // exercise both modes
		inc := NewChecker(model)
		inc.SetTopology(devs, adjs)
		inc.Update(nil, nil)

		installedRules := map[dataplane.Rule]bool{}
		installedFilters := map[dataplane.FilterRule]bool{}

		for step := 0; step < 25; step++ {
			var rules []dd.Entry[dataplane.Rule]
			var filters []dd.Entry[dataplane.FilterRule]
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if rng.Intn(4) == 0 { // filter churn
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
					// Avoid two rules for the same (device, prefix): the
					// FIB never produces that in a converged state.
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
			model.UpdateFilters(filters)
			br, err := model.ApplyBatch(rules, apkeep.InsertFirst)
			if err != nil {
				t.Fatal(err)
			}
			inc.Update(br.Transfers, br.FilterTransfers, br.Merges...)

			// Fresh rebuild from accumulated state.
			fmodel := apkeep.New()
			var frules []dd.Entry[dataplane.Rule]
			for r := range installedRules {
				frules = append(frules, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
			}
			var ffilters []dd.Entry[dataplane.FilterRule]
			for f := range installedFilters {
				ffilters = append(ffilters, dd.Entry[dataplane.FilterRule]{Val: f, Diff: 1})
			}
			fmodel.UpdateFilters(ffilters)
			if _, err := fmodel.ApplyBatch(frules, apkeep.InsertFirst); err != nil {
				t.Fatal(err)
			}
			fresh := NewChecker(fmodel)
			fresh.SetTopology(devs, adjs)
			fresh.Update(nil, nil)

			comparePairMaps(t, trial, step, inc, fresh)
			compareOutcomesByPacket(t, trial, step, inc, fresh, devs, rng)
		}
	}
}

// comparePairMaps compares the (src,dst) delivery maps semantically: the
// set of pairs must match; EC identities may differ between checkers.
func comparePairMaps(t *testing.T, trial, step int, a, b *Checker) {
	t.Helper()
	if a.NumPairs() != b.NumPairs() {
		t.Fatalf("trial %d step %d: pairs %d vs %d", trial, step, a.NumPairs(), b.NumPairs())
	}
	for p := range a.pairs {
		if _, ok := b.pairs[p]; !ok {
			t.Fatalf("trial %d step %d: pair %v only in incremental checker", trial, step, p)
		}
	}
}

// compareOutcomesByPacket probes concrete packets: the EC partitions may
// differ in shape, but every packet's fate from every device must agree.
func compareOutcomesByPacket(t *testing.T, trial, step int, a, b *Checker, devs []string, rng *rand.Rand) {
	t.Helper()
	probes := []netcfg.Addr{
		netcfg.MustAddr("10.0.0.1"), netcfg.MustAddr("10.0.1.1"), netcfg.MustAddr("10.0.2.1"),
		netcfg.MustAddr("10.0.3.1"), netcfg.MustAddr("192.168.0.1"), netcfg.MustAddr("8.8.8.8"),
	}
	protos := []netcfg.IPProto{netcfg.ProtoIPAny, netcfg.ProtoTCP}
	for _, dst := range probes {
		for _, proto := range protos {
			pkt := bdd.Packet{Dst: dst, Proto: proto}
			if proto == netcfg.ProtoTCP {
				pkt.DstPort = 22
			}
			ecA, ecB := ecContaining(a, pkt), ecContaining(b, pkt)
			for _, src := range devs {
				oa, okA := a.OutcomeOf(ecA, src)
				ob, okB := b.OutcomeOf(ecB, src)
				if okA != okB || (okA && oa != ob) {
					t.Fatalf("trial %d step %d: outcome(%v from %s): inc=%+v(%v) fresh=%+v(%v)",
						trial, step, pkt, src, oa, okA, ob, okB)
				}
			}
		}
	}
	_ = rng
}

// ecContaining finds the checker's EC containing a concrete packet.
func ecContaining(c *Checker, pkt bdd.Packet) bdd.Node {
	for cand := range c.model.ECs() {
		if c.model.ContainsPacket(cand, pkt) {
			return cand
		}
	}
	return bdd.False
}
