package policy

import (
	"reflect"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// wire returns both directions of a point-to-point adjacency.
func wire(a, aIntf, b, bIntf string) []dataplane.Adjacency {
	return []dataplane.Adjacency{
		{Dev: a, LocalIntf: aIntf, Peer: b, PeerIntf: bIntf},
		{Dev: b, LocalIntf: bIntf, Peer: a, PeerIntf: aIntf},
	}
}

func fwd(dev, prefix, next, intf string) dataplane.Rule {
	return dataplane.Rule{Device: dev, Prefix: netcfg.MustPrefix(prefix), Action: dataplane.Forward, NextHop: next, OutIntf: intf}
}

func deliver(dev, prefix string) dataplane.Rule {
	return dataplane.Rule{Device: dev, Prefix: netcfg.MustPrefix(prefix), Action: dataplane.Deliver, OutIntf: "lo0"}
}

func entries(diff dd.Diff, rules ...dataplane.Rule) []dd.Entry[dataplane.Rule] {
	out := make([]dd.Entry[dataplane.Rule], len(rules))
	for i, r := range rules {
		out[i] = dd.Entry[dataplane.Rule]{Val: r, Diff: diff}
	}
	return out
}

// TestTopologyChangeEqualsRebuild changes the device set after the first
// Update: line a-b-c-d loses d and gains e behind c. The incremental
// checker must then agree with a checker rebuilt on the final topology
// over the same model, at every live device: every EC's outcome
// (including the ECs no rule change touched, which e drops), the pair
// map and every verdict. Device ids are append-only, so the removed d
// keeps its id; a next hop with no adjacency, whether never a device
// (ghost) or no longer one (d), still drops at that name.
func TestTopologyChangeEqualsRebuild(t *testing.T) {
	m := apkeep.New()
	m.AutoMerge = true
	const p1, p2, p3, p4, p6 = "10.1.0.0/24", "10.2.0.0/24", "10.3.0.0/24", "10.4.0.0/24", "10.6.0.0/24"
	initial := []dataplane.Rule{
		fwd("a", p1, "b", "eth0"), fwd("b", p1, "c", "eth1"), deliver("c", p1), fwd("d", p1, "c", "eth0"),
		fwd("a", p2, "b", "eth0"), fwd("b", p2, "c", "eth1"), fwd("c", p2, "d", "eth1"), deliver("d", p2),
		fwd("a", p3, "ghost", "eth9"),
		deliver("a", p4), fwd("b", p4, "a", "eth0"), fwd("c", p4, "b", "eth0"), fwd("d", p4, "c", "eth0"),
	}
	if _, err := m.ApplyBatch(entries(1, initial...), apkeep.InsertFirst); err != nil {
		t.Fatal(err)
	}
	line := append(wire("a", "eth0", "b", "eth0"), wire("b", "eth1", "c", "eth0")...)
	c := NewChecker(m)
	c.SetTopology([]string{"d", "c", "b", "a"}, append(line, wire("c", "eth1", "d", "eth0")...))
	c.Update(nil, nil)
	ps := []Policy{
		Reachability{PolicyName: "a-c", Src: "a", Dst: "c", Hdr: dataplane.Match{Dst: netcfg.MustPrefix(p1)}, Mode: ReachAll},
		Reachability{PolicyName: "a-d", Src: "a", Dst: "d", Hdr: dataplane.Match{Dst: netcfg.MustPrefix(p2)}, Mode: ReachAll},
		Reachability{PolicyName: "a-e", Src: "a", Dst: "e", Hdr: dataplane.Match{Dst: netcfg.MustPrefix(p2)}, Mode: ReachAll},
		Waypoint{PolicyName: "a-c-via-b", Src: "a", Dst: "c", Via: "b", Hdr: dataplane.Match{Dst: netcfg.MustPrefix(p1)}},
		LoopFree{PolicyName: "no-loops", Scope: dataplane.MatchAll},
		BlackholeFree{PolicyName: "p1-whole", Scope: dataplane.Match{Dst: netcfg.MustPrefix(p1)}},
		BlackholeFree{PolicyName: "p4-whole", Scope: dataplane.Match{Dst: netcfg.MustPrefix(p4)}},
	}
	for _, p := range ps {
		c.AddPolicy(p)
	}

	// d leaves with its rules; e joins behind c, delivers p2 and sends
	// p1 back to c, and has no rule for p3 or p4; b sends p6 to d by name.
	batch := append(entries(-1, fwd("d", p1, "c", "eth0"), deliver("d", p2), fwd("d", p4, "c", "eth0"), fwd("c", p2, "d", "eth1")),
		entries(1, fwd("c", p2, "e", "eth2"), deliver("e", p2), fwd("e", p1, "c", "eth0"), fwd("b", p6, "d", "eth7"))...)
	br, err := m.ApplyBatch(batch, apkeep.InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	final := []string{"a", "b", "c", "e"}
	finalAdjs := append(line, wire("c", "eth2", "e", "eth0")...)
	c.SetTopology(final, finalAdjs)
	c.Update(br.Transfers, br.FilterTransfers, br.Merges...)

	fresh := NewChecker(m)
	fresh.SetTopology(final, finalAdjs)
	fresh.Update(nil, nil)
	for _, p := range ps {
		fresh.AddPolicy(p)
	}

	for ec := range m.ECs() {
		for _, dev := range final {
			got, gotOK := c.OutcomeOf(ec, dev)
			want, wantOK := fresh.OutcomeOf(ec, dev)
			if got != want || gotOK != wantOK {
				t.Errorf("OutcomeOf(%d, %s) = %+v %v, rebuilt %+v %v", ec, dev, got, gotOK, want, wantOK)
			}
		}
		if o, ok := c.OutcomeOf(ec, "ghost"); ok {
			t.Errorf("OutcomeOf(%d, ghost) = %+v for a name never in the topology", ec, o)
		}
	}
	for _, src := range final {
		for _, dst := range final {
			if got, want := c.PairECs(src, dst), fresh.PairECs(src, dst); !reflect.DeepEqual(got, want) {
				t.Errorf("PairECs(%s, %s) = %v, rebuilt %v", src, dst, got, want)
			}
		}
	}
	if c.NumPairs() != fresh.NumPairs() {
		t.Errorf("NumPairs = %d, rebuilt %d", c.NumPairs(), fresh.NumPairs())
	}
	if got, want := c.Verdicts(), fresh.Verdicts(); !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts = %v, rebuilt %v", got, want)
	}

	probe := func(dst string) bdd.Node { return ecFor(t, m, bdd.Packet{Dst: netcfg.MustAddr(dst)}) }
	for _, tc := range []struct {
		dst, src string
		want     Outcome
	}{
		{"10.3.0.1", "a", Outcome{Kind: Dropped, At: "ghost"}},
		{"10.6.0.1", "b", Outcome{Kind: Dropped, At: "d"}},
		{"10.3.0.1", "e", Outcome{Kind: Dropped, At: "e"}},
		{"10.2.0.1", "a", Outcome{Kind: Delivered, At: "e"}},
	} {
		if o, ok := c.OutcomeOf(probe(tc.dst), tc.src); !ok || o != tc.want {
			t.Errorf("OutcomeOf(%s from %s) = %+v %v, want %+v", tc.dst, tc.src, o, ok, tc.want)
		}
	}
}
