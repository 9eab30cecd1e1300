package policy

import (
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// buildManyECModel installs rules for many prefixes across a chain so a
// single Update has a large batch of ECs to walk.
func buildManyECModel(t *testing.T) (*apkeep.Model, []dd.Entry[dataplane.Rule], []string, []dataplane.Adjacency) {
	t.Helper()
	devs := []string{"a", "b", "c", "d"}
	var adjs []dataplane.Adjacency
	for i := 0; i+1 < len(devs); i++ {
		adjs = append(adjs,
			dataplane.Adjacency{Dev: devs[i], LocalIntf: "r", Peer: devs[i+1], PeerIntf: "l"},
			dataplane.Adjacency{Dev: devs[i+1], LocalIntf: "l", Peer: devs[i], PeerIntf: "r"},
		)
	}
	var batch []dd.Entry[dataplane.Rule]
	for p := 0; p < 40; p++ {
		prefix := netcfg.Prefix{Addr: netcfg.MustAddr("10.0.0.0") + netcfg.Addr(p)<<8, Len: 24}
		for i, dev := range devs {
			r := dataplane.Rule{Device: dev, Prefix: prefix}
			if i == len(devs)-1 {
				r.Action = dataplane.Deliver
				r.OutIntf = "lo0"
			} else {
				r.Action = dataplane.Forward
				r.NextHop = devs[i+1]
				r.OutIntf = "r"
			}
			batch = append(batch, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
		}
	}
	return apkeep.New(), batch, devs, adjs
}

// TestParallelMatchesSequential verifies the section-6 parallelization
// produces identical state to the sequential checker.
func TestParallelMatchesSequential(t *testing.T) {
	run := func(par int) *Checker {
		m, batch, devs, adjs := buildManyECModel(t)
		c := NewChecker(m)
		c.SetParallelism(par)
		c.SetTopology(devs, adjs)
		res, err := m.ApplyBatch(batch, apkeep.InsertFirst)
		if err != nil {
			t.Fatal(err)
		}
		c.Update(res.Transfers, res.FilterTransfers)
		// A second, incremental round: retarget half the prefixes on b.
		var mod []dd.Entry[dataplane.Rule]
		for p := 0; p < 20; p++ {
			prefix := netcfg.Prefix{Addr: netcfg.MustAddr("10.0.0.0") + netcfg.Addr(p)<<8, Len: 24}
			mod = append(mod,
				dd.Entry[dataplane.Rule]{Val: dataplane.Rule{Device: "b", Prefix: prefix, Action: dataplane.Forward, NextHop: "c", OutIntf: "r"}, Diff: -1},
				dd.Entry[dataplane.Rule]{Val: dataplane.Rule{Device: "b", Prefix: prefix, Action: dataplane.Drop}, Diff: 1},
			)
		}
		res, err = m.ApplyBatch(mod, apkeep.InsertFirst)
		if err != nil {
			t.Fatal(err)
		}
		c.Update(res.Transfers, res.FilterTransfers)
		return c
	}
	seq := run(1)
	par := run(8)

	if seq.NumPairs() != par.NumPairs() {
		t.Fatalf("pairs: seq %d, par %d", seq.NumPairs(), par.NumPairs())
	}
	for p, set := range seq.pairs {
		pset := par.pairs[p]
		if len(pset) != len(set) {
			t.Errorf("pair %v: seq %d ECs, par %d", p, len(set), len(pset))
		}
	}
	if len(seq.ecs) != len(par.ecs) {
		t.Fatalf("ec results: seq %d, par %d", len(seq.ecs), len(par.ecs))
	}
	for ec, r := range seq.ecs {
		pr := par.ecs[ec]
		if pr == nil {
			t.Fatalf("parallel checker missing EC result")
		}
		for dev, o := range r.outcomes {
			if pr.outcomes[dev] != o {
				t.Errorf("outcome(%v, %d): seq %+v, par %+v", ec, dev, o, pr.outcomes[dev])
			}
		}
	}
}

// TestParallelRaceSafety runs a parallel update under the race detector
// (meaningful when the suite runs with -race).
func TestParallelRaceSafety(t *testing.T) {
	m, batch, devs, adjs := buildManyECModel(t)
	c := NewChecker(m)
	c.SetParallelism(4)
	c.SetTopology(devs, adjs)
	res, err := m.ApplyBatch(batch, apkeep.InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	out := c.Update(res.Transfers, res.FilterTransfers)
	if out.AffectedECs == 0 {
		t.Fatal("no ECs walked")
	}
}
