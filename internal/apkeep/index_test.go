package apkeep

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// --- property test: indexed paths agree with the full-scan references -------

// randomPrefix draws from a pool dense enough that prefixes nest,
// shadow, and collide across devices.
func randomPrefix(rng *rand.Rand) netcfg.Prefix {
	lens := []uint8{8, 16, 24, 28, 32}
	ln := lens[rng.Intn(len(lens))]
	addr := netcfg.MustAddr("10.0.0.0") + netcfg.Addr(rng.Intn(4)<<16|rng.Intn(4)<<8|rng.Intn(4))
	p := netcfg.Prefix{Addr: addr, Len: ln}
	p.Addr &= p.Mask()
	return p
}

func randomRule(rng *rand.Rand) dataplane.Rule {
	return dataplane.Rule{
		Device:  fmt.Sprintf("d%d", rng.Intn(3)),
		Prefix:  randomPrefix(rng),
		Action:  dataplane.Forward,
		NextHop: fmt.Sprintf("n%d", rng.Intn(3)),
		OutIntf: "e0",
	}
}

func randomPacket(rng *rand.Rand) bdd.Packet {
	return bdd.Packet{
		Dst:     netcfg.MustAddr("10.0.0.0") + netcfg.Addr(rng.Intn(1<<20)),
		Src:     netcfg.Addr(rng.Uint32()),
		Proto:   netcfg.ProtoTCP,
		DstPort: uint16(rng.Intn(1 << 16)),
	}
}

// verifyAgainstReference cross-checks every indexed query against its
// full-scan oracle and the structural invariants.
func verifyAgainstReference(t *testing.T, m *Model, rng *rand.Rand, step int) {
	t.Helper()
	if err := m.CheckPartition(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if err := m.CheckIndex(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	for i := 0; i < 16; i++ {
		pkt := randomPacket(rng)
		for _, ds := range m.devs {
			dev := ds.name
			got, want := m.Lookup(dev, pkt), m.refLookup(dev, pkt)
			if got != want {
				t.Fatalf("step %d: Lookup(%s, %v) = %v, reference %v", step, dev, pkt, got, want)
			}
		}
	}
	for i := 0; i < 16; i++ {
		p := randomPrefix(rng)
		for i := range m.devs {
			dev, ds := m.devs[i].name, &m.devs[i]
			eff := m.effective(ds, p)
			if ref := m.refEffective(ds, p); eff != ref {
				t.Fatalf("step %d: effective(%s, %s) disagrees with reference", step, dev, p)
			}
			if got, want := m.owner(ds, p), m.refOwner(ds, p); got != want {
				t.Fatalf("step %d: owner(%s, %s) = %v, reference %v", step, dev, p, got, want)
			}
		}
	}
}

// TestIndexedModelMatchesReference drives a random insert/delete/batch/
// filter/merge sequence and demands the indexed split/Lookup/owner
// results stay identical to the pre-index full-scan implementations.
func TestIndexedModelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New()
	var installed []dataplane.Rule
	steps := 240
	if testing.Short() {
		steps = 80
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // single insertion
			r := randomRule(rng)
			m.InsertRule(r)
			installed = append(installed, r)
		case op < 8 && len(installed) > 0: // single deletion
			i := rng.Intn(len(installed))
			r := installed[i]
			installed = append(installed[:i], installed[i+1:]...)
			if err := m.DeleteRule(r); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op == 8: // batch: a few inserts and deletes together
			var batch []dd.Entry[dataplane.Rule]
			// Pick the delete victim among rules installed BEFORE this
			// batch: a same-batch insert may be sequenced after the
			// delete under DeleteFirst.
			if len(installed) > 2 {
				i := rng.Intn(len(installed))
				r := installed[i]
				installed = append(installed[:i], installed[i+1:]...)
				batch = append(batch, dd.Entry[dataplane.Rule]{Val: r, Diff: -1})
			}
			for n := rng.Intn(4); n >= 0; n-- {
				r := randomRule(rng)
				batch = append(batch, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
				installed = append(installed, r)
			}
			order := InsertFirst
			if rng.Intn(2) == 1 {
				order = DeleteFirst
			}
			if _, err := m.ApplyBatch(batch, order); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case op == 9: // filter churn: unhinted splits through the index
			fr := dataplane.FilterRule{
				Device: "d0", Intf: "e0", Dir: dataplane.In,
				Seq: 10 + rng.Intn(3)*10, Action: netcfg.Deny,
				Match: dataplane.Match{Proto: netcfg.ProtoTCP,
					DstPortLo: uint16(20 + rng.Intn(3)), DstPortHi: uint16(25 + rng.Intn(3))},
			}
			diff := dd.Diff(1)
			if rng.Intn(2) == 1 {
				diff = -1
			}
			// Deleting an absent line is a no-op in UpdateFilters; fine.
			m.UpdateFilters([]dd.Entry[dataplane.FilterRule]{{Val: fr, Diff: diff}})
		}
		if rng.Intn(4) == 0 {
			m.MergeECs()
		}
		if step%20 == 19 || step == steps-1 {
			verifyAgainstReference(t, m, rng, step)
		}
	}
}

// TestAutoMergeKeepsIndexConsistent exercises the merge path under
// AutoMerge, where classes collapse while the index must follow.
func TestAutoMergeKeepsIndexConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := New()
	m.AutoMerge = true
	var batch []dd.Entry[dataplane.Rule]
	for i := 0; i < 30; i++ {
		batch = append(batch, dd.Entry[dataplane.Rule]{Val: randomRule(rng), Diff: 1})
	}
	if _, err := m.ApplyBatch(batch, InsertFirst); err != nil {
		t.Fatal(err)
	}
	// Remove everything again: the partition should re-minimize and the
	// index must stay exact throughout.
	for _, e := range batch {
		if _, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: e.Val, Diff: -1}}, InsertFirst); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckIndex(); err != nil {
			t.Fatal(err)
		}
	}
	if m.NumECs() != 1 {
		t.Fatalf("after removing all rules, %d ECs remain (want 1)", m.NumECs())
	}
	verifyAgainstReference(t, m, rng, -1)
}

// --- op-counter test: updates touch candidates, not the partition -----------

// TestSplitExaminesCandidatesOnly is the acceptance check for the
// destination index: a rule update confined to one /24 must examine a
// candidate set bounded by the rule's footprint, not the partition.
func TestSplitExaminesCandidatesOnly(t *testing.T) {
	m := New()
	// 40 devices x 100 prefixes: a few hundred ECs. One rule per batch:
	// in one batch a device's adjacent /24s move as a few blocks.
	for _, e := range fibBatch(40, 100) {
		if _, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{e}, InsertFirst); err != nil {
			t.Fatal(err)
		}
	}
	total := m.NumECs()
	if total < 100 {
		t.Fatalf("warm model too small: %d ECs", total)
	}
	m.ResetOps()
	p := netcfg.MustPrefix("10.0.7.0/24")
	mod := []dd.Entry[dataplane.Rule]{
		{Val: dataplane.Rule{Device: "d003", Prefix: p, Action: dataplane.Forward, NextHop: "d004", OutIntf: "e0"}, Diff: -1},
		{Val: dataplane.Rule{Device: "d003", Prefix: p, Action: dataplane.Forward, NextHop: "d020", OutIntf: "e0"}, Diff: 1},
	}
	if _, err := m.ApplyBatch(mod, InsertFirst); err != nil {
		t.Fatal(err)
	}
	ops := m.Ops()
	if ops.SplitFull != 0 {
		t.Errorf("rule update fell back to %d full-partition scans", ops.SplitFull)
	}
	if ops.SplitCalls == 0 {
		t.Fatal("update performed no splits; counter broken?")
	}
	// The /24 holds a handful of ECs; allow generous slack but demand
	// candidates stay far below the partition size.
	if ops.SplitCandidates >= total/4 {
		t.Errorf("split examined %d candidate ECs with %d-EC partition; index not narrowing", ops.SplitCandidates, total)
	}
	t.Logf("partition %d ECs; update examined %d candidates over %d splits", total, ops.SplitCandidates, ops.SplitCalls)
}

// --- typed delete error ------------------------------------------------------

func TestDeleteAbsentRuleTyped(t *testing.T) {
	m := New()
	r := dataplane.Rule{Device: "d0", Prefix: netcfg.MustPrefix("10.0.0.0/24"),
		Action: dataplane.Forward, NextHop: "n1", OutIntf: "e0"}
	err := m.DeleteRule(r)
	if !errors.Is(err, ErrAbsentRule) {
		t.Fatalf("DeleteRule of absent rule = %v, want ErrAbsentRule", err)
	}
	m.InsertRule(r)
	if err := m.DeleteRule(r); err != nil {
		t.Fatalf("DeleteRule of present rule: %v", err)
	}
	if err := m.DeleteRule(r); !errors.Is(err, ErrAbsentRule) {
		t.Fatalf("second DeleteRule = %v, want ErrAbsentRule", err)
	}
	// ApplyBatch surfaces the same typed error.
	_, err = m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: r, Diff: -1}}, InsertFirst)
	if !errors.Is(err, ErrAbsentRule) {
		t.Fatalf("ApplyBatch delete of absent rule = %v, want ErrAbsentRule", err)
	}
}

// --- prefix trie unit coverage ----------------------------------------------

func TestPrefixTrieQueries(t *testing.T) {
	var tr prefixTrie
	put := func(s string, port Port) {
		p := netcfg.MustPrefix(s)
		tr.set(p, append(tr.get(p), port))
	}
	pA := Port{Action: dataplane.Forward, NextHop: "a"}
	pB := Port{Action: dataplane.Forward, NextHop: "b"}
	pC := Port{Action: dataplane.Forward, NextHop: "c"}
	put("10.0.0.0/8", pA)
	put("10.1.0.0/16", pB)
	put("10.1.2.0/24", pC)
	put("10.1.3.0/24", pC)

	for _, tc := range []struct {
		p, owner string
		port     Port
	}{
		{"10.1.2.0/24", "10.1.0.0/16", pB},
		{"10.2.0.0/16", "10.0.0.0/8", pA},
		{"10.1.2.7/32", "10.1.2.0/24", pC},
	} {
		got, q := tr.owner(netcfg.MustPrefix(tc.p))
		if len(got) == 0 || got[len(got)-1] != tc.port || q != netcfg.MustPrefix(tc.owner) {
			t.Errorf("owner(%s) = %v at %v, want %v at %s", tc.p, got, q, tc.port, tc.owner)
		}
	}
	if got, _ := tr.owner(netcfg.MustPrefix("11.0.0.0/8")); got != nil {
		t.Errorf("owner(11.0.0.0/8) = %v, want none", got)
	}

	var longer []netcfg.Prefix
	tr.longerWithin(netcfg.MustPrefix("10.1.0.0/16"), func(q netcfg.Prefix, _ []Port) bool {
		longer = append(longer, q)
		return true
	})
	if len(longer) != 2 {
		t.Errorf("longerWithin(10.1.0.0/16) = %v, want the two /24s", longer)
	}
	for _, q := range longer {
		if q.Len != 24 {
			t.Errorf("longerWithin yielded %s, want only /24s", q)
		}
	}

	// hasLonger agrees with longerWithin, with or without rules at p.
	for p, want := range map[string]bool{"10.1.0.0/16": true, "10.0.0.0/8": true, "10.1.0.0/17": true,
		"10.1.2.0/24": false, "10.1.4.0/24": false, "10.1.2.0/23": true, "10.1.2.0/25": false, "11.0.0.0/8": false} {
		if got := tr.hasLonger(netcfg.MustPrefix(p)); got != want {
			t.Errorf("hasLonger(%s) = %v, want %v", p, got, want)
		}
	}

	// Early stop is honored.
	n := 0
	tr.longerWithin(netcfg.MustPrefix("10.0.0.0/8"), func(netcfg.Prefix, []Port) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("longerWithin visited %d prefixes after stop, want 1", n)
	}

	// Remove prunes; queries keep working.
	tr.remove(netcfg.MustPrefix("10.1.0.0/16"))
	if got, _ := tr.owner(netcfg.MustPrefix("10.1.2.0/24")); len(got) == 0 || got[len(got)-1] != pA {
		t.Errorf("owner after remove = %v, want %v", got, pA)
	}
	if tr.get(netcfg.MustPrefix("10.1.0.0/16")) != nil {
		t.Error("get after remove should be nil")
	}
	count := 0
	tr.walk(func(netcfg.Prefix, []Port) { count++ })
	if count != 3 {
		t.Errorf("walk visited %d prefixes, want 3", count)
	}
}
