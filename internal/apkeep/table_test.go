package apkeep

import (
	"math/rand"
	"slices"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// TestRetiredIDsWaitForRelease churns seeded batches of rule and filter
// updates through a model whose churn is read, as the policy checker
// reads it, and holds the EC table to its id lifetime rule: within a
// batch no id is born twice or retired twice, no retired id is handed
// out again, and every id a transfer or merge names was live during the
// batch; only Release frees the retired ids, and the table then reuses
// them, so it stays within the live partition plus one batch's churn.
func TestRetiredIDsWaitForRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New()
	m.AutoMerge = true
	m.Churn() // a reader: retired ids wait for Release
	devs := []string{"r1", "r2", "r3"}
	prefixes := []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/16", "192.168.0.0/16"}
	nhs := []string{"a", "b", "drop"}
	installed := map[dataplane.Rule]bool{}
	deny := filterRule("r2", "eth0", dataplane.In, 10, netcfg.Deny,
		dataplane.Match{Proto: netcfg.ProtoTCP, Dst: netcfg.MustPrefix("10.1.0.0/16"), DstPortLo: 22, DstPortHi: 22})
	permit := filterRule("r2", "eth0", dataplane.In, 20, netcfg.Permit, dataplane.MatchAll)
	bound, peak := false, 0
	for round := 0; round < 120; round++ {
		if round%15 == 0 {
			diff := int64(1)
			if bound {
				diff = -1
			}
			bound = !bound
			if err := m.UpdateFilters([]dd.Entry[dataplane.FilterRule]{{Val: deny, Diff: diff}, {Val: permit, Diff: diff}}); err != nil {
				t.Fatal(err)
			}
		}
		var batch []dd.Entry[dataplane.Rule]
		for n := 1 + rng.Intn(4); n > 0; n-- {
			r := rule(devs[rng.Intn(len(devs))], prefixes[rng.Intn(len(prefixes))], nhs[rng.Intn(len(nhs))])
			switch {
			case installed[r]:
				batch = append(batch, dd.Entry[dataplane.Rule]{Val: r, Diff: -1})
				delete(installed, r)
			case !slices.ContainsFunc(batch, func(e dd.Entry[dataplane.Rule]) bool { return e.Val == r }):
				batch = append(batch, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
				installed[r] = true
			}
		}
		free := slices.Clone(m.free)
		res, err := m.ApplyBatch(batch, InsertFirst)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CheckRoots(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		born, retired := m.Churn()
		for _, list := range [][]ECID{born, retired} {
			if s := slices.Clone(list); len(slices.Compact(sortIDs(s))) != len(list) {
				t.Fatalf("round %d: an id was handed out or retired twice in one batch: born %v, retired %v", round, born, retired)
			}
		}
		// An id named by the batch was live before it or born in it.
		named := make([]ECID, 0, len(res.Transfers)+3*len(res.Merges))
		for _, tr := range res.Transfers {
			named = append(named, tr.EC)
		}
		for _, me := range res.Merges {
			named = append(named, me.A, me.B, me.Result)
		}
		for _, id := range named {
			if slices.Contains(free, id) && !slices.Contains(born, id) {
				t.Fatalf("round %d: the batch names id %d, which was free and not handed out", round, id)
			}
			if m.Node(id) == bdd.False {
				t.Fatalf("round %d: the batch names id %d, which holds no packet set", round, id)
			}
		}
		peak = max(peak, m.NumECs()+len(retired))
		m.Release()
		if err := m.CheckRoots(); err != nil {
			t.Fatalf("round %d, released: %v", round, err)
		}
	}
	if m.NumSlots() > peak {
		t.Fatalf("table grew to %d slots, more than the %d a batch ever held", m.NumSlots(), peak)
	}
}

func sortIDs(ids []ECID) []ECID {
	slices.Sort(ids)
	return ids
}
