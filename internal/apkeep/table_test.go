package apkeep

import (
	"math/rand"
	"slices"
	"strings"
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

// TestECSet holds the set type to a map over seeded adds and deletes:
// membership, size, and ascending iteration.
func TestECSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s ECSet
	ref := map[ECID]bool{}
	for i := 0; i < 2000; i++ {
		id := ECID(rng.Intn(300))
		if rng.Intn(3) == 0 {
			s.Del(id)
			delete(ref, id)
		} else {
			s.Add(id)
			ref[id] = true
		}
		if s.Has(id) != ref[id] {
			t.Fatalf("op %d: Has(%d) = %v, want %v", i, id, s.Has(id), ref[id])
		}
	}
	want := make([]ECID, 0, len(ref))
	for id := range ref {
		want = append(want, id)
	}
	slices.Sort(want)
	if got := s.AppendTo(nil); !slices.Equal(got, want) {
		t.Fatalf("AppendTo = %v, want %v", got, want)
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	if s.Has(1 << 20) {
		t.Fatal("Has past the last word")
	}
	s.Del(1 << 20) // past the last word: a no-op
}

// TestCheckIndexReportsCorruption breaks each invariant CheckIndex
// checks, one at a time, on a model whose index is sound, and requires
// each to be reported.
func TestCheckIndexReportsCorruption(t *testing.T) {
	want := map[string]string{
		"live EC missing": "missing from index",
		"dead id tracked": "which is no EC",
		"first start":     "ascend from 0",
		"order":           "ascend from 0",
		"dead EC held":    "dead EC",
		"reverse":         "reverse membership",
		"hole":            "misses an EC",
		"forward":         "does not hold it",
	}
	for name, plant := range map[string]func(m *Model){
		"live EC missing": func(m *Model) { m.idx.byEC[m.AppendLive(nil)[0]] = nil },
		"dead id tracked": func(m *Model) {
			m.slots = append(m.slots, ecSlot{sigPrev: noID, sigNext: noID}) // a free slot
			m.idx.setMember(ECID(len(m.slots)-1), []*ivl{m.idx.ivls[0]})
		},
		"first start":  func(m *Model) { m.idx.ivls[0].start = 1 },
		"order":        func(m *Model) { m.idx.ivls[1], m.idx.ivls[2] = m.idx.ivls[2], m.idx.ivls[1] },
		"dead EC held": func(m *Model) { m.idx.ivls[0].ecs.Add(ECID(m.NumSlots())) },
		"reverse": func(m *Model) {
			for _, id := range m.AppendLive(nil) {
				if ivs := m.idx.byEC[id]; len(ivs) > 1 {
					m.idx.byEC[id] = ivs[:len(ivs)-1]
					return
				}
			}
		},
		"hole": func(m *Model) {
			for _, iv := range m.idx.ivls {
				if ids := iv.ecs.AppendTo(nil); len(ids) > 0 {
					iv.ecs.Del(ids[0])
					m.idx.byEC[ids[0]] = slices.DeleteFunc(m.idx.byEC[ids[0]], func(x *ivl) bool { return x == iv })
					return
				}
			}
		},
		"forward": func(m *Model) {
			id := m.AppendLive(nil)[0]
			for _, iv := range m.idx.ivls {
				if !iv.ecs.Has(id) {
					m.idx.byEC[id] = append(m.idx.byEC[id], iv)
					return
				}
			}
		},
	} {
		m := New()
		m.AutoMerge = true
		for _, r := range []dataplane.Rule{rule("r1", "10.0.0.0/8", "r2"), rule("r1", "10.1.0.0/16", "r3"), rule("r2", "10.2.0.0/16", "r3")} {
			m.InsertRule(r)
		}
		if m.NumIntervals() < 4 {
			t.Fatalf("%s: %d intervals, want at least 4", name, m.NumIntervals())
		}
		if err := m.CheckIndex(); err != nil {
			t.Fatalf("%s: sound index: %v", name, err)
		}
		plant(m)
		if err := m.CheckIndex(); err == nil || !strings.Contains(err.Error(), want[name]) {
			t.Errorf("%s: CheckIndex = %v, want an error containing %q", name, err, want[name])
		}
	}
}
