package apkeep

import (
	"math/rand"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

func TestMergeRestoresMinimalPartitionAfterChurn(t *testing.T) {
	m := New()
	m.AutoMerge = true
	ins := func(prefix, nh string) []dd.Entry[dataplane.Rule] {
		return []dd.Entry[dataplane.Rule]{{Val: rule("r1", prefix, nh), Diff: 1}}
	}
	del := func(prefix, nh string) []dd.Entry[dataplane.Rule] {
		return []dd.Entry[dataplane.Rule]{{Val: rule("r1", prefix, nh), Diff: -1}}
	}
	if _, err := m.ApplyBatch(ins("10.0.0.0/8", "a"), InsertFirst); err != nil {
		t.Fatal(err)
	}
	if m.NumECs() != 2 {
		t.Fatalf("ECs after insert = %d", m.NumECs())
	}
	// Insert then delete a more specific rule: the partition must return
	// to exactly two classes (the /16 class merges back).
	if _, err := m.ApplyBatch(ins("10.1.0.0/16", "b"), InsertFirst); err != nil {
		t.Fatal(err)
	}
	if m.NumECs() != 3 {
		t.Fatalf("ECs after split = %d", m.NumECs())
	}
	res, err := m.ApplyBatch(del("10.1.0.0/16", "b"), InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merges) != 1 {
		t.Fatalf("merges = %v", res.Merges)
	}
	if m.NumECs() != 2 {
		t.Errorf("ECs after delete = %d, want 2 (minimal)", m.NumECs())
	}
	if err := m.CheckPartition(); err != nil {
		t.Fatal(err)
	}
	// Lookups still correct after the merge.
	if p := m.Lookup("r1", bdd.Packet{Dst: netcfg.MustAddr("10.1.2.3")}); p.NextHop != "a" {
		t.Errorf("lookup = %v", p)
	}
}

func TestMergeDoesNotCollapseDistinctBehaviour(t *testing.T) {
	m := New()
	m.AutoMerge = true
	batch := []dd.Entry[dataplane.Rule]{
		{Val: rule("r1", "10.0.0.0/8", "a"), Diff: 1},
		{Val: rule("r1", "11.0.0.0/8", "b"), Diff: 1},
		{Val: rule("r2", "10.0.0.0/8", "a"), Diff: 1},
	}
	res, err := m.ApplyBatch(batch, InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merges) != 0 {
		t.Errorf("unexpected merges: %v", res.Merges)
	}
	// 10/8 (fwd a on r1+r2), 11/8 (fwd b on r1 only), rest: 3 classes.
	if m.NumECs() != 3 {
		t.Errorf("ECs = %d, want 3", m.NumECs())
	}
	// Same-prefix-different-device behaviour must stay separate: give
	// r2 a rule for 11/8 with action b too; now 10/8 != 11/8 still
	// (different ports on r2... actually same: check precisely).
	if _, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: rule("r2", "11.0.0.0/8", "a"), Diff: 1}}, InsertFirst); err != nil {
		t.Fatal(err)
	}
	// 10/8: r1->a, r2->a. 11/8: r1->b, r2->a. Distinct.
	if m.NumECs() != 3 {
		t.Errorf("ECs = %d, want 3", m.NumECs())
	}
}

func TestMergeIdenticalRulesOnTwoPrefixes(t *testing.T) {
	// Two disjoint prefixes with identical behaviour everywhere MUST
	// merge into one class.
	// Two batches: in one, 10/8 and 11/8 tile 10/7 and move as one
	// block, so nothing splits and nothing merges.
	m := New()
	m.AutoMerge = true
	if _, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: rule("r1", "10.0.0.0/8", "a"), Diff: 1}}, InsertFirst); err != nil {
		t.Fatal(err)
	}
	res, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: rule("r1", "11.0.0.0/8", "a"), Diff: 1}}, InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumECs() != 2 {
		t.Errorf("ECs = %d, want 2 (10/8+11/8 merged, rest)", m.NumECs())
	}
	if len(res.Merges) != 1 {
		t.Errorf("merges = %v", res.Merges)
	}
	if err := m.CheckPartition(); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []string{"10.1.1.1", "11.1.1.1"} {
		if p := m.Lookup("r1", bdd.Packet{Dst: netcfg.MustAddr(dst)}); p.NextHop != "a" {
			t.Errorf("lookup %s = %v", dst, p)
		}
	}
}

func TestMergeWithFilters(t *testing.T) {
	m := New()
	m.AutoMerge = true
	// A filter splits the space; removing it must re-merge.
	deny := filterRule("r1", "eth0", dataplane.In, 10, netcfg.Deny,
		dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22})
	permit := filterRule("r1", "eth0", dataplane.In, 20, netcfg.Permit, dataplane.MatchAll)
	m.UpdateFilters(insAll(deny, permit))
	if _, err := m.ApplyBatch(nil, InsertFirst); err != nil { // flush merge pass
		t.Fatal(err)
	}
	if m.NumECs() != 2 {
		t.Fatalf("ECs with filter = %d, want 2", m.NumECs())
	}
	m.UpdateFilters([]dd.Entry[dataplane.FilterRule]{{Val: deny, Diff: -1}, {Val: permit, Diff: -1}})
	res, err := m.ApplyBatch(nil, InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumECs() != 1 {
		t.Errorf("ECs after unbinding = %d, want 1; merges %v", m.NumECs(), res.Merges)
	}
}

// TestMergeRandomizedChurnKeepsLookupsCorrect churns rules with merging
// enabled and cross-checks lookups against brute force, plus partition
// invariants and minimality (EC count with merge <= without).
func TestMergeRandomizedChurnKeepsLookupsCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	merged, plain := New(), New()
	merged.AutoMerge = true
	installed := map[netcfg.Prefix]dataplane.Rule{}
	prefixes := []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.5.0/24", "10.2.0.0/16", "192.168.0.0/16"}
	nhs := []string{"a", "b"}
	probes := []netcfg.Addr{
		netcfg.MustAddr("10.1.5.9"), netcfg.MustAddr("10.1.8.8"), netcfg.MustAddr("10.2.1.1"),
		netcfg.MustAddr("192.168.5.5"), netcfg.MustAddr("8.8.8.8"),
	}
	for step := 0; step < 80; step++ {
		p := netcfg.MustPrefix(prefixes[rng.Intn(len(prefixes))])
		var batch []dd.Entry[dataplane.Rule]
		if ex, ok := installed[p]; ok {
			batch = append(batch, dd.Entry[dataplane.Rule]{Val: ex, Diff: -1})
			delete(installed, p)
		} else {
			r := rule("r1", p.String(), nhs[rng.Intn(len(nhs))])
			batch = append(batch, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
			installed[p] = r
		}
		if _, err := merged.ApplyBatch(batch, InsertFirst); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.ApplyBatch(batch, InsertFirst); err != nil {
			t.Fatal(err)
		}
		if merged.NumECs() > plain.NumECs() {
			t.Fatalf("step %d: merged model has MORE ECs (%d > %d)", step, merged.NumECs(), plain.NumECs())
		}
		for _, dst := range probes {
			a := merged.Lookup("r1", bdd.Packet{Dst: dst})
			b := plain.Lookup("r1", bdd.Packet{Dst: dst})
			if a != b {
				t.Fatalf("step %d: lookup(%s) merged=%v plain=%v", step, dst, a, b)
			}
		}
		if step%20 == 19 {
			if err := merged.CheckPartition(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	// After deleting everything, the merged model returns to one EC.
	var batch []dd.Entry[dataplane.Rule]
	for _, r := range installed {
		batch = append(batch, dd.Entry[dataplane.Rule]{Val: r, Diff: -1})
	}
	if _, err := merged.ApplyBatch(batch, InsertFirst); err != nil {
		t.Fatal(err)
	}
	if merged.NumECs() != 1 {
		t.Errorf("ECs after full teardown = %d, want 1", merged.NumECs())
	}
}

// TestBehaviourEqualReadsShortRowsAsDrop compares rows of different
// lengths: the shorter one's missing tail reads as drop, so it equals a
// longer row only when that row's extra columns are drop too.
func TestBehaviourEqualReadsShortRowsAsDrop(t *testing.T) {
	m := New()
	a, b := m.alloc(bdd.Node(100)), m.alloc(bdd.Node(101))
	for _, c := range []struct {
		ra, rb []uint32
		want   bool
	}{
		{nil, nil, true},
		{nil, []uint32{0, 0}, true},
		{[]uint32{1}, []uint32{1, 0, 0}, true},
		{[]uint32{1}, []uint32{1, 0, 2}, false},
		{[]uint32{1, 2}, []uint32{2, 1}, false},
		{nil, []uint32{0, 3}, false},
	} {
		m.slots[a].row, m.slots[b].row = c.ra, c.rb
		if got := m.behaviourEqual(a, b); got != c.want {
			t.Errorf("rows %v, %v: equal = %v, want %v", c.ra, c.rb, got, c.want)
		}
		if got := m.behaviourEqual(b, a); got != c.want {
			t.Errorf("rows %v, %v: equal = %v, want %v", c.rb, c.ra, got, c.want)
		}
	}
}
