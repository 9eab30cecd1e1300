package apkeep

import (
	"fmt"
	"math/rand"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// TestCollectKeepsModel churns a model through rule and filter updates,
// collects, and requires the collection to shrink the table while the
// partition, the index, the roots and every packet's port and filter
// status stay as they were; the model then goes on updating correctly.
func TestCollectKeepsModel(t *testing.T) {
	m := New()
	m.AutoMerge = true
	rng := rand.New(rand.NewSource(1))
	devs := []string{"r1", "r2", "r3"}
	var live []dataplane.Rule
	for round := 0; round < 40; round++ {
		r := rule(devs[rng.Intn(len(devs))], fmt.Sprintf("10.%d.%d.0/%d", rng.Intn(4), rng.Intn(256), 16+rng.Intn(9)), devs[rng.Intn(len(devs))])
		r.Prefix.Addr &= r.Prefix.Mask()
		if _, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: r, Diff: 1}}, InsertFirst); err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			if _, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: r, Diff: -1}}, InsertFirst); err != nil {
				t.Fatal(err)
			}
		} else {
			live = append(live, r)
		}
	}
	deny := filterRule("r1", "eth0", dataplane.In, 10, netcfg.Deny,
		dataplane.Match{Dst: netcfg.MustPrefix("10.1.0.0/16"), Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22})
	permit := filterRule("r1", "eth0", dataplane.In, 20, netcfg.Permit, dataplane.MatchAll)
	if err := m.UpdateFilters(insAll(deny, permit)); err != nil {
		t.Fatal(err)
	}
	m.MergeECs()
	m.Pred(dataplane.Match{Dst: netcfg.MustPrefix("10.2.0.0/16")})

	pkts := make([]bdd.Packet, 200)
	for i := range pkts {
		pkts[i] = bdd.Packet{Dst: netcfg.Addr(10<<24 | rng.Intn(4)<<16 | rng.Intn(1<<16)), Proto: netcfg.ProtoTCP, DstPort: uint16(20 + rng.Intn(4))}
	}
	type view struct {
		port    Port
		blocked bool
	}
	look := func() []view {
		var out []view
		for _, p := range pkts {
			for _, d := range devs {
				ec := bdd.False
				for e := range m.ECs() {
					if m.H.Contains(e, p) {
						ec = e
					}
				}
				out = append(out, view{m.Lookup(d, p), m.Blocked("r1", "eth0", dataplane.In, ec)})
			}
		}
		return out
	}
	want, ecs, before := look(), m.NumECs(), m.H.Size()
	m.Collect()
	if after := m.H.Size(); after >= before {
		t.Fatalf("collection kept %d of %d nodes", after, before)
	}
	for _, check := range []func() error{m.CheckPartition, m.CheckIndex, m.CheckRoots} {
		if err := check(); err != nil {
			t.Fatal(err)
		}
	}
	if m.NumECs() != ecs {
		t.Fatalf("%d ECs after collection, %d before", m.NumECs(), ecs)
	}
	for i, got := range look() {
		if got != want[i] {
			t.Fatalf("packet %v: %+v after collection, %+v before", pkts[i/len(devs)], got, want[i])
		}
	}

	// Undo everything on the collected table: back to one EC.
	var undo []dd.Entry[dataplane.Rule]
	for _, r := range live {
		undo = append(undo, dd.Entry[dataplane.Rule]{Val: r, Diff: -1})
	}
	if _, err := m.ApplyBatch(undo, InsertFirst); err != nil {
		t.Fatal(err)
	}
	if err := m.UpdateFilters([]dd.Entry[dataplane.FilterRule]{{Val: deny, Diff: -1}, {Val: permit, Diff: -1}}); err != nil {
		t.Fatal(err)
	}
	m.MergeECs()
	if m.NumECs() != 1 {
		t.Fatalf("%d ECs after undoing every update, want 1", m.NumECs())
	}
	if err := m.CheckRoots(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRootsReportsDeadNode plants per-EC state on an id that is no
// EC in each per-EC structure CheckRoots covers, breaks each rule of
// the EC table, and plants a cached predicate that no longer denotes
// its match, and requires each to be reported.
func TestCheckRootsReportsDeadNode(t *testing.T) {
	permit := []dataplane.FilterRule{filterRule("r1", "eth0", dataplane.In, 10, netcfg.Permit, dataplane.MatchAll)}
	for name, plant := range map[string]func(m *Model, dead, retired ECID){
		"ports": func(m *Model, dead, _ ECID) { m.slots[dead].row = []uint32{0} },
		"sig":   func(m *Model, dead, _ ECID) { m.slots[dead].sig = 7 },
		"bySig": func(m *Model, dead, _ ECID) { m.indexSig(dead, 7) },
		"dirty": func(m *Model, dead, _ ECID) { m.markDirty(dead) },
		"byEC":  func(m *Model, dead, _ ECID) { m.idx.setMember(dead, []*ivl{m.idx.ivls[0]}) },
		"ivl":   func(m *Model, dead, _ ECID) { m.idx.ivls[0].ecs.Add(dead) },
		"filter": func(m *Model, dead, _ ECID) {
			r1 := m.Intern("r1")
			fs := &filterState{key: FilterKey{Device: r1}, lines: permit, allow: bdd.True}
			fs.blocked.Add(dead)
			m.devs[r1].filters = append(m.devs[r1].filters, fs)
		},
		"allow": func(m *Model, _, _ ECID) {
			r1 := m.Intern("r1")
			m.devs[r1].filters = append(m.devs[r1].filters, &filterState{key: FilterKey{Device: r1}, lines: permit, allow: bdd.False})
		},
		"preds": func(m *Model, _, _ ECID) { m.preds = map[dataplane.Match]bdd.Node{dataplane.MatchAll: bdd.False} },
		// The table's own rules.
		"live":      func(m *Model, dead, _ ECID) { m.slots[dead].state = slotLive },
		"duplicate": func(m *Model, dead, _ ECID) { m.slots[dead] = m.slots[m.AppendLive(nil)[0]] },
		"free-node": func(m *Model, dead, _ ECID) { m.slots[dead].node = bdd.True },
		"free-list": func(m *Model, _, _ ECID) { m.free = append(m.free, m.AppendLive(nil)[0]) },
		"reused": func(m *Model, _, retired ECID) {
			m.slots[retired].state = slotLive
			m.live++
		},
	} {
		m := New()
		m.InsertRule(rule("r1", "10.0.0.0/8", "r2"))
		m.InsertRule(rule("r1", "10.0.0.0/16", "r3"))
		// The first split's parent is free again; the second's waits
		// for the next Release.
		if len(m.retired) != 2 {
			t.Fatalf("%s: %d ids retired, want 2", name, len(m.retired))
		}
		dead := m.retired[0]
		m.retired = m.retired[1:]
		m.slots[dead] = ecSlot{sigPrev: noID, sigNext: noID}
		m.free = append(m.free, dead)
		if err := m.CheckRoots(); err != nil {
			t.Fatalf("%s: clean model: %v", name, err)
		}
		plant(m, dead, m.retired[0])
		if m.CheckRoots() == nil {
			t.Errorf("%s: CheckRoots missed the planted state", name)
		}
	}
}
