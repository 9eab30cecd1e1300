package apkeep

import (
	"math/rand"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

func rule(dev, prefix, nh string) dataplane.Rule {
	r := dataplane.Rule{Device: dev, Prefix: netcfg.MustPrefix(prefix)}
	if nh == "" {
		r.Action = dataplane.Deliver
		r.OutIntf = "lo0"
	} else if nh == "drop" {
		r.Action = dataplane.Drop
	} else {
		r.Action = dataplane.Forward
		r.NextHop = nh
		r.OutIntf = "eth0"
	}
	return r
}

func TestInsertMovesECFromDrop(t *testing.T) {
	m := New()
	m.InsertRule(rule("r1", "10.0.0.0/8", "r2"))
	tr := m.TakeTransfers()
	if len(tr) != 1 {
		t.Fatalf("transfers = %v", tr)
	}
	if tr[0].Old != DropPort || tr[0].New.NextHop != "r2" {
		t.Errorf("transfer = %+v", tr[0])
	}
	if m.NumECs() != 2 {
		t.Errorf("ECs = %d, want 2", m.NumECs())
	}
	if err := m.CheckPartition(); err != nil {
		t.Error(err)
	}
	pkt := bdd.Packet{Dst: netcfg.MustAddr("10.1.2.3")}
	if p := m.Lookup("r1", pkt); p.NextHop != "r2" {
		t.Errorf("lookup = %v", p)
	}
	if p := m.Lookup("r1", bdd.Packet{Dst: netcfg.MustAddr("11.0.0.1")}); p != DropPort {
		t.Errorf("unmatched lookup = %v", p)
	}
	if p := m.Lookup("r2", pkt); p != DropPort {
		t.Errorf("other device lookup = %v", p)
	}
}

func TestLongestPrefixMatchSplitsAndShadows(t *testing.T) {
	m := New()
	m.InsertRule(rule("r1", "10.0.0.0/8", "a"))
	m.InsertRule(rule("r1", "10.1.0.0/16", "b"))
	m.TakeTransfers()
	if err := m.CheckPartition(); err != nil {
		t.Fatal(err)
	}
	if p := m.Lookup("r1", bdd.Packet{Dst: netcfg.MustAddr("10.1.0.1")}); p.NextHop != "b" {
		t.Errorf("longer prefix did not win: %v", p)
	}
	if p := m.Lookup("r1", bdd.Packet{Dst: netcfg.MustAddr("10.2.0.1")}); p.NextHop != "a" {
		t.Errorf("shorter prefix lost its remainder: %v", p)
	}
	// Inserting a shorter prefix must NOT steal the longer one's space.
	m.InsertRule(rule("r1", "0.0.0.0/0", "c"))
	m.TakeTransfers()
	if p := m.Lookup("r1", bdd.Packet{Dst: netcfg.MustAddr("10.1.0.1")}); p.NextHop != "b" {
		t.Errorf("default route stole /16 space: %v", p)
	}
	if p := m.Lookup("r1", bdd.Packet{Dst: netcfg.MustAddr("99.0.0.1")}); p.NextHop != "c" {
		t.Errorf("default route not installed: %v", p)
	}
}

func TestDeleteFallsBackToCoveringPrefix(t *testing.T) {
	m := New()
	m.InsertRule(rule("r1", "10.0.0.0/8", "a"))
	m.InsertRule(rule("r1", "10.1.0.0/16", "b"))
	m.TakeTransfers()
	if err := m.DeleteRule(rule("r1", "10.1.0.0/16", "b")); err != nil {
		t.Fatal(err)
	}
	tr := m.TakeTransfers()
	if len(tr) != 1 || tr[0].New.NextHop != "a" {
		t.Errorf("transfers = %v", tr)
	}
	if p := m.Lookup("r1", bdd.Packet{Dst: netcfg.MustAddr("10.1.0.1")}); p.NextHop != "a" {
		t.Errorf("fallback lookup = %v", p)
	}
	// Deleting the covering rule drops the space.
	if err := m.DeleteRule(rule("r1", "10.0.0.0/8", "a")); err != nil {
		t.Fatal(err)
	}
	if p := m.Lookup("r1", bdd.Packet{Dst: netcfg.MustAddr("10.1.0.1")}); p != DropPort {
		t.Errorf("post-delete lookup = %v", p)
	}
	if err := m.DeleteRule(rule("r1", "10.0.0.0/8", "a")); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestModifyInsertFirstMovesOnce(t *testing.T) {
	m := New()
	m.InsertRule(rule("r1", "10.0.0.0/8", "old"))
	m.TakeTransfers()
	batch := []dd.Entry[dataplane.Rule]{
		{Val: rule("r1", "10.0.0.0/8", "old"), Diff: -1},
		{Val: rule("r1", "10.0.0.0/8", "new"), Diff: 1},
	}
	res, err := m.ApplyBatch(batch, InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	if res.AffectedECs() != 1 {
		t.Errorf("insert-first moved %d ECs, want 1: %v", res.AffectedECs(), res.Transfers)
	}
	if tr := res.Transfers[0]; tr.Old.NextHop != "old" || tr.New.NextHop != "new" {
		t.Errorf("transfer = %+v", tr)
	}
}

func TestModifyDeleteFirstDetoursThroughDrop(t *testing.T) {
	m := New()
	m.InsertRule(rule("r1", "10.0.0.0/8", "old"))
	m.TakeTransfers()
	batch := []dd.Entry[dataplane.Rule]{
		{Val: rule("r1", "10.0.0.0/8", "old"), Diff: -1},
		{Val: rule("r1", "10.0.0.0/8", "new"), Diff: 1},
	}
	res, err := m.ApplyBatch(batch, DeleteFirst)
	if err != nil {
		t.Fatal(err)
	}
	if res.AffectedECs() != 2 {
		t.Fatalf("delete-first moved %d ECs, want 2: %v", res.AffectedECs(), res.Transfers)
	}
	if res.Transfers[0].New != DropPort {
		t.Errorf("first move not to drop: %+v", res.Transfers[0])
	}
	if res.Transfers[1].Old != DropPort || res.Transfers[1].New.NextHop != "new" {
		t.Errorf("second move wrong: %+v", res.Transfers[1])
	}
	if res.DistinctECs() != 1 {
		t.Errorf("distinct ECs = %d, want 1", res.DistinctECs())
	}
	// Both orders converge to the same final state.
	if p := m.Lookup("r1", bdd.Packet{Dst: netcfg.MustAddr("10.1.1.1")}); p.NextHop != "new" {
		t.Errorf("final state = %v", p)
	}
}

// TestRandomizedAgainstBruteForce churns random rules through the model
// and cross-checks EC-based lookup against direct longest-prefix-match
// over the rule list, plus the partition invariants.
func TestRandomizedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := New()
	devices := []string{"d1", "d2"}
	prefixes := []string{
		"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.5.0/24",
		"10.2.0.0/16", "192.168.0.0/16", "192.168.3.0/24",
	}
	nhs := []string{"a", "b", "c"}
	type devRules map[netcfg.Prefix]dataplane.Rule
	installed := map[string]devRules{"d1": {}, "d2": {}}

	lpm := func(dev string, dst netcfg.Addr) Port {
		var best *dataplane.Rule
		for _, r := range installed[dev] {
			if r.Prefix.Contains(dst) {
				if best == nil || r.Prefix.Len > best.Prefix.Len {
					rr := r
					best = &rr
				}
			}
		}
		if best == nil {
			return DropPort
		}
		return portOf(*best)
	}

	probes := []netcfg.Addr{
		netcfg.MustAddr("10.1.5.77"), netcfg.MustAddr("10.1.9.1"), netcfg.MustAddr("10.2.3.4"),
		netcfg.MustAddr("192.168.3.3"), netcfg.MustAddr("192.168.9.9"), netcfg.MustAddr("8.8.8.8"),
	}
	for step := 0; step < 120; step++ {
		dev := devices[rng.Intn(len(devices))]
		p := netcfg.MustPrefix(prefixes[rng.Intn(len(prefixes))])
		if ex, ok := installed[dev][p]; ok {
			if err := m.DeleteRule(ex); err != nil {
				t.Fatal(err)
			}
			delete(installed[dev], p)
		} else {
			r := rule(dev, p.String(), nhs[rng.Intn(len(nhs))])
			m.InsertRule(r)
			installed[dev][p] = r
		}
		m.TakeTransfers()
		for _, dst := range probes {
			for _, d := range devices {
				want := lpm(d, dst)
				got := m.Lookup(d, bdd.Packet{Dst: dst})
				if got != want {
					t.Fatalf("step %d: lookup(%s, %s) = %v, want %v", step, d, dst, got, want)
				}
			}
		}
		if step%20 == 0 {
			if err := m.CheckPartition(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
}

// TestAutoMergeAgainstBruteForce is TestRandomizedAgainstBruteForce with
// the partition re-minimized after every step. Rules go through
// ApplyBatch with AutoMerge on, across three devices, the third of which
// gets its first rule only after ECs exist, so its column lies beyond
// every row. An ACL binding is bound and unbound on the way: a
// full-range split, then a merge back. After every step, lookups equal
// longest-prefix match over the installed rules, filter statuses equal
// first-match over the bound lines, and the partition and root
// invariants hold. Once the walk is undone, one EC is left.
func TestAutoMergeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New()
	m.AutoMerge = true
	devices := []string{"d1", "d2", "d3"}
	const lateDev, lateFrom, bindAt, unbindAt, steps = "d3", 40, 60, 130, 180
	prefixes := []string{
		"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.5.0/24",
		"10.2.0.0/16", "192.168.0.0/16", "192.168.3.0/24",
	}
	nhs := []string{"a", "b", "c", "drop", ""}
	installed := map[string]map[netcfg.Prefix]dataplane.Rule{}
	for _, d := range devices {
		installed[d] = map[netcfg.Prefix]dataplane.Rule{}
	}
	acl := []dataplane.FilterRule{
		filterRule("d2", "eth0", dataplane.In, 10, netcfg.Deny,
			dataplane.Match{Proto: netcfg.ProtoTCP, Dst: netcfg.MustPrefix("10.1.0.0/16"), DstPortLo: 22, DstPortHi: 22}),
		filterRule("d2", "eth0", dataplane.In, 20, netcfg.Deny, dataplane.Match{Src: netcfg.MustPrefix("192.168.0.0/16")}),
		filterRule("d2", "eth0", dataplane.In, 30, netcfg.Permit, dataplane.MatchAll),
	}
	bound := false

	lpm := func(dev string, dst netcfg.Addr) Port {
		best, found := dataplane.Rule{}, false
		for _, r := range installed[dev] {
			if r.Prefix.Contains(dst) && (!found || r.Prefix.Len > best.Prefix.Len) {
				best, found = r, true
			}
		}
		if !found {
			return DropPort
		}
		return portOf(best)
	}
	matches := func(x dataplane.Match, pkt bdd.Packet) bool {
		return (x.Proto == netcfg.ProtoIPAny || x.Proto == pkt.Proto) &&
			x.Src.Contains(pkt.Src) && x.Dst.Contains(pkt.Dst) &&
			(x.DstPortLo == 0 && x.DstPortHi == 0 || x.DstPortLo <= pkt.DstPort && pkt.DstPort <= x.DstPortHi)
	}
	firstMatchDenies := func(pkt bdd.Packet) bool {
		if !bound {
			return false
		}
		for _, l := range acl {
			if matches(l.Match, pkt) {
				return l.Action == netcfg.Deny
			}
		}
		return true
	}
	var probes []bdd.Packet
	for _, dst := range []string{"10.1.5.77", "10.1.9.1", "10.2.3.4", "192.168.3.3", "192.168.9.9", "8.8.8.8"} {
		probes = append(probes,
			bdd.Packet{Dst: netcfg.MustAddr(dst), Src: netcfg.MustAddr("10.9.9.9"), Proto: netcfg.ProtoTCP, DstPort: 22},
			bdd.Packet{Dst: netcfg.MustAddr(dst), Src: netcfg.MustAddr("192.168.1.1"), Proto: netcfg.ProtoUDP, DstPort: 53})
	}
	check := func(step int) {
		t.Helper()
		for _, pkt := range probes {
			for _, d := range devices {
				if got, want := m.Lookup(d, pkt), lpm(d, pkt.Dst); got != want {
					t.Fatalf("step %d: lookup(%s, %v) = %v, want %v", step, d, pkt, got, want)
				}
			}
			ec := bdd.False
			for e := range m.ECs() {
				if m.H.Contains(e, pkt) {
					ec = e
				}
			}
			if got, want := m.Blocked("d2", "eth0", dataplane.In, ec), firstMatchDenies(pkt); got != want {
				t.Fatalf("step %d: blocked(%v) = %v, want %v", step, pkt, got, want)
			}
		}
		for _, inv := range []func() error{m.CheckPartition, m.CheckRoots} {
			if err := inv(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	apply := func(r dataplane.Rule, diff int64) {
		t.Helper()
		if _, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: r, Diff: diff}}, InsertFirst); err != nil {
			t.Fatal(err)
		}
	}
	filters := func(diff int64) {
		t.Helper()
		var changes []dd.Entry[dataplane.FilterRule]
		for _, l := range acl {
			changes = append(changes, dd.Entry[dataplane.FilterRule]{Val: l, Diff: diff})
		}
		if err := m.UpdateFilters(changes); err != nil {
			t.Fatal(err)
		}
		m.MergeECs()
		bound = diff > 0
	}

	for step := 0; step < steps; step++ {
		switch step {
		case bindAt:
			before := m.NumECs()
			filters(1)
			if m.NumECs() <= before {
				t.Fatalf("step %d: binding the ACL split no EC (%d ECs)", step, before)
			}
		case unbindAt:
			filters(-1)
		}
		live := devices[:2]
		if step >= lateFrom {
			live = devices
		}
		dev := live[rng.Intn(len(live))]
		if dev == lateDev && len(installed[dev]) == 0 && m.NumECs() < 2 {
			t.Fatalf("step %d: %s's first rule meets a single EC; the short-row path is untested", step, dev)
		}
		p := netcfg.MustPrefix(prefixes[rng.Intn(len(prefixes))])
		if ex, ok := installed[dev][p]; ok {
			apply(ex, -1)
			delete(installed[dev], p)
		} else {
			r := rule(dev, p.String(), nhs[rng.Intn(len(nhs))])
			apply(r, 1)
			installed[dev][p] = r
		}
		check(step)
	}
	if len(installed[lateDev]) == 0 {
		t.Fatalf("%s never got a rule", lateDev)
	}
	for _, d := range devices {
		for p, r := range installed[d] {
			apply(r, -1)
			delete(installed[d], p)
		}
	}
	check(steps)
	if m.NumECs() != 1 {
		t.Fatalf("%d ECs after undoing the walk, want 1", m.NumECs())
	}
	// Drop, deliver and one forward per next hop: the table interns
	// each once, however often the walk installed it.
	if m.NumColumns() != len(devices) || m.NumPorts() != len(nhs) {
		t.Fatalf("%d columns and %d ports after the walk, want %d and %d", m.NumColumns(), m.NumPorts(), len(devices), len(nhs))
	}
}

func TestBatchOrdersConvergeToSameState(t *testing.T) {
	mkBatch := func() []dd.Entry[dataplane.Rule] {
		return []dd.Entry[dataplane.Rule]{
			{Val: rule("r1", "10.0.0.0/8", "a"), Diff: 1},
			{Val: rule("r1", "10.1.0.0/16", "b"), Diff: 1},
			{Val: rule("r2", "10.0.0.0/8", "c"), Diff: 1},
		}
	}
	m1, m2 := New(), New()
	if _, err := m1.ApplyBatch(mkBatch(), InsertFirst); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.ApplyBatch(mkBatch(), DeleteFirst); err != nil {
		t.Fatal(err)
	}
	mod := []dd.Entry[dataplane.Rule]{
		{Val: rule("r1", "10.0.0.0/8", "a"), Diff: -1},
		{Val: rule("r1", "10.0.0.0/8", "z"), Diff: 1},
		{Val: rule("r2", "10.0.0.0/8", "c"), Diff: -1},
	}
	if _, err := m1.ApplyBatch(mod, InsertFirst); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.ApplyBatch(mod, DeleteFirst); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []string{"10.1.2.3", "10.2.2.2", "11.1.1.1"} {
		pkt := bdd.Packet{Dst: netcfg.MustAddr(dst)}
		for _, dev := range []string{"r1", "r2"} {
			if p1, p2 := m1.Lookup(dev, pkt), m2.Lookup(dev, pkt); p1 != p2 {
				t.Errorf("orders diverge at (%s,%s): %v vs %v", dev, dst, p1, p2)
			}
		}
	}
}

func TestDuplicateRuleInsertIsQuiet(t *testing.T) {
	m := New()
	m.InsertRule(rule("r1", "10.0.0.0/8", "a"))
	m.TakeTransfers()
	m.InsertRule(rule("r1", "10.0.0.0/8", "a"))
	if tr := m.TakeTransfers(); len(tr) != 0 {
		t.Errorf("duplicate insert moved ECs: %v", tr)
	}
	// Deleting one copy leaves the other owning the space.
	if err := m.DeleteRule(rule("r1", "10.0.0.0/8", "a")); err != nil {
		t.Fatal(err)
	}
	if tr := m.TakeTransfers(); len(tr) != 0 {
		t.Errorf("deleting one duplicate moved ECs: %v", tr)
	}
	if p := m.Lookup("r1", bdd.Packet{Dst: netcfg.MustAddr("10.0.0.1")}); p.NextHop != "a" {
		t.Errorf("lookup = %v", p)
	}
}
