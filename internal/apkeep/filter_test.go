package apkeep

import (
	"errors"
	"slices"
	"sort"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

func filterRule(dev, intf string, dir dataplane.Direction, seq int, action netcfg.ACLAction, m dataplane.Match) dataplane.FilterRule {
	return dataplane.FilterRule{Device: dev, Intf: intf, Dir: dir, Seq: seq, Action: action, Match: m}
}

func insAll(rules ...dataplane.FilterRule) []dd.Entry[dataplane.FilterRule] {
	out := make([]dd.Entry[dataplane.FilterRule], len(rules))
	for i, r := range rules {
		out[i] = dd.Entry[dataplane.FilterRule]{Val: r, Diff: 1}
	}
	return out
}

func TestFilterBlocksMatchingEC(t *testing.T) {
	m := New()
	denySSH := filterRule("r1", "eth0", dataplane.In, 10, netcfg.Deny,
		dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22})
	permitAll := filterRule("r1", "eth0", dataplane.In, 20, netcfg.Permit, dataplane.MatchAll)
	m.UpdateFilters(insAll(denySSH, permitAll))
	tr := m.TakeFilterTransfers()
	if len(tr) == 0 {
		t.Fatal("no filter transfers")
	}
	if err := m.CheckPartition(); err != nil {
		t.Fatal(err)
	}
	// Find the EC containing an SSH packet and a plain packet.
	ssh := bdd.Packet{Proto: netcfg.ProtoTCP, DstPort: 22}
	web := bdd.Packet{Proto: netcfg.ProtoTCP, DstPort: 80}
	var sshEC, webEC bdd.Node = bdd.False, bdd.False
	for ec := range m.ECs() {
		if m.H.Contains(ec, ssh) {
			sshEC = ec
		}
		if m.H.Contains(ec, web) {
			webEC = ec
		}
	}
	if sshEC == webEC {
		t.Fatal("filter boundary did not split ECs")
	}
	if !m.Blocked("r1", "eth0", dataplane.In, sshEC) {
		t.Error("SSH EC not blocked")
	}
	if m.Blocked("r1", "eth0", dataplane.In, webEC) {
		t.Error("web EC blocked")
	}
	// Other bindings are unaffected.
	if m.Blocked("r1", "eth0", dataplane.Out, sshEC) || m.Blocked("r2", "eth0", dataplane.In, sshEC) {
		t.Error("unrelated binding blocks")
	}
}

func TestImplicitDenyWithoutPermit(t *testing.T) {
	m := New()
	only := filterRule("r1", "eth0", dataplane.In, 10, netcfg.Deny,
		dataplane.Match{Dst: netcfg.MustPrefix("10.0.0.0/8")})
	m.UpdateFilters(insAll(only))
	m.TakeFilterTransfers()
	// With no permit line, everything is blocked (implicit deny).
	for ec := range m.ECs() {
		if !m.Blocked("r1", "eth0", dataplane.In, ec) {
			t.Errorf("EC unexpectedly permitted under implicit deny")
		}
	}
}

func TestFilterFirstMatchWins(t *testing.T) {
	m := New()
	permitHost := filterRule("r1", "eth0", dataplane.In, 5, netcfg.Permit,
		dataplane.Match{Proto: netcfg.ProtoTCP, Dst: netcfg.MustPrefix("10.1.1.0/24"), DstPortLo: 22, DstPortHi: 22})
	denySSH := filterRule("r1", "eth0", dataplane.In, 10, netcfg.Deny,
		dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22})
	permitAll := filterRule("r1", "eth0", dataplane.In, 20, netcfg.Permit, dataplane.MatchAll)
	m.UpdateFilters(insAll(permitHost, denySSH, permitAll))
	m.TakeFilterTransfers()

	allowed := bdd.Packet{Proto: netcfg.ProtoTCP, Dst: netcfg.MustAddr("10.1.1.7"), DstPort: 22}
	blocked := bdd.Packet{Proto: netcfg.ProtoTCP, Dst: netcfg.MustAddr("10.2.2.2"), DstPort: 22}
	check := func(pkt bdd.Packet, wantBlocked bool) {
		t.Helper()
		for ec := range m.ECs() {
			if m.H.Contains(ec, pkt) {
				if got := m.Blocked("r1", "eth0", dataplane.In, ec); got != wantBlocked {
					t.Errorf("packet %v blocked=%v, want %v", pkt, got, wantBlocked)
				}
				return
			}
		}
		t.Fatalf("no EC contains %v", pkt)
	}
	check(allowed, false)
	check(blocked, true)
}

func TestFilterRemovalUnblocks(t *testing.T) {
	m := New()
	denyAll := filterRule("r1", "eth0", dataplane.Out, 10, netcfg.Deny, dataplane.MatchAll)
	m.UpdateFilters(insAll(denyAll))
	m.TakeFilterTransfers()
	for ec := range m.ECs() {
		if !m.Blocked("r1", "eth0", dataplane.Out, ec) {
			t.Fatal("deny-all did not block")
		}
	}
	// Remove the line: binding disappears, everything allowed.
	m.UpdateFilters([]dd.Entry[dataplane.FilterRule]{{Val: denyAll, Diff: -1}})
	tr := m.TakeFilterTransfers()
	if len(tr) == 0 {
		t.Fatal("removal produced no transfers")
	}
	for _, x := range tr {
		if x.Blocked {
			t.Errorf("transfer still blocked: %+v", x)
		}
	}
	for ec := range m.ECs() {
		if m.Blocked("r1", "eth0", dataplane.Out, ec) {
			t.Error("EC still blocked after binding removal")
		}
	}
	if len(m.FilterKeys()) != 0 {
		t.Errorf("filter keys = %v", m.FilterKeys())
	}
}

func TestFilterChangeEmitsOnlyFlippedECs(t *testing.T) {
	m := New()
	deny22 := filterRule("r1", "eth0", dataplane.In, 10, netcfg.Deny,
		dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22})
	permitAll := filterRule("r1", "eth0", dataplane.In, 20, netcfg.Permit, dataplane.MatchAll)
	m.UpdateFilters(insAll(deny22, permitAll))
	m.TakeFilterTransfers()

	// Extend the deny to port 23 as well: only the port-23 space flips.
	deny2223 := filterRule("r1", "eth0", dataplane.In, 10, netcfg.Deny,
		dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 23})
	m.UpdateFilters([]dd.Entry[dataplane.FilterRule]{
		{Val: deny22, Diff: -1},
		{Val: deny2223, Diff: 1},
	})
	tr := m.TakeFilterTransfers()
	for _, x := range tr {
		if !x.Blocked {
			t.Errorf("unexpected unblock: %+v", x)
		}
		if m.H.Contains(m.Node(x.EC), bdd.Packet{Proto: netcfg.ProtoTCP, DstPort: 22}) {
			t.Errorf("port-22 EC flipped again: %+v", x)
		}
	}
	if len(tr) == 0 {
		t.Fatal("no transfers for extended deny")
	}

	// Differential case: on a model with destination structure, every
	// EC's status must be what the binding's lines say of its packets
	// after a bind, after a rebind to another /24 (whose old region
	// unblocks) and after the unbind.
	m = New()
	for _, r := range []dataplane.Rule{
		rule("r1", "10.0.0.0/8", "r2"), rule("r1", "10.1.2.0/24", "r3"),
		rule("r1", "10.1.3.0/24", "r3"), rule("r2", "10.1.0.0/16", ""),
	} {
		m.InsertRule(r)
	}
	acl := func(dst string) []dataplane.FilterRule {
		var lines []dataplane.FilterRule
		for i := 0; i < 16; i++ {
			p := uint16(1024 + 16*i)
			lines = append(lines, filterRule("r1", "eth0", dataplane.Out, 10*(i+1), netcfg.Deny,
				dataplane.Match{Proto: netcfg.ProtoTCP, Dst: netcfg.MustPrefix(dst), DstPortLo: p, DstPortHi: p}))
		}
		return append(lines, filterRule("r1", "eth0", dataplane.Out, 170, netcfg.Permit, dataplane.MatchAll))
	}
	a, b := acl("10.1.2.0/24"), acl("10.1.3.0/24")
	check := func(step string, lines []dataplane.FilterRule) {
		t.Helper()
		deny := bdd.False
		if len(lines) > 0 {
			deny = m.H.Not(firstMatchFold(m.H, lines))
		}
		for _, id := range m.AppendLive(nil) {
			ec := m.Node(id)
			if in := m.H.And(ec, deny); in != bdd.False && in != ec {
				t.Fatalf("%s: EC %d straddles the binding's deny", step, id)
			}
			pkt, _ := m.H.Witness(ec)
			if got, want := m.BlockedAt(m.DevOf("r1"), "eth0", dataplane.Out, id), evalDenies(lines, pkt); got != want {
				t.Fatalf("%s: EC %d (packet %v) blocked = %v, its lines say %v", step, id, pkt, got, want)
			}
		}
		for _, inv := range []func() error{m.CheckPartition, m.CheckIndex} {
			if err := inv(); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
	}
	edit := func(del, ins []dataplane.FilterRule) {
		t.Helper()
		var batch []dd.Entry[dataplane.FilterRule]
		for _, l := range del {
			batch = append(batch, dd.Entry[dataplane.FilterRule]{Val: l, Diff: -1})
		}
		if err := m.UpdateFilters(append(batch, insAll(ins...)...)); err != nil {
			t.Fatal(err)
		}
		m.TakeFilterTransfers()
	}
	edit(nil, a)
	check("bind", a)
	edit(a, b)
	check("rebind", b)
	old := bdd.Packet{Dst: netcfg.MustAddr("10.1.2.9"), Proto: netcfg.ProtoTCP, DstPort: 1024}
	if m.BlockedAt(m.DevOf("r1"), "eth0", dataplane.Out, mustEC(t, m, old)) {
		t.Error("the old /24 stayed blocked after the rebind")
	}
	edit(b, nil)
	check("unbind", nil)
}

// evalDenies evaluates a binding's lines on one packet: the first line
// by sequence that matches decides, and no match denies. No lines is no
// binding, which permits everything.
func evalDenies(lines []dataplane.FilterRule, pkt bdd.Packet) bool {
	if len(lines) == 0 {
		return false
	}
	sorted := slices.Clone(lines)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	for _, l := range sorted {
		x := l.Match
		if (x.Proto == netcfg.ProtoIPAny || x.Proto == pkt.Proto) && x.Src.Contains(pkt.Src) && x.Dst.Contains(pkt.Dst) &&
			(x.DstPortLo == 0 && x.DstPortHi == 0 || x.DstPortLo <= pkt.DstPort && pkt.DstPort <= x.DstPortHi) {
			return l.Action == netcfg.Deny
		}
	}
	return true
}

func TestFiltersSurviveForwardingSplits(t *testing.T) {
	// An EC blocked at a binding keeps its status when a forwarding rule
	// splits it.
	m := New()
	denyAll := filterRule("r1", "eth0", dataplane.In, 10, netcfg.Deny, dataplane.MatchAll)
	m.UpdateFilters(insAll(denyAll))
	m.TakeFilterTransfers()
	m.InsertRule(rule("r2", "10.0.0.0/8", "x"))
	m.TakeTransfers()
	if m.NumECs() < 2 {
		t.Fatal("rule did not split")
	}
	for ec := range m.ECs() {
		if !m.Blocked("r1", "eth0", dataplane.In, ec) {
			t.Error("split EC lost filter status")
		}
	}
}

// TestRetractAbsentFilterLine retracts a line its binding does not hold,
// once at a bound interface and once at an unbound one: each is
// ErrAbsentRule, as deleting an absent rule is, and the rest of the
// batch still applies.
func TestRetractAbsentFilterLine(t *testing.T) {
	m := New()
	deny := filterRule("r1", "eth0", dataplane.In, 10, netcfg.Deny,
		dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22})
	permit := filterRule("r1", "eth0", dataplane.In, 20, netcfg.Permit, dataplane.MatchAll)
	if err := m.UpdateFilters(insAll(permit)); err != nil {
		t.Fatal(err)
	}
	err := m.UpdateFilters([]dd.Entry[dataplane.FilterRule]{{Val: deny, Diff: -1}, {Val: deny, Diff: 1}})
	if !errors.Is(err, ErrAbsentRule) {
		t.Fatalf("retracting a line the binding does not hold: err = %v, want ErrAbsentRule", err)
	}
	if !m.Blocked("r1", "eth0", dataplane.In, m.Node(mustEC(t, m, bdd.Packet{Proto: netcfg.ProtoTCP, DstPort: 22}))) {
		t.Error("the batch's insertion was not applied")
	}
	unbound := filterRule("r2", "eth1", dataplane.Out, 10, netcfg.Permit, dataplane.MatchAll)
	if err := m.UpdateFilters([]dd.Entry[dataplane.FilterRule]{{Val: unbound, Diff: -1}}); !errors.Is(err, ErrAbsentRule) {
		t.Fatalf("retracting a line at an unbound interface: err = %v, want ErrAbsentRule", err)
	}
	if len(m.FilterKeys()) != 1 {
		t.Errorf("bindings %v, want only r1:eth0:in", m.FilterKeys())
	}
	if err := m.CheckRoots(); err != nil {
		t.Fatal(err)
	}
}

// mustEC returns the EC containing pkt.
func mustEC(t *testing.T, m *Model, pkt bdd.Packet) ECID {
	t.Helper()
	id, ok := m.ECOf(pkt)
	if !ok {
		t.Fatalf("no EC contains %v", pkt)
	}
	return id
}

// Blocked reports whether the EC whose predicate is ec is denied at a
// binding (false for a predicate that is no EC).
func (m *Model) Blocked(dev, intf string, dir dataplane.Direction, ec bdd.Node) bool {
	pkt, ok := m.H.Witness(ec)
	if !ok {
		return false
	}
	id, ok := m.ECOf(pkt)
	d := m.DevOf(dev)
	return ok && d >= 0 && m.Node(id) == ec && m.BlockedAt(d, intf, dir, id)
}

// FilterKeys returns the currently bound filter elements.
func (m *Model) FilterKeys() []FilterKey {
	var out []FilterKey
	m.eachFilter(func(fs *filterState) { out = append(out, fs.key) })
	return out
}
