package apkeep

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// firstMatchFold is the reference construction of a binding's allow
// predicate: the lines in sequence order, one at a time, each permitting
// what it matches outside the lines before it.
func firstMatchFold(h *bdd.Headers, lines []dataplane.FilterRule) bdd.Node {
	sorted := slices.Clone(lines)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	allow, covered := bdd.False, bdd.False
	for _, l := range sorted {
		match := h.Match(l.Match)
		if l.Action == netcfg.Permit {
			allow = h.Or(allow, h.Diff(match, covered))
		}
		covered = h.Or(covered, match)
	}
	return allow
}

// aclAlphabet is the small field alphabet the seeded and fuzzed ACLs
// draw from: nested, disjoint and default prefixes, several protocols
// and ProtoIPAny, and port ranges that repeat, overlap, nest, touch and
// cover the whole space, plus any port (0, 0) and the space's ends.
var aclAlphabet = struct {
	dst, src []netcfg.Prefix
	proto    []netcfg.IPProto
	port     [][2]uint16
}{
	dst: []netcfg.Prefix{{}, netcfg.MustPrefix("10.0.0.0/8"), netcfg.MustPrefix("10.1.0.0/16"),
		netcfg.MustPrefix("10.1.2.0/24"), netcfg.MustPrefix("10.1.3.0/24"), netcfg.MustPrefix("10.1.2.128/25")},
	src:   []netcfg.Prefix{{}, netcfg.MustPrefix("192.168.0.0/16"), netcfg.MustPrefix("192.168.1.0/24")},
	proto: []netcfg.IPProto{netcfg.ProtoIPAny, netcfg.ProtoTCP, netcfg.ProtoUDP},
	port: [][2]uint16{{0, 0}, {22, 22}, {22, 23}, {20, 30}, {24, 31}, {32, 63}, {1024, 1024}, {1024, 2047},
		{1000, 1100}, {0, 65535}, {65535, 65535}, {0, 1}, {40000, 65535}},
}

// aclLine builds one line from alphabet indexes (taken modulo each
// alphabet's size).
func aclLine(seq int, permit bool, dst, src, proto, port int) dataplane.FilterRule {
	a := aclAlphabet
	act := netcfg.Deny
	if permit {
		act = netcfg.Permit
	}
	pr := a.port[port%len(a.port)]
	return filterRule("r1", "eth0", dataplane.In, seq, act, dataplane.Match{
		Dst: a.dst[dst%len(a.dst)], Src: a.src[src%len(a.src)], Proto: a.proto[proto%len(a.proto)],
		DstPortLo: pr[0], DstPortHi: pr[1],
	})
}

// checkAllowOf binds lines (in the order given) on a fresh model and
// requires the binding's predicate to be the very node firstMatchFold
// builds.
func checkAllowOf(t *testing.T, lines []dataplane.FilterRule) {
	t.Helper()
	m := New()
	if err := m.UpdateFilters(insAll(lines...)); err != nil {
		t.Fatal(err)
	}
	want := firstMatchFold(m.H, lines)
	if got := m.binding(0, "eth0", dataplane.In).allow; got != want {
		t.Fatalf("binding's allow %d, line-by-line fold %d, for lines %v", got, want, describe(lines))
	}
	if err := m.CheckPartition(); err != nil {
		t.Fatal(err)
	}
}

func describe(lines []dataplane.FilterRule) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = fmt.Sprintf("%v %+v", l, l.Match)
	}
	return out
}

// TestAllowOfEqualsFirstMatchFold requires allowOf, which builds a
// binding's predicate run by run and group by group from port blocks,
// to return the node the line-by-line first-match fold does, over
// seeded ACLs that mix actions, repeat, overlap, nest and touch port
// ranges, use any port, nested prefixes, several protocols and
// ProtoIPAny, and give out sequence numbers out of order.
func TestAllowOfEqualsFirstMatchFold(t *testing.T) {
	var mixed, longRun, sameGroup, anyPort, outOfOrder int
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for range 400 {
			n := 1 + rng.Intn(16)
			seqs := rng.Perm(n)
			lines := make([]dataplane.FilterRule, n)
			for i := range lines {
				// Most lines share the fields above the port, as real
				// ACLs' do; the rest draw every field.
				dst, src, proto := 3, 0, 1
				if rng.Intn(3) == 0 {
					dst, src, proto = rng.Int(), rng.Int(), rng.Int()
				}
				lines[i] = aclLine(10*(seqs[i]+1), rng.Intn(4) == 0, dst, src, proto, rng.Int())
				if lines[i].Match.DstPortLo == 0 && lines[i].Match.DstPortHi == 0 {
					anyPort++
				}
			}
			sorted := slices.Clone(lines)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
			actions := 0
			for i, l := range sorted {
				if i > 0 && l.Action != sorted[i-1].Action {
					actions++
				}
				if i > 1 && l.Action == sorted[i-1].Action && l.Action == sorted[i-2].Action {
					longRun++
				}
				if i > 0 && l.Action == sorted[i-1].Action && cmpLineFields(l, sorted[i-1]) {
					sameGroup++
				}
			}
			if actions > 0 {
				mixed++
			}
			if !slices.Equal(lines, sorted) {
				outOfOrder++
			}
			checkAllowOf(t, lines)
		}
	}
	for name, n := range map[string]int{"mixed actions": mixed, "a run of three": longRun,
		"two lines of one group in a run": sameGroup, "any port": anyPort, "sequence out of order": outOfOrder} {
		if n == 0 {
			t.Errorf("no seeded ACL has %s", name)
		}
	}
}

func cmpLineFields(a, b dataplane.FilterRule) bool {
	return a.Match.Dst == b.Match.Dst && a.Match.Src == b.Match.Src && a.Match.Proto == b.Match.Proto
}

// FuzzAllowOfEqualsFirstMatch decodes up to 12 ACL lines from the
// input, three bytes a line (action and destination; source and
// protocol; port range), with sequence numbers in reverse input order,
// and requires allowOf to equal the line-by-line fold.
func FuzzAllowOfEqualsFirstMatch(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 1, 0x00, 0x00, 2, 0x01, 0x00, 0})
	f.Add([]byte{0x03, 0x11, 3, 0x02, 0x01, 4, 0x13, 0x02, 9, 0x00, 0x00, 0})
	f.Add([]byte{0x06, 0x01, 6, 0x06, 0x01, 7, 0x07, 0x00, 8, 0x04, 0x10, 5, 0x01, 0x00, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		var lines []dataplane.FilterRule
		for i := 0; i+3 <= len(data) && len(lines) < 12; i += 3 {
			a, b, c := int(data[i]), int(data[i+1]), int(data[i+2])
			lines = append(lines, aclLine(1000-10*len(lines), a&1 == 1, a>>1, b&0xf, b>>4, c))
		}
		if len(lines) == 0 {
			return
		}
		checkAllowOf(t, lines)
	})
}

// TestBindWithNamedDestinationsScansNoPartition binds, rebinds and
// unbinds an ACL whose deny lines all name a destination, before its
// final permit of everything, on a model with many ECs: no split may
// fall back to a scan of the whole partition.
func TestBindWithNamedDestinationsScansNoPartition(t *testing.T) {
	m := New()
	for _, e := range fibBatch(20, 40) {
		if _, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{e}, InsertFirst); err != nil {
			t.Fatal(err)
		}
	}
	acl := func(dst string) []dataplane.FilterRule {
		var lines []dataplane.FilterRule
		for i := 0; i < 16; i++ {
			p := uint16(1024 + 16*i)
			lines = append(lines, filterRule("d001", "e0", dataplane.Out, 10*(i+1), netcfg.Deny,
				dataplane.Match{Proto: netcfg.ProtoTCP, Dst: netcfg.MustPrefix(dst), DstPortLo: p, DstPortHi: p}))
		}
		return append(lines, filterRule("d001", "e0", dataplane.Out, 170, netcfg.Permit, dataplane.MatchAll))
	}
	entries := func(lines []dataplane.FilterRule, diff int64) []dd.Entry[dataplane.FilterRule] {
		out := make([]dd.Entry[dataplane.FilterRule], len(lines))
		for i, l := range lines {
			out[i] = dd.Entry[dataplane.FilterRule]{Val: l, Diff: diff}
		}
		return out
	}
	a, b := acl("10.0.3.0/24"), acl("10.0.9.0/24")
	m.ResetOps()
	for step, batch := range [][]dd.Entry[dataplane.FilterRule]{
		entries(a, 1),
		append(entries(a, -1), entries(b, 1)...),
		entries(b, -1),
	} {
		if err := m.UpdateFilters(batch); err != nil {
			t.Fatal(err)
		}
		if len(m.TakeFilterTransfers()) == 0 {
			t.Fatalf("step %d flipped no EC", step)
		}
	}
	ops := m.Ops()
	if ops.SplitCalls == 0 {
		t.Fatal("the binds split nothing; counter broken?")
	}
	if ops.SplitFull != 0 {
		t.Errorf("binds fell back to %d full-partition scans", ops.SplitFull)
	}
	if ops.SplitCandidates >= m.NumECs() {
		t.Errorf("binds examined %d candidates, the partition holds %d ECs", ops.SplitCandidates, m.NumECs())
	}
	for _, inv := range []func() error{m.CheckPartition, m.CheckIndex, m.CheckRoots} {
		if err := inv(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFilterChurnAddsNoIndexBoundaries binds and unbinds ACLs on fresh
// host and subnet destinations, inside the routes' prefixes and outside
// every one: each bind must leave every EC with the status its lines
// give it, and the destination index must end each unbind with the
// intervals the routes alone cut, however many ACL edges came and went.
func TestFilterChurnAddsNoIndexBoundaries(t *testing.T) {
	m := New()
	if _, err := m.ApplyBatch(fibBatch(4, 16), InsertFirst); err != nil {
		t.Fatal(err)
	}
	ivls := len(m.idx.ivls)
	rng := rand.New(rand.NewSource(7))
	dev := m.DevOf("d001")
	for step := 0; step < 60; step++ {
		var lines []dataplane.FilterRule
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			base := netcfg.MustAddr("10.0.0.0")
			if rng.Intn(2) == 0 {
				base = netcfg.MustAddr("172.16.0.0")
			}
			ln := uint8(24 + rng.Intn(9))
			addr := base + netcfg.Addr(rng.Intn(1<<14))
			p := netcfg.Prefix{Addr: addr, Len: ln}
			p.Addr &= p.Mask()
			port := uint16(1 + rng.Intn(4096))
			lines = append(lines, filterRule("d001", "e0", dataplane.Out, 10*(i+1), netcfg.Deny,
				dataplane.Match{Proto: netcfg.ProtoTCP, Dst: p, DstPortLo: port, DstPortHi: port + uint16(rng.Intn(64))}))
		}
		lines = append(lines, filterRule("d001", "e0", dataplane.Out, 1000, netcfg.Permit, dataplane.MatchAll))
		if err := m.UpdateFilters(insAll(lines...)); err != nil {
			t.Fatal(err)
		}
		for _, id := range m.AppendLive(nil) {
			pkt, _ := m.H.Witness(m.Node(id))
			if got, want := m.BlockedAt(dev, "e0", dataplane.Out, id), evalDenies(lines, pkt); got != want {
				t.Fatalf("step %d: EC %d (packet %v) blocked = %v, its lines say %v", step, id, pkt, got, want)
			}
		}
		unbind := make([]dd.Entry[dataplane.FilterRule], len(lines))
		for i, l := range lines {
			unbind[i] = dd.Entry[dataplane.FilterRule]{Val: l, Diff: -1}
		}
		if err := m.UpdateFilters(unbind); err != nil {
			t.Fatal(err)
		}
		m.TakeFilterTransfers()
		if got := len(m.idx.ivls); got != ivls {
			t.Fatalf("step %d: the index holds %d intervals after the unbind, the routes cut %d", step, got, ivls)
		}
	}
	for _, inv := range []func() error{m.CheckPartition, m.CheckIndex, m.CheckRoots} {
		if err := inv(); err != nil {
			t.Fatal(err)
		}
	}
}
