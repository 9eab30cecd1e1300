package bdd

import (
	"math/rand"
	"testing"

	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
)

func TestDstPrefixMembership(t *testing.T) {
	h := NewHeaders()
	p := h.DstPrefix(netcfg.MustPrefix("10.1.0.0/16"))
	in := Packet{Dst: netcfg.MustAddr("10.1.200.3")}
	out := Packet{Dst: netcfg.MustAddr("10.2.0.0")}
	if !h.Contains(p, in) {
		t.Error("in-prefix packet rejected")
	}
	if h.Contains(p, out) {
		t.Error("out-of-prefix packet accepted")
	}
	if got := h.FractionSat(p); got != 1.0/(1<<16) {
		t.Errorf("fraction = %v, want 2^-16", got)
	}
	// Default prefix is everything.
	if h.DstPrefix(netcfg.Prefix{}) != True {
		t.Error("default prefix != True")
	}
}

func TestPrefixNesting(t *testing.T) {
	h := NewHeaders()
	p16 := h.DstPrefix(netcfg.MustPrefix("10.1.0.0/16"))
	p24 := h.DstPrefix(netcfg.MustPrefix("10.1.5.0/24"))
	if !h.Implies(p24, p16) {
		t.Error("/24 should imply containing /16")
	}
	other := h.DstPrefix(netcfg.MustPrefix("192.168.0.0/16"))
	if h.Overlaps(p16, other) {
		t.Error("disjoint prefixes overlap")
	}
}

func TestProtoAndPortRange(t *testing.T) {
	h := NewHeaders()
	tcp := h.Proto(netcfg.ProtoTCP)
	if !h.Contains(tcp, Packet{Proto: netcfg.ProtoTCP}) || h.Contains(tcp, Packet{Proto: netcfg.ProtoUDP}) {
		t.Error("Proto predicate wrong")
	}
	if h.Proto(netcfg.ProtoIPAny) != True {
		t.Error("any-proto != True")
	}
	r := h.DstPortRange(80, 443)
	for _, c := range []struct {
		port uint16
		want bool
	}{{79, false}, {80, true}, {200, true}, {443, true}, {444, false}, {0, false}, {65535, false}} {
		if got := h.Contains(r, Packet{DstPort: c.port}); got != c.want {
			t.Errorf("port %d in [80,443] = %v, want %v", c.port, got, c.want)
		}
	}
	if h.DstPortRange(0, 0) != True {
		t.Error("any-port != True")
	}
	single := h.DstPortRange(22, 22)
	if !h.Contains(single, Packet{DstPort: 22}) || h.Contains(single, Packet{DstPort: 23}) {
		t.Error("single-port range wrong")
	}
}

func TestPortRangeRandomized(t *testing.T) {
	h := NewHeaders()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		lo := uint16(rng.Intn(65535) + 1)
		hi := lo + uint16(rng.Intn(int(65535-lo)+1))
		pred := h.DstPortRange(lo, hi)
		for probe := 0; probe < 20; probe++ {
			port := uint16(rng.Intn(65536))
			want := port >= lo && port <= hi
			if got := h.Contains(pred, Packet{DstPort: port}); got != want {
				t.Fatalf("port %d in [%d,%d] = %v, want %v", port, lo, hi, got, want)
			}
		}
	}
}

func TestMatchAndWitness(t *testing.T) {
	h := NewHeaders()
	m := dataplane.Match{
		Proto:     netcfg.ProtoTCP,
		Src:       netcfg.MustPrefix("10.0.0.0/8"),
		Dst:       netcfg.MustPrefix("10.9.0.0/24"),
		DstPortLo: 22,
		DstPortHi: 22,
	}
	pred := h.Match(m)
	pkt, ok := h.Witness(pred)
	if !ok {
		t.Fatal("no witness for satisfiable match")
	}
	if !h.Contains(pred, pkt) {
		t.Errorf("witness %v not contained in its own predicate", pkt)
	}
	if pkt.Proto != netcfg.ProtoTCP || pkt.DstPort != 22 {
		t.Errorf("witness = %v", pkt)
	}
	if !m.Dst.Contains(pkt.Dst) || !m.Src.Contains(pkt.Src) {
		t.Errorf("witness addresses outside match: %v", pkt)
	}
	// MatchAll is True.
	if h.Match(dataplane.MatchAll) != True {
		t.Error("MatchAll != True")
	}
	// Empty intersection yields no witness.
	if _, ok := h.Witness(h.And(h.DstPrefix(netcfg.MustPrefix("1.0.0.0/8")), h.DstPrefix(netcfg.MustPrefix("2.0.0.0/8")))); ok {
		t.Error("witness from empty predicate")
	}
}

// andChainMatch is the reference construction of Headers.Match: one
// predicate per field, joined by And.
func andChainMatch(h *Headers, m dataplane.Match) Node {
	n := h.DstPrefix(m.Dst)
	n = h.And(n, h.SrcPrefix(m.Src))
	n = h.And(n, h.Proto(m.Proto))
	return h.And(n, h.DstPortRange(m.DstPortLo, m.DstPortHi))
}

// randMatch draws a filter-rule match whose fields are each often left
// at their default: any address, ProtoIPAny, any port (0, 0).
func randMatch(rng *rand.Rand) dataplane.Match {
	prefix := func() netcfg.Prefix {
		if rng.Intn(4) == 0 {
			return netcfg.Prefix{}
		}
		p := netcfg.Prefix{Addr: netcfg.Addr(rng.Uint32()), Len: uint8(1 + rng.Intn(32))}
		p.Addr &= p.Mask()
		return p
	}
	m := dataplane.Match{Dst: prefix(), Src: prefix()}
	switch rng.Intn(5) {
	case 0:
		m.Proto = netcfg.ProtoIPAny
	case 1:
		m.Proto = netcfg.ProtoTCP
	case 2:
		m.Proto = netcfg.ProtoUDP
	case 3:
		m.Proto = netcfg.ProtoICMP
	default:
		m.Proto = netcfg.IPProto(rng.Intn(256))
	}
	switch rng.Intn(5) {
	case 0: // any port
	case 1:
		p := uint16(rng.Intn(65536))
		m.DstPortLo, m.DstPortHi = p, p
	case 2:
		m.DstPortHi = uint16(1 + rng.Intn(65535))
	default:
		lo := uint16(rng.Intn(65536))
		m.DstPortLo, m.DstPortHi = lo, lo+uint16(rng.Intn(65536-int(lo)))
	}
	return m
}

// TestMatchEqualsAndChain requires Match, which chains the fields onto
// the port range with mk, to return the very node the And of the four
// field predicates does, over seeded matches that cover default
// addresses, ProtoIPAny, any port, single ports and ranges.
func TestMatchEqualsAndChain(t *testing.T) {
	var anyDst, anySrc, anyProto, anyPort, single, ranges int
	for seed := int64(1); seed <= 4; seed++ {
		h := NewHeaders()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			m := randMatch(rng)
			// Alternate which construction interns the nodes first.
			var got, want Node
			if i%2 == 0 {
				got, want = h.Match(m), andChainMatch(h, m)
			} else {
				want, got = andChainMatch(h, m), h.Match(m)
			}
			if got != want {
				t.Fatalf("seed %d match %d %+v: Match = %d, And chain = %d", seed, i, m, got, want)
			}
			switch {
			case m.DstPortLo == 0 && m.DstPortHi == 0:
				anyPort++
			case m.DstPortLo == m.DstPortHi:
				single++
			default:
				ranges++
			}
			if m.Dst.Len == 0 {
				anyDst++
			}
			if m.Src.Len == 0 {
				anySrc++
			}
			if m.Proto == netcfg.ProtoIPAny {
				anyProto++
			}
		}
	}
	for name, n := range map[string]int{"any dst": anyDst, "any src": anySrc, "ProtoIPAny": anyProto,
		"any port": anyPort, "single port": single, "port range": ranges} {
		if n == 0 {
			t.Errorf("no seeded match has %s", name)
		}
	}
}

func TestLPMShadowAlgebra(t *testing.T) {
	// The data plane model computes a rule's effective predicate as its
	// prefix minus all longer matching prefixes; check the algebra here.
	h := NewHeaders()
	p16 := h.DstPrefix(netcfg.MustPrefix("10.1.0.0/16"))
	p24 := h.DstPrefix(netcfg.MustPrefix("10.1.5.0/24"))
	eff := h.Diff(p16, p24)
	if h.Contains(eff, Packet{Dst: netcfg.MustAddr("10.1.5.1")}) {
		t.Error("shadowed packet matched")
	}
	if !h.Contains(eff, Packet{Dst: netcfg.MustAddr("10.1.6.1")}) {
		t.Error("unshadowed packet rejected")
	}
	if h.Or(eff, p24) != p16 {
		t.Error("shadow algebra does not reassemble")
	}
}

// TestDstBlocksEqualsOrChain builds seeded unions of disjoint sorted
// prefixes inside 10.0.0.0/16, plus the empty union, the whole space,
// and two siblings that fill their parent, and requires DstBlocks to
// give the node an Or over DstPrefix gives.
func TestDstBlocksEqualsOrChain(t *testing.T) {
	h := NewHeaders()
	rng := rand.New(rand.NewSource(1))
	cases := [][]netcfg.Prefix{nil, {{}}, {netcfg.MustPrefix("10.0.0.0/25"), netcfg.MustPrefix("10.0.0.128/25")}}
	base := uint32(netcfg.MustAddr("10.0.0.0"))
	for range 200 {
		var blocks []netcfg.Prefix
		for off := uint32(0); off < 1<<16; {
			ln := uint8(20 + rng.Intn(13)) // a block of 2^(32-ln) addresses
			size := uint32(1) << (32 - ln)
			off = (off + size - 1) &^ (size - 1) // aligned
			if off >= 1<<16 {
				break
			}
			if rng.Intn(2) == 0 {
				blocks = append(blocks, netcfg.Prefix{Addr: netcfg.Addr(base + off), Len: ln})
			}
			off += size * uint32(1+rng.Intn(3))
		}
		cases = append(cases, blocks)
	}
	for i, blocks := range cases {
		want := False
		for _, b := range blocks {
			want = h.Or(want, h.DstPrefix(b))
		}
		if got := h.DstBlocks(blocks); got != want {
			t.Fatalf("case %d (%d blocks): DstBlocks differs from the Or chain", i, len(blocks))
		}
	}
}
