package bdd

import (
	"math/rand"
	"testing"

	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
)

func BenchmarkPrefixPredicate(b *testing.B) {
	h := NewHeaders()
	p := netcfg.MustPrefix("10.1.0.0/16")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Addr = netcfg.Addr(uint32(i%256) << 16)
		h.DstPrefix(p)
	}
}

func BenchmarkAndCached(b *testing.B) {
	h := NewHeaders()
	x := h.DstPrefix(netcfg.MustPrefix("10.0.0.0/8"))
	y := h.SrcPrefix(netcfg.MustPrefix("192.168.0.0/16"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.And(x, y)
	}
}

func BenchmarkDiffLPMShadowing(b *testing.B) {
	// The data plane model's hottest operation: prefix minus a set of
	// longer prefixes.
	h := NewHeaders()
	outer := h.DstPrefix(netcfg.MustPrefix("10.0.0.0/8"))
	var inner []Node
	for i := 0; i < 64; i++ {
		inner = append(inner, h.DstPrefix(netcfg.Prefix{Addr: netcfg.MustAddr("10.0.0.0") + netcfg.Addr(i)<<8, Len: 24}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eff := outer
		for _, in := range inner {
			eff = h.Diff(eff, in)
		}
	}
}

func BenchmarkPortRange(b *testing.B) {
	h := NewHeaders()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint16(i % 30000)
		h.DstPortRange(lo, lo+1000)
	}
}

// BenchmarkMatch builds the predicate of one ACL line shaped like the
// deny lines the acl-static-edits workload binds: TCP to a host /24 on
// a single port, a combination not built before, so that no node or
// ITE result of it is interned yet. Every 256 lines the table is
// collected, untimed, so that it stays near the size a FatTree(6,BGP)
// model's table reaches before its collection (about 16 K nodes).
func BenchmarkMatch(b *testing.B) {
	h := NewHeaders()
	m := dataplane.Match{Proto: netcfg.ProtoTCP}
	base := netcfg.MustAddr("10.0.0.0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 255 {
			b.StopTimer()
			h.Collect(nil)
			b.StartTimer()
		}
		m.Dst = netcfg.Prefix{Addr: base + netcfg.Addr(i%64)<<8, Len: 24}
		m.DstPortLo = uint16(1024 + i%30000)
		m.DstPortHi = m.DstPortLo
		h.Match(m)
	}
}

// BenchmarkITEColdTable stresses the unique table's growth path: every
// iteration builds a fresh table and interns a few thousand nodes, so
// open-addressed inserts and resizes dominate.
func BenchmarkITEColdTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := NewHeaders()
		acc := False
		for j := 0; j < 64; j++ {
			p := netcfg.Prefix{Addr: netcfg.Addr(uint32(j) << 24), Len: 16}
			acc = h.Or(acc, h.And(h.DstPrefix(p), h.DstPortRange(uint16(j+1), uint16(j+100))))
		}
	}
}

// BenchmarkITECacheChurn cycles through more distinct ITE triples than
// the cache's initial capacity, measuring the direct-mapped cache under
// collision pressure.
func BenchmarkITECacheChurn(b *testing.B) {
	h := NewHeaders()
	var preds []Node
	for j := 0; j < 256; j++ {
		preds = append(preds, h.DstPrefix(netcfg.Prefix{Addr: netcfg.Addr(uint32(j) << 16), Len: 24}))
	}
	src := h.SrcPrefix(netcfg.MustPrefix("192.168.0.0/16"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.And(preds[i%len(preds)], src)
	}
}

func BenchmarkContains(b *testing.B) {
	h := NewHeaders()
	pred := h.And(h.DstPrefix(netcfg.MustPrefix("10.0.0.0/8")), h.DstPortRange(80, 443))
	pkt := Packet{Dst: netcfg.MustAddr("10.3.4.5"), Proto: netcfg.ProtoTCP, DstPort: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Contains(pred, pkt)
	}
}

// BenchmarkCollect times one collection pause: random root predicates
// keeping about 3 K live nodes (the size of a FatTree(6,BGP) model's
// table after a collection), plus twice that in garbage rebuilt, untimed,
// before every collection. live_nodes reports the kept count.
func BenchmarkCollect(b *testing.B) {
	h := NewHeaders()
	rng := rand.New(rand.NewSource(1))
	var roots []Node
	for h.Size() < 10_000 {
		roots = append(roots, randRecipe(rng, 3)(h))
	}
	live := h.Collect(roots)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for h.Size() < 3*live {
			randRecipe(rng, 3)(h)
		}
		b.StartTimer()
		h.Collect(roots)
	}
	b.ReportMetric(float64(live), "live_nodes")
}
