package bdd

import (
	"math/rand"
	"testing"

	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
)

// geq builds "the width-bit field at off >= v", one node per bit from
// the least significant up: a construction independent of the
// aligned-block builder, and its oracle.
func (h *Headers) geq(off, width int, v uint32) Node {
	n := True
	for i := width - 1; i >= 0; i-- {
		bit := (v >> (width - 1 - i)) & 1
		va := int32(off + i)
		if bit == 1 {
			// This bit must be 1 to stay >=; a 0 here loses.
			n = h.mk(va, False, n)
		} else {
			// A 1 here already wins; a 0 continues.
			n = h.mk(va, n, True)
		}
	}
	return n
}

// leq builds "the width-bit field at off <= v", like geq.
func (h *Headers) leq(off, width int, v uint32) Node {
	n := True
	for i := width - 1; i >= 0; i-- {
		bit := (v >> (width - 1 - i)) & 1
		va := int32(off + i)
		if bit == 1 {
			// A 0 here already wins; a 1 continues.
			n = h.mk(va, True, n)
		} else {
			// This bit must be 0 to stay <=; a 1 here loses.
			n = h.mk(va, n, False)
		}
	}
	return n
}

// TestRangeBlocksEqualGeqLeq requires the aligned-block range builder
// to give the node And(geq, leq) does, for ports and destinations, at
// every boundary case (the lowest and highest value, lo = hi, the whole
// space, a range that crosses the middle, an empty lo > hi) and on
// seeded ranges.
func TestRangeBlocksEqualGeqLeq(t *testing.T) {
	h := NewHeaders()
	rng := rand.New(rand.NewSource(5))
	for _, f := range []struct {
		name  string
		off   int
		width int
	}{{"port", dstPortOff, 16}, {"dst", dstIPOff, 32}} {
		top := uint32(1)<<f.width - 1
		if f.width == 32 {
			top = ^uint32(0)
		}
		mid := top/2 + 1
		cases := [][2]uint32{
			{0, 0}, {0, 1}, {1, 1}, {0, top}, {top, top}, {top - 1, top}, {0, top - 1}, {1, top},
			{mid - 1, mid}, {mid, mid}, {mid - 1, mid - 1}, {3, 2}, {top, 0},
		}
		for range 300 {
			lo, hi := rng.Uint32()&top, rng.Uint32()&top
			if rng.Intn(3) == 0 {
				hi = min(lo+uint32(rng.Intn(100)), top)
			}
			cases = append(cases, [2]uint32{min(lo, hi), max(lo, hi)})
		}
		for _, c := range cases {
			want := h.And(h.geq(f.off, f.width, c[0]), h.leq(f.off, f.width, c[1]))
			if got := h.blocks(f.off, appendRangeBlocks(nil, c[0], c[1], f.width), 0); got != want {
				t.Fatalf("%s [%d, %d]: aligned blocks %d, And(geq, leq) %d", f.name, c[0], c[1], got, want)
			}
			if f.width == 32 {
				if got := h.DstRange(c[0], c[1]); got != want {
					t.Fatalf("DstRange(%d, %d) = %d, And(geq, leq) %d", c[0], c[1], got, want)
				}
			} else if c[0] != 0 || c[1] != 0 {
				if got := h.DstPortRange(uint16(c[0]), uint16(c[1])); got != want {
					t.Fatalf("DstPortRange(%d, %d) = %d, And(geq, leq) %d", c[0], c[1], got, want)
				}
			}
		}
	}
}

// TestMatchAnyEqualsOrOfMatches requires MatchAny, which merges a
// group's port ranges into aligned blocks under one chain, to give the
// node an Or of Match over the same matches does.
func TestMatchAnyEqualsOrOfMatches(t *testing.T) {
	h := NewHeaders()
	rng := rand.New(rand.NewSource(3))
	for i := range 500 {
		ms := make([]dataplane.Match, 1+rng.Intn(12))
		base := randMatch(rng)
		for j := range ms {
			ms[j] = base // most share the fields above the port
			if rng.Intn(4) == 0 {
				ms[j] = randMatch(rng)
			}
			lo := uint16(rng.Intn(200))
			switch rng.Intn(4) {
			case 0:
				ms[j].DstPortLo, ms[j].DstPortHi = 0, 0
			case 1:
				ms[j].DstPortLo, ms[j].DstPortHi = lo, lo
			default:
				ms[j].DstPortLo, ms[j].DstPortHi = lo, lo+uint16(rng.Intn(64))
			}
		}
		want := False
		for _, m := range ms {
			want = h.Or(want, h.Match(m))
		}
		if got := h.MatchAny(ms); got != want {
			t.Fatalf("case %d: MatchAny %d, Or of Match %d, for %+v", i, got, want, ms)
		}
	}
}

// TestDstHull requires DstHull's ends to be destinations of the
// predicate, with none of its destinations outside them, on seeded
// predicates.
func TestDstHull(t *testing.T) {
	h := NewHeaders()
	if _, _, ok := h.DstHull(False); ok {
		t.Error("the empty predicate has a hull")
	}
	if lo, hi, ok := h.DstHull(True); !ok || lo != 0 || hi != ^uint32(0) {
		t.Errorf("hull of True = [%d, %d] %v", lo, hi, ok)
	}
	rng := rand.New(rand.NewSource(9))
	for i := range 300 {
		n := randRecipe(rng, 3)(h)
		lo, hi, ok := h.DstHull(n)
		if !ok {
			if n != False {
				t.Fatalf("case %d: no hull for a non-empty predicate", i)
			}
			continue
		}
		if h.Diff(n, h.DstRange(lo, hi)) != False {
			t.Fatalf("case %d: predicate has destinations outside [%d, %d]", i, lo, hi)
		}
		for _, end := range []uint32{lo, hi} {
			if !h.Overlaps(n, h.DstPrefix(netcfg.Prefix{Addr: netcfg.Addr(end), Len: 32})) {
				t.Fatalf("case %d: hull end %d is no destination of the predicate", i, end)
			}
		}
	}
}
