package bdd

import (
	"math/rand"
	"reflect"
	"testing"

	"realconfig/internal/netcfg"
)

// recipe rebuilds one predicate from scratch.
type recipe func(h *Headers) Node

// randRecipe returns a random packet-header predicate: a few prefix,
// protocol and port-range leaves combined by and, or and difference.
// The random choices are drawn now, so the recipe rebuilds the same
// predicate every time.
func randRecipe(rng *rand.Rand, depth int) recipe {
	if depth == 0 || rng.Intn(3) == 0 {
		addr := netcfg.Addr(rng.Uint32())
		plen := uint8(8 + rng.Intn(25))
		lo := uint16(rng.Intn(60000))
		hi := lo + uint16(rng.Intn(1000))
		proto := netcfg.IPProto(1 + rng.Intn(17))
		switch rng.Intn(4) {
		case 0:
			return func(h *Headers) Node { return h.DstPrefix(netcfg.Prefix{Addr: addr, Len: plen}) }
		case 1:
			return func(h *Headers) Node { return h.SrcPrefix(netcfg.Prefix{Addr: addr, Len: plen}) }
		case 2:
			return func(h *Headers) Node { return h.Proto(proto) }
		default:
			return func(h *Headers) Node { return h.DstPortRange(lo, hi) }
		}
	}
	a, b := randRecipe(rng, depth-1), randRecipe(rng, depth-1)
	switch rng.Intn(3) {
	case 0:
		return func(h *Headers) Node { return h.And(a(h), b(h)) }
	case 1:
		return func(h *Headers) Node { return h.Or(a(h), b(h)) }
	default:
		return func(h *Headers) Node { return h.Diff(a(h), b(h)) }
	}
}

// checkUnique requires the unique table to intern every allocated node
// exactly once, where mk's probe finds it, and no free slot.
func checkUnique(t *testing.T, tb *Table) {
	t.Helper()
	interned := 0
	for _, n := range tb.unique {
		if n == 0 {
			continue
		}
		interned++
		d := tb.nodes[n]
		if d.level == freeLevel {
			t.Fatalf("unique table interns free slot %d", n)
		}
		if got := tb.mk(d.level, d.lo, d.hi); got != n {
			t.Fatalf("mk finds %d for node %d", got, n)
		}
	}
	if interned != tb.Size()-2 || interned != tb.uniqueLive {
		t.Fatalf("unique table interns %d nodes, %d allocated, uniqueLive %d", interned, tb.Size()-2, tb.uniqueLive)
	}
	free := 0
	for n := tb.free; n != 0; n = tb.nodes[n].lo {
		if tb.nodes[n].level != freeLevel {
			t.Fatalf("free list holds live node %d", n)
		}
		free++
	}
	if free != tb.numFree {
		t.Fatalf("free list has %d slots, numFree %d", free, tb.numFree)
	}
}

// TestCollectProperties builds random predicates, keeps a random subset
// as roots and collects, over 100 cycles on one table. The kept
// predicates survive: rebuilding one gives the same handle, and AnySat
// and FractionSat are unchanged. Freed slots are
// reused, so the store stays bounded, and growing the unique table
// never interns a free slot.
func TestCollectProperties(t *testing.T) {
	h := NewHeaders()
	rng := rand.New(rand.NewSource(1))
	type kept struct {
		build    recipe
		n        Node
		fraction float64
		sat      []int8
	}
	var roots []kept
	peak := 0
	for cycle := 0; cycle < 100; cycle++ {
		var fresh []kept
		for i := 0; i < 40; i++ {
			r := randRecipe(rng, 3)
			n := r(h)
			if rng.Intn(4) == 0 {
				sat, _ := h.AnySat(n)
				fresh = append(fresh, kept{build: r, n: n, fraction: h.FractionSat(n), sat: sat})
			}
		}
		// Keep this cycle's picks and a random half of the older ones.
		next := fresh
		for _, k := range roots {
			if rng.Intn(2) == 0 {
				next = append(next, k)
			}
		}
		roots = next
		nodes := make([]Node, len(roots))
		for i, k := range roots {
			nodes[i] = k.n
		}
		live := h.Collect(nodes)
		if live != h.Size() {
			t.Fatalf("cycle %d: Collect returned %d, Size %d", cycle, live, h.Size())
		}
		checkUnique(t, h.Table)
		for _, k := range roots {
			if got := k.build(h); got != k.n {
				t.Fatalf("cycle %d: rebuilt predicate is %d, kept %d", cycle, got, k.n)
			}
			if got := h.FractionSat(k.n); got != k.fraction {
				t.Fatalf("cycle %d: FractionSat %v, was %v", cycle, got, k.fraction)
			}
			if got, _ := h.AnySat(k.n); !reflect.DeepEqual(got, k.sat) {
				t.Fatalf("cycle %d: AnySat changed", cycle)
			}
		}
		if cycle == 0 {
			peak = len(h.nodes)
		} else if len(h.nodes) > 2*peak {
			t.Fatalf("cycle %d: store holds %d slots, first cycle %d: freed slots are not reused", cycle, len(h.nodes), peak)
		}
	}
	// Grow the unique table well past its post-collection size, so
	// growUnique rehashes a store that still has free slots.
	before := h.uniqueMask
	for h.uniqueMask < 4*before {
		randRecipe(rng, 3)(h)
	}
	checkUnique(t, h.Table)
}

// TestCollectEverything frees every node but the terminals and shrinks
// the store and both lookup tables back to their initial sizes.
func TestCollectEverything(t *testing.T) {
	h := NewHeaders()
	rng := rand.New(rand.NewSource(2))
	for h.Size() < 4*initialUniqueSize {
		randRecipe(rng, 3)(h)
	}
	if got := h.Collect(nil); got != 2 {
		t.Fatalf("Collect(nil) left %d nodes, want the 2 terminals", got)
	}
	if len(h.nodes) != 2 || h.numFree != 0 {
		t.Fatalf("store holds %d slots, %d free; want 2, 0", len(h.nodes), h.numFree)
	}
	if len(h.unique) != initialUniqueSize || len(h.cache) != initialCacheSize {
		t.Fatalf("unique %d, cache %d slots; want %d, %d", len(h.unique), len(h.cache), initialUniqueSize, initialCacheSize)
	}
	if h.And(h.Var(0), h.Var(1)) == False {
		t.Fatal("table unusable after a full collection")
	}
}
