package dd

import (
	"math/rand"
	"reflect"
	"testing"
)

// points lists a history in iteration order.
func points(h *hist) []tdiff {
	if h.empty() {
		return nil
	}
	return append([]tdiff{h.first}, h.more...)
}

func TestHistAddAndAccumulate(t *testing.T) {
	var h hist
	h.add(3, 2)
	h.add(1, 1)
	h.add(5, -1)
	if got := h.upTo(0); got != 0 {
		t.Errorf("upTo(0) = %d, want 0", got)
	}
	if got := h.upTo(1); got != 1 {
		t.Errorf("upTo(1) = %d, want 1", got)
	}
	if got := h.upTo(3); got != 3 {
		t.Errorf("upTo(3) = %d, want 3", got)
	}
	if got := h.upTo(10); got != 2 {
		t.Errorf("upTo(10) = %d, want 2", got)
	}
}

func TestHistCancellationRemovesEntry(t *testing.T) {
	var h hist
	h.add(2, 5)
	h.add(2, -5)
	if !h.empty() || len(points(&h)) != 0 {
		t.Fatalf("history after cancellation is %+v, want empty", h)
	}
	// Cancelling the inline point promotes the first overflow point.
	h.add(1, 1)
	h.add(4, 2)
	h.add(6, 3)
	h.add(1, -1)
	if !reflect.DeepEqual(points(&h), []tdiff{{4, 2}, {6, 3}}) {
		t.Fatalf("after cancelling the first point: %+v", h)
	}
	// Cancelling an overflow point closes the gap.
	h.add(6, -3)
	if !reflect.DeepEqual(points(&h), []tdiff{{4, 2}}) {
		t.Fatalf("after cancelling the overflow point: %+v", h)
	}
}

func TestHistKeepsSortedOrder(t *testing.T) {
	var h hist
	for _, it := range []int{9, 1, 5, 3, 7, 0} {
		h.add(it, 1)
	}
	pts := points(&h)
	if len(pts) != 6 {
		t.Fatalf("%d points, want 6", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].iter >= pts[i].iter {
			t.Fatalf("history not sorted: %+v", h)
		}
	}
}

func TestHistNextAbove(t *testing.T) {
	var h hist
	if got := h.nextAbove(0); got != -1 {
		t.Errorf("empty nextAbove = %d, want -1", got)
	}
	h.add(1, 1)
	h.add(4, 1)
	h.add(8, -1)
	for _, c := range []struct{ iter, want int }{{0, 1}, {1, 4}, {2, 4}, {4, 8}, {8, -1}} {
		if got := h.nextAbove(c.iter); got != c.want {
			t.Errorf("nextAbove(%d) = %d, want %d", c.iter, got, c.want)
		}
	}
}

// TestHistMatchesNaive drives random adds through a hist and a plain
// iteration->diff map and compares every accessor.
func TestHistMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var h hist
		naive := map[int]Diff{}
		for step := 0; step < 30; step++ {
			it, d := rng.Intn(6), Diff(rng.Intn(5)-2)
			h.add(it, d)
			if naive[it] += d; naive[it] == 0 {
				delete(naive, it)
			}
			if len(points(&h)) != len(naive) {
				t.Fatalf("trial %d: %+v, naive %v", trial, h, naive)
			}
			for q := -1; q < 7; q++ {
				var sum Diff
				next := -1
				for i, nd := range naive {
					if i <= q {
						sum += nd
					} else if next < 0 || i < next {
						next = i
					}
				}
				if h.upTo(q) != sum || h.nextAbove(q) != next {
					t.Fatalf("trial %d q=%d: upTo %d want %d, nextAbove %d want %d (%+v)",
						trial, q, h.upTo(q), sum, h.nextAbove(q), next, h)
				}
			}
		}
	}
}

func TestGroupAddDropsEmptyHistories(t *testing.T) {
	var g group[string]
	g.add("x", 0, 1)
	g.add("y", 2, 1)
	g.add("x", 0, -1)
	if g.find("x") >= 0 || g.find("y") != 0 || len(g.ents) != 1 {
		t.Fatalf("group retains a value with empty history: %+v", g)
	}
	if got := g.nextAbove(0); got != 2 {
		t.Errorf("nextAbove(0) = %d, want 2", got)
	}
}

// TestGroupIndexedMatchesNaive grows a group past linearMax (so the hash
// index takes over), shrinks it to empty and refills it, checking
// membership and accumulated counts against a map throughout.
func TestGroupIndexedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var g group[int]
	naive := map[int]Diff{}
	check := func(when string) {
		t.Helper()
		if len(g.ents) != len(naive) {
			t.Fatalf("%s: %d values, want %d", when, len(g.ents), len(naive))
		}
		for v, d := range naive {
			i := g.find(v)
			if i < 0 || g.ents[i].val != v || g.ents[i].h.upTo(2) != d {
				t.Fatalf("%s: value %d at %d, want total %d (%+v)", when, v, i, d, g.ents)
			}
		}
		if g.index != nil && len(g.index) != len(g.ents) {
			t.Fatalf("%s: index has %d entries for %d values", when, len(g.index), len(g.ents))
		}
	}
	for v := 0; v < 4*linearMax; v++ {
		g.add(v, v%3, 1)
		naive[v] = 1
		check("grow")
	}
	if g.index == nil {
		t.Fatal("large group has no index")
	}
	for step := 0; step < 2000; step++ {
		v, d := rng.Intn(4*linearMax), Diff(rng.Intn(3)-1)
		g.add(v, v%3, d)
		if naive[v] += d; naive[v] == 0 {
			delete(naive, v)
		}
		check("churn")
	}
	for v := range naive {
		g.add(v, v%3, -naive[v])
		delete(naive, v)
		check("drain")
	}
	if g.index != nil {
		t.Error("emptied group keeps its index")
	}
	g.add(7, 0, 2)
	naive[7] = 2
	check("refill")
}

func TestArrangementRecyclesGroups(t *testing.T) {
	a := newArrangement[int, int]()
	a.add(1, 10, 0, 1)
	a.add(2, 20, 0, 1)
	a.add(1, 10, 0, -1)
	if a.get(1) != nil || len(a.free) != 1 {
		t.Fatalf("emptied group not released: idx=%v free=%v", a.idx, a.free)
	}
	a.add(3, 30, 1, 1)
	if a.n != 2 || len(a.free) != 0 {
		t.Fatalf("free slot not reused: %d slots, free=%v", a.n, a.free)
	}
	if g := a.get(3); g == nil || len(g.ents) != 1 || g.ents[0].val != 30 {
		t.Fatalf("group 3 = %+v", g)
	}
	if g := a.get(2); g == nil || g.ents[0].val != 20 {
		t.Fatalf("group 2 = %+v", g)
	}
}

func TestIntHeap(t *testing.T) {
	var h intHeap
	for _, v := range []int{5, 1, 3, 1, 9, 0} {
		h.push(v)
	}
	want := []int{0, 1, 1, 3, 5, 9}
	for i, w := range want {
		got, ok := h.popMin()
		if !ok || got != w {
			t.Fatalf("pop %d = %d (ok=%v), want %d", i, got, ok, w)
		}
	}
	if _, ok := h.popMin(); ok {
		t.Fatal("popMin on empty heap reported ok")
	}
}
