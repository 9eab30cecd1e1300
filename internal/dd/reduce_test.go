package dd

import (
	"testing"
)

func TestReduceMinWithRetraction(t *testing.T) {
	g := NewGraph()
	in := NewInput[KV[string, int]](g)
	out := NewOutput(ReduceMin(in.Collection(), func(a, b int) bool { return a < b }))

	in.Insert(MkKV("k", 5))
	in.Insert(MkKV("k", 3))
	in.Insert(MkKV("k", 9))
	g.MustAdvance()
	expectState(t, out, map[KV[string, int]]Diff{MkKV("k", 3): 1})

	// Retract the minimum: the next-best becomes the result.
	in.Delete(MkKV("k", 3))
	g.MustAdvance()
	expectState(t, out, map[KV[string, int]]Diff{MkKV("k", 5): 1})

	// Retract everything: the key disappears entirely.
	in.Delete(MkKV("k", 5))
	in.Delete(MkKV("k", 9))
	g.MustAdvance()
	expectState(t, out, map[KV[string, int]]Diff{})
}

func TestReduceUnchangedResultEmitsNothing(t *testing.T) {
	g := NewGraph()
	in := NewInput[KV[string, int]](g)
	out := NewOutput(ReduceMin(in.Collection(), func(a, b int) bool { return a < b }))
	in.Insert(MkKV("k", 1))
	in.Insert(MkKV("k", 8))
	g.MustAdvance()

	// Deleting a non-minimal value must not emit a change.
	in.Delete(MkKV("k", 8))
	g.MustAdvance()
	if len(out.Changes()) != 0 {
		t.Errorf("deleting non-min emitted %v", out.Changes())
	}
	expectState(t, out, map[KV[string, int]]Diff{MkKV("k", 1): 1})
}

func TestReduceMultipleResultsPerKey(t *testing.T) {
	// An ECMP-style reduction returning all minimum values.
	g := NewGraph()
	in := NewInput[KV[string, KV[int, string]]](g) // key -> (cost, nexthop)
	allMin := Reduce(in.Collection(), func(_ string, group []Group[KV[int, string]]) []KV[int, string] {
		best := group[0].Val.K
		for _, e := range group[1:] {
			if e.Val.K < best {
				best = e.Val.K
			}
		}
		var res []KV[int, string]
		for _, e := range group {
			if e.Val.K == best {
				res = append(res, e.Val)
			}
		}
		return res
	})
	out := NewOutput(allMin)

	in.Insert(MkKV("d", MkKV(2, "a")))
	in.Insert(MkKV("d", MkKV(2, "b")))
	in.Insert(MkKV("d", MkKV(5, "c")))
	g.MustAdvance()
	expectState(t, out, map[KV[string, KV[int, string]]]Diff{
		MkKV("d", MkKV(2, "a")): 1,
		MkKV("d", MkKV(2, "b")): 1,
	})

	in.Delete(MkKV("d", MkKV(2, "a")))
	in.Delete(MkKV("d", MkKV(2, "b")))
	g.MustAdvance()
	expectState(t, out, map[KV[string, KV[int, string]]]Diff{
		MkKV("d", MkKV(5, "c")): 1,
	})
}

func TestReduceHandlesMultiplicityCounts(t *testing.T) {
	g := NewGraph()
	in := NewInput[KV[string, string]](g)
	// Sum of counts, i.e. group size including multiplicity.
	out := NewOutput(Count(in.Collection()))
	in.Update(MkKV("k", "v"), 3)
	g.MustAdvance()
	expectState(t, out, map[KV[string, Diff]]Diff{MkKV("k", Diff(3)): 1})
	in.Update(MkKV("k", "v"), -1)
	g.MustAdvance()
	expectState(t, out, map[KV[string, Diff]]Diff{MkKV("k", Diff(2)): 1})
}

// TestReduceInsideLoopInterestingTimes exercises the case that requires
// re-evaluation at later iterations: a reduction inside a fixpoint whose
// early-iteration input changes in a later epoch, while the key also has
// history at deeper iterations.
func TestReduceInsideLoopInterestingTimes(t *testing.T) {
	g := NewGraph()
	// Single-destination shortest path to node 0 on a line graph,
	// then we improve an edge and check distances shrink correctly.
	type edge struct{ from, to, cost int }
	edges := NewInput[edge](g)
	edgesByTo := Map(edges.Collection(), func(e edge) KV[int, KV[int, int]] {
		return MkKV(e.to, MkKV(e.from, e.cost))
	})
	dist := Fixpoint(g, func(x Collection[KV[int, int]]) Collection[KV[int, int]] {
		cands := Join(x, edgesByTo, func(to int, d int, fc KV[int, int]) KV[int, int] {
			return MkKV(fc.K, d+fc.V)
		})
		return ReduceMin(Concat(seedColl(g), cands), func(a, b int) bool { return a < b })
	})
	out := NewOutput(dist)

	for i := 1; i <= 4; i++ {
		edges.Insert(edge{from: i, to: i - 1, cost: 10})
	}
	g.MustAdvance()
	expectState(t, out, map[KV[int, int]]Diff{
		MkKV(0, 0): 1, MkKV(1, 10): 1, MkKV(2, 20): 1, MkKV(3, 30): 1, MkKV(4, 40): 1,
	})

	// Shortcut from 4 straight to 0.
	edges.Insert(edge{from: 4, to: 0, cost: 5})
	g.MustAdvance()
	expectState(t, out, map[KV[int, int]]Diff{
		MkKV(0, 0): 1, MkKV(1, 10): 1, MkKV(2, 20): 1, MkKV(3, 30): 1, MkKV(4, 5): 1,
	})

	// Remove the shortcut again.
	edges.Delete(edge{from: 4, to: 0, cost: 5})
	g.MustAdvance()
	expectState(t, out, map[KV[int, int]]Diff{
		MkKV(0, 0): 1, MkKV(1, 10): 1, MkKV(2, 20): 1, MkKV(3, 30): 1, MkKV(4, 40): 1,
	})
}

var seedInputs = map[*Graph]*Input[KV[int, int]]{}

// seedColl returns (creating on first use) a per-graph seed collection
// containing node 0 at distance 0.
func seedColl(g *Graph) Collection[KV[int, int]] {
	if in, ok := seedInputs[g]; ok {
		return in.Collection()
	}
	in := NewInput[KV[int, int]](g)
	in.Insert(MkKV(0, 0))
	seedInputs[g] = in
	return in.Collection()
}

// TestReduceResultMultisets drives a reduction that copies its group to
// its output with the group's multiplicities (a value returned twice has
// multiplicity two), through group sizes on both sides of linearMax, so
// both the scanning and the hashed diff against the emitted output run.
func TestReduceResultMultisets(t *testing.T) {
	g := NewGraph()
	in := NewInput[KV[string, int]](g)
	out := NewOutput(Reduce(in.Collection(), func(_ string, group []Group[int]) []int {
		var res []int
		for _, e := range group {
			for n := Diff(0); n < e.Count; n++ {
				res = append(res, e.Val)
			}
		}
		return res
	}))
	want := map[KV[string, int]]Diff{}
	update := func(key string, v int, d Diff) {
		in.Update(MkKV(key, v), d)
		if want[MkKV(key, v)] += d; want[MkKV(key, v)] == 0 {
			delete(want, MkKV(key, v))
		}
	}
	// Small group with a repeated value.
	update("small", 1, 2)
	update("small", 2, 1)
	g.MustAdvance()
	expectState(t, out, want)
	update("small", 1, -1)
	update("small", 3, 3)
	g.MustAdvance()
	expectState(t, out, want)
	// Grow past linearMax, with repeats, then shrink back and empty.
	for v := 0; v < 3*linearMax; v++ {
		update("big", v, Diff(1+v%2))
	}
	g.MustAdvance()
	expectState(t, out, want)
	for v := 0; v < 3*linearMax; v += 2 {
		update("big", v, -1)
		update("big", v+1, -1) // multiplicity two -> one
	}
	update("big", 1000, 2)
	g.MustAdvance()
	expectState(t, out, want)
	for kv, d := range want {
		in.Update(kv, -d)
	}
	want = map[KV[string, int]]Diff{}
	g.MustAdvance()
	expectState(t, out, want)
	if out.Len() != 0 {
		t.Fatalf("emptied reduction still holds %v", out.State())
	}
}

// TestLargeEpochReleasesScratch: buffers and the output change log that
// a large epoch grew are dropped at its end, small ones are kept, and
// either way the next epoch starts clean.
func TestLargeEpochReleasesScratch(t *testing.T) {
	g := NewGraph()
	in := NewInput[int](g)
	out := NewOutput(Filter(Map(in.Collection(), func(v int) int { return v + 1 }),
		func(v int) bool { return v%2 == 0 }))
	for v := 0; v < 4*keepCap; v++ {
		in.Insert(v)
	}
	g.MustAdvance()
	if out.Len() != 2*keepCap || len(out.Changes()) != 2*keepCap {
		t.Fatalf("large epoch: %d values, %d changes", out.Len(), len(out.Changes()))
	}
	in.Delete(1)
	g.MustAdvance()
	if cl := out.ChangeList(); len(cl) != 1 || cl[0] != (Entry[int]{Val: 2, Diff: -1}) {
		t.Fatalf("small epoch after a large one: changes = %v", cl)
	}
	in.Delete(3)
	g.MustAdvance()
	if cl := out.ChangeList(); len(cl) != 1 || cl[0] != (Entry[int]{Val: 4, Diff: -1}) {
		t.Fatalf("second small epoch: changes = %v", cl)
	}
	if got := trim(make([]int, 5, keepCap+1)); got != nil {
		t.Error("trim kept an oversized buffer")
	}
	if got := trim(make([]int, 5, keepCap)); got == nil || len(got) != 0 || cap(got) != keepCap {
		t.Error("trim dropped a small buffer")
	}
}
