package dd

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// arrangedState collects an Arranged read into the shape of
// Output.State.
func arrangedState[K comparable, V comparable](a Arranged[K, V]) map[KV[K, V]]Diff {
	out := map[KV[K, V]]Diff{}
	a.Each(func(k K, v V, d Diff) {
		if _, dup := out[MkKV(k, v)]; dup {
			panic(fmt.Sprintf("Each visited (%v, %v) twice", k, v))
		}
		out[MkKV(k, v)] = d
	})
	return out
}

// twoLoops is the routing program's shape on ints: two shortest-path
// fixpoints that feed each other (A's results seed B at a cost, B's
// results at nodes divisible by 3 seed A), and a reduction outside both
// loops over B's results. Every reduction is read through Arranged and
// through an Output attached to the same collection.
type twoLoops struct {
	g     *Graph
	seeds *Input[KV[int, int]]          // node -> distance, into A
	edges *Input[KV[int, KV[int, int]]] // src -> (dst, cost)
	arrs  []Arranged[int, int]
	outs  []*Output[KV[int, int]]
}

func buildTwoLoops() *twoLoops {
	g := NewGraph()
	p := &twoLoops{g: g, seeds: NewInput[KV[int, int]](g), edges: NewInput[KV[int, KV[int, int]]](g)}
	less := func(a, b int) bool { return a < b }
	a, b := NewVar[KV[int, int]](g), NewVar[KV[int, int]](g)
	step := func(x Collection[KV[int, int]], scale int) Collection[KV[int, int]] {
		return Filter(
			Join(x, p.edges.Collection(), func(_ int, d int, e KV[int, int]) KV[int, int] { return MkKV(e.K, d+scale*e.V) }),
			func(kv KV[int, int]) bool { return kv.V < spBound })
	}
	fromB := Map(Filter(b.Collection(), func(kv KV[int, int]) bool { return kv.K%3 == 0 }),
		func(kv KV[int, int]) KV[int, int] { return MkKV(kv.K, kv.V+1) })
	aBest, aArr := ReduceMinArranged(Concat(p.seeds.Collection(), step(a.Collection(), 1), fromB), less)
	a.Feedback(aBest)
	fromA := Filter(Map(a.Collection(), func(kv KV[int, int]) KV[int, int] { return MkKV(kv.K, kv.V+2) }),
		func(kv KV[int, int]) bool { return kv.V < spBound })
	bBest, bArr := ReduceMinArranged(Concat(fromA, step(b.Collection(), 2)), less)
	b.Feedback(bBest)
	cBest, cArr := ReduceMinArranged(Map(bBest, func(kv KV[int, int]) KV[int, int] { return MkKV(kv.K%4, kv.V) }), less)
	p.arrs = []Arranged[int, int]{aArr, bArr, cArr}
	for _, c := range []Collection[KV[int, int]]{aBest, bBest, cBest} {
		p.outs = append(p.outs, NewOutput(c))
	}
	return p
}

// TestArrangedEqualsOutput drives seeded schedules of seed and edge
// insertions and retractions through two mutually recursive fixpoints,
// so reduction outputs carry histories at several iterations that
// partly cancel. After every epoch each reduction's Arranged read must
// equal the Output sink on the same collection.
func TestArrangedEqualsOutput(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := buildTwoLoops()
		seeds := map[KV[int, int]]bool{}
		edges := map[KV[int, KV[int, int]]]bool{}
		const nodes = 7
		nonEmpty := 0
		for epoch := 0; epoch < 30; epoch++ {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				if rng.Intn(4) == 0 {
					kv := MkKV(rng.Intn(nodes), rng.Intn(3))
					if seeds[kv] {
						p.seeds.Delete(kv)
						delete(seeds, kv)
					} else {
						p.seeds.Insert(kv)
						seeds[kv] = true
					}
					continue
				}
				kv := MkKV(rng.Intn(nodes), MkKV(rng.Intn(nodes), 1+rng.Intn(3)))
				if edges[kv] {
					p.edges.Delete(kv)
					delete(edges, kv)
				} else {
					p.edges.Insert(kv)
					edges[kv] = true
				}
			}
			if _, err := p.g.Advance(); err != nil {
				t.Fatalf("seed %d epoch %d: %v", seed, epoch, err)
			}
			for i, arr := range p.arrs {
				got, want := arrangedState(arr), p.outs[i].State()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d epoch %d reduction %d: Arranged = %v, Output %v", seed, epoch, i, got, want)
				}
				if len(want) > 0 {
					nonEmpty++
				}
			}
		}
		if nonEmpty == 0 {
			t.Fatalf("seed %d: every reduction stayed empty", seed)
		}
	}
}

// checkSlots verifies a reduction's slot bookkeeping between epochs:
// the key index and the free list partition the slots (no slot both
// live and free, none freed twice, none lost), every queue is drained,
// and a live slot has input or output history, while a free one has
// neither.
func (r *reduceNode[K, V, R]) checkSlots() error {
	const (
		unseen = iota
		live
		free
	)
	state := make([]int, r.keys.n)
	for k, i := range r.keys.idx {
		rk := r.keys.at(i)
		switch {
		case state[i] != unseen:
			return fmt.Errorf("slot %d indexed by two keys", i)
		case rk.key != k:
			return fmt.Errorf("slot %d indexed by %v holds key %v", i, k, rk.key)
		case len(rk.in.ents) == 0 && len(rk.out.ents) == 0:
			return fmt.Errorf("live slot %d (key %v) has no history", i, k)
		case rk.last != -1 || rk.sched != -1:
			return fmt.Errorf("live slot %d (key %v) still queued (last %d, sched %d)", i, k, rk.last, rk.sched)
		}
		state[i] = live
	}
	for _, i := range r.keys.free {
		switch state[i] {
		case live:
			return fmt.Errorf("slot %d is both live and free", i)
		case free:
			return fmt.Errorf("slot %d freed twice", i)
		}
		if rk := r.keys.at(i); len(rk.in.ents) != 0 || len(rk.out.ents) != 0 {
			return fmt.Errorf("free slot %d has history", i)
		}
		state[i] = free
	}
	if i := slices.Index(state, unseen); i >= 0 {
		return fmt.Errorf("slot %d is neither live nor free", i)
	}
	for it, q := range r.queue {
		if len(q) != 0 {
			return fmt.Errorf("queue at iteration %d holds %v after the epoch", it, q)
		}
	}
	return nil
}

// checkReduceSlots runs checkSlots on every reduction of g.
func checkReduceSlots(g *Graph) error {
	n := 0
	for id, node := range g.nodes {
		if c, ok := node.(interface{ checkSlots() error }); ok {
			n++
			if err := c.checkSlots(); err != nil {
				return fmt.Errorf("node %d: %w", id, err)
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("graph has no reduction")
	}
	return nil
}

// timedInput emits each epoch's staged batches at chosen iterations
// when inputs flush, as a join does with results it places at later
// iterations: the differences arrive at a reduction before the
// scheduler reaches their iteration.
type timedInput[T comparable] struct {
	p      *port[T]
	staged map[int][]Entry[T]
}

func newTimedInput[T comparable](g *Graph) (*timedInput[T], Collection[T]) {
	c, p := newCollection[T](g)
	in := &timedInput[T]{p: p, staged: map[int][]Entry[T]{}}
	g.inputs = append(g.inputs, in)
	return in, c
}

func (in *timedInput[T]) stage(iter int, v T, d Diff) {
	in.staged[iter] = append(in.staged[iter], Entry[T]{Val: v, Diff: d})
}

// flush emits the latest iteration first, so a key's later arrivals are
// merged and queued before its earlier ones.
func (in *timedInput[T]) flush() {
	iters := make([]int, 0, len(in.staged))
	for it := range in.staged {
		iters = append(iters, it)
	}
	slices.Sort(iters)
	for i := len(iters) - 1; i >= 0; i-- {
		in.p.emit(iters[i], in.staged[iters[i]])
	}
	clear(in.staged)
}

// TestReduceSlotsPartition checks the reduction's slot bookkeeping after
// every epoch: first by hand for a key whose differences cancel at a
// later iteration while it is queued there and is evaluated empty at an
// earlier one, then over seeded timed schedules feeding a reduction
// directly, and over the shortest-path fixpoint's schedules.
func TestReduceSlotsPartition(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	t.Run("cancelled-while-queued", func(t *testing.T) {
		g := NewGraph()
		in, c := newTimedInput[KV[int, int]](g)
		out := NewOutput(ReduceMin(c, less))
		// Key 1 is queued at iteration 2, where its differences cancel,
		// and evaluated empty at iteration 1 before that.
		in.stage(2, MkKV(1, 5), 1)
		in.stage(2, MkKV(1, 5), -1)
		in.stage(1, MkKV(1, 7), 1)
		in.stage(1, MkKV(1, 7), -1)
		in.stage(1, MkKV(2, 3), 1)
		g.MustAdvance()
		if err := checkReduceSlots(g); err != nil {
			t.Fatal(err)
		}
		// New keys reuse the freed slots.
		in.stage(0, MkKV(3, 1), 1)
		in.stage(3, MkKV(4, 2), 1)
		g.MustAdvance()
		if err := checkReduceSlots(g); err != nil {
			t.Fatal(err)
		}
		want := map[KV[int, int]]Diff{MkKV(2, 3): 1, MkKV(3, 1): 1, MkKV(4, 2): 1}
		if got := out.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("state = %v, want %v", got, want)
		}
	})
	t.Run("timed", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := NewGraph()
			in, c := newTimedInput[KV[int, int]](g)
			best, arr := ReduceMinArranged(c, less)
			out := NewOutput(best)
			total := map[KV[int, int]]Diff{}
			for epoch := 0; epoch < 25; epoch++ {
				for n := rng.Intn(8); n > 0; n-- {
					kv := MkKV(rng.Intn(4), rng.Intn(4))
					if total[kv] > 0 && rng.Intn(2) == 0 {
						// Retract, possibly at another iteration than
						// the insertion, or insert and cancel at once.
						in.stage(rng.Intn(5), kv, -1)
						total[kv]--
						continue
					}
					at := rng.Intn(5)
					in.stage(at, kv, 1)
					total[kv]++
					if rng.Intn(3) == 0 {
						in.stage(at, kv, -1)
						total[kv]--
					}
				}
				g.MustAdvance()
				if err := checkReduceSlots(g); err != nil {
					t.Fatalf("seed %d epoch %d: %v", seed, epoch, err)
				}
				want := map[KV[int, int]]Diff{}
				for k := 0; k < 4; k++ {
					min := -1
					for v := 0; v < 4; v++ {
						if total[MkKV(k, v)] > 0 && min < 0 {
							min = v
						}
					}
					if min >= 0 {
						want[MkKV(k, min)] = 1
					}
				}
				if got := out.State(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d epoch %d: state = %v, want %v", seed, epoch, got, want)
				}
				if got := arrangedState(arr); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d epoch %d: Arranged = %v, want %v", seed, epoch, got, want)
				}
			}
		}
	})
	t.Run("fixpoint", func(t *testing.T) {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := buildTwoLoops()
			for epoch := 0; epoch < 30; epoch++ {
				for n := 1 + rng.Intn(4); n > 0; n-- {
					kv := MkKV(rng.Intn(6), MkKV(rng.Intn(6), 1+rng.Intn(3)))
					if p.edges.Contains(kv) {
						p.edges.Delete(kv)
					} else {
						p.edges.Insert(kv)
					}
				}
				if s := MkKV(rng.Intn(6), 0); p.seeds.Contains(s) {
					p.seeds.Delete(s)
				} else {
					p.seeds.Insert(s)
				}
				p.g.MustAdvance()
				if err := checkReduceSlots(p.g); err != nil {
					t.Fatalf("seed %d epoch %d: %v", seed, epoch, err)
				}
			}
		}
	})
}
