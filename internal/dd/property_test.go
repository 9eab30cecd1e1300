package dd

import (
	"math/rand"
	"reflect"
	"testing"
)

// pipeline builds a fixed multi-operator dataflow over two keyed inputs,
// exercising every stateful operator: join, antijoin, reduce, distinct
// and a fixpoint. Returning the outputs lets the property test compare
// an incrementally-maintained instance against fresh rebuilds.
type pipeline struct {
	g     *Graph
	left  *Input[KV[int, int]]
	right *Input[KV[int, int]]
	outs  []*Output[KV[int, int]]
}

func buildPipeline() *pipeline {
	g := NewGraph()
	p := &pipeline{g: g}
	p.left = NewInput[KV[int, int]](g)
	p.right = NewInput[KV[int, int]](g)
	l, r := p.left.Collection(), p.right.Collection()

	joined := Join(l, r, func(k, a, b int) KV[int, int] { return MkKV(k, a*100+b) })
	anti := AntiJoin(l, Map(r, func(kv KV[int, int]) int { return kv.K }))
	mins := ReduceMin(Concat(joined, anti), func(a, b int) bool { return a < b })
	counts := Map(Count(l), func(kv KV[int, Diff]) KV[int, int] { return MkKV(kv.K, int(kv.V)) })
	dist := Distinct(Map(l, func(kv KV[int, int]) KV[int, int] { return MkKV(kv.K%3, kv.V%5) }))

	// A fixpoint: transitive reachability over the "right" relation seen
	// as edges, seeded by keys of "left".
	reach := Fixpoint(g, func(x Collection[KV[int, int]]) Collection[KV[int, int]] {
		seeds := Map(l, func(kv KV[int, int]) KV[int, int] { return MkKV(kv.K, kv.K) })
		// x: (node, origin); step via edges (node -> next) from right.
		stepped := Join(Map(x, func(kv KV[int, int]) KV[int, int] { return MkKV(kv.V, kv.K) }), r,
			func(_ int, origin int, next int) KV[int, int] { return MkKV(origin, next) })
		return Distinct(Concat(seeds, stepped))
	})

	for _, c := range []Collection[KV[int, int]]{joined, anti, mins, counts, dist, reach} {
		p.outs = append(p.outs, NewOutput(c))
	}
	return p
}

// TestPipelineIncrementalEqualsRebuild drives random update sequences
// through one incrementally-maintained pipeline and, after every epoch,
// rebuilds an identical pipeline from scratch with the accumulated
// inputs and compares all six outputs.
func TestPipelineIncrementalEqualsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 8; trial++ {
		inc := buildPipeline()
		leftSet := map[KV[int, int]]Diff{}
		rightSet := map[KV[int, int]]Diff{}
		for epoch := 0; epoch < 15; epoch++ {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				kv := MkKV(rng.Intn(5), rng.Intn(5))
				side, set := inc.left, leftSet
				if rng.Intn(2) == 0 {
					side, set = inc.right, rightSet
				}
				if set[kv] > 0 {
					side.Delete(kv)
					delete(set, kv)
				} else {
					side.Insert(kv)
					set[kv] = 1
				}
			}
			if _, err := inc.g.Advance(); err != nil {
				t.Fatalf("trial %d epoch %d: %v", trial, epoch, err)
			}

			// Fresh rebuild with the same accumulated inputs.
			fresh := buildPipeline()
			for kv := range leftSet {
				fresh.left.Insert(kv)
			}
			for kv := range rightSet {
				fresh.right.Insert(kv)
			}
			if _, err := fresh.g.Advance(); err != nil {
				t.Fatalf("trial %d epoch %d rebuild: %v", trial, epoch, err)
			}

			for i := range inc.outs {
				a, b := inc.outs[i].State(), fresh.outs[i].State()
				for v, d := range a {
					if d != 0 && b[v] != d {
						t.Fatalf("trial %d epoch %d output %d: incremental has %v x%d, rebuild has x%d\nleft=%v right=%v",
							trial, epoch, i, v, d, b[v], leftSet, rightSet)
					}
				}
				for v, d := range b {
					if d != 0 && a[v] != d {
						t.Fatalf("trial %d epoch %d output %d: rebuild has %v x%d, incremental has x%d",
							trial, epoch, i, v, d, a[v])
					}
				}
			}
		}
	}
}

// TestPipelineStatsAccumulate sanity-checks epoch statistics.
func TestPipelineStatsAccumulate(t *testing.T) {
	p := buildPipeline()
	p.left.Insert(MkKV(1, 2))
	p.right.Insert(MkKV(1, 3))
	st := p.g.MustAdvance()
	if st.Entries == 0 || st.NodeRuns == 0 || st.Iterations == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Epoch != 0 || p.g.Epoch() != 1 {
		t.Errorf("epoch bookkeeping: st=%d g=%d", st.Epoch, p.g.Epoch())
	}
	if got := p.g.Stats(); got != st {
		t.Errorf("Stats() = %+v, want %+v", got, st)
	}
}

func TestOutputChangeList(t *testing.T) {
	g := NewGraph()
	in := NewInput[int](g)
	out := NewOutput(in.Collection())
	in.Insert(4)
	in.Insert(5)
	g.MustAdvance()
	in.Delete(4)
	g.MustAdvance()
	cl := out.ChangeList()
	if len(cl) != 1 || cl[0].Val != 4 || cl[0].Diff != -1 {
		t.Errorf("ChangeList = %v", cl)
	}
}

// shortestPaths is a Join + Reduce fixpoint over keyed ints, the shape of
// the routing program: dist = min(seeds ∪ {dist(u)+cost | edge u->v}),
// candidates capped below spBound so cycles converge. fanin counts the
// candidates per node, so it observes join multiplicities directly.
type shortestPaths struct {
	g     *Graph
	seeds *Input[KV[int, int]]          // node -> distance
	edges *Input[KV[int, KV[int, int]]] // src -> (dst, cost)
	dist  *Output[KV[int, int]]
	fanin *Output[KV[int, Diff]]
}

const spBound = 12

func buildShortestPaths() *shortestPaths {
	g := NewGraph()
	p := &shortestPaths{g: g, seeds: NewInput[KV[int, int]](g), edges: NewInput[KV[int, KV[int, int]]](g)}
	var cands Collection[KV[int, int]]
	dist := Fixpoint(g, func(x Collection[KV[int, int]]) Collection[KV[int, int]] {
		cands = Filter(
			Join(x, p.edges.Collection(), func(_ int, d int, e KV[int, int]) KV[int, int] { return MkKV(e.K, d+e.V) }),
			func(kv KV[int, int]) bool { return kv.V < spBound })
		return ReduceMin(Concat(p.seeds.Collection(), cands), func(a, b int) bool { return a < b })
	})
	p.dist = NewOutput(dist)
	p.fanin = NewOutput(Count(cands))
	return p
}

// naiveShortestPaths recomputes both outputs from the accumulated inputs
// by Bellman-Ford.
func naiveShortestPaths(seeds map[KV[int, int]]Diff, edges map[KV[int, KV[int, int]]]Diff) (dist map[KV[int, int]]Diff, fanin map[KV[int, Diff]]Diff) {
	const inf = 1 << 30
	best := map[int]int{}
	get := func(n int) int {
		if d, ok := best[n]; ok {
			return d
		}
		return inf
	}
	for s := range seeds {
		if s.V < get(s.K) {
			best[s.K] = s.V
		}
	}
	for changed := true; changed; {
		changed = false
		for e := range edges {
			if d := get(e.K) + e.V.V; d < spBound && d < get(e.V.K) {
				best[e.V.K] = d
				changed = true
			}
		}
	}
	dist = map[KV[int, int]]Diff{}
	for n, d := range best {
		dist[MkKV(n, d)] = 1
	}
	count := map[int]Diff{}
	for e, m := range edges {
		if get(e.K)+e.V.V < spBound {
			count[e.V.K] += m
		}
	}
	fanin = map[KV[int, Diff]]Diff{}
	for n, c := range count {
		fanin[MkKV(n, c)] = 1
	}
	return dist, fanin
}

// runShortestPathSchedule drives one seeded multi-epoch schedule:
// insertions, retractions and multiplicity changes of seeds and edges
// over a small cyclic node set, so groups empty and refill and
// retractions propagate through later iterations than the insertions
// they cancel. With check set, both outputs are compared against the
// naive recomputation after every epoch. It returns every epoch's stats.
func runShortestPathSchedule(t *testing.T, seed int64, check bool) []EpochStats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := buildShortestPaths()
	seeds := map[KV[int, int]]Diff{}
	edges := map[KV[int, KV[int, int]]]Diff{}
	var stats []EpochStats
	const nodes = 6
	for epoch := 0; epoch < 40; epoch++ {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			if rng.Intn(4) == 0 {
				kv := MkKV(rng.Intn(nodes), rng.Intn(3))
				if seeds[kv] > 0 && rng.Intn(2) == 0 {
					p.seeds.Update(kv, -seeds[kv]) // retract whatever multiplicity it has
					delete(seeds, kv)
				} else {
					p.seeds.Update(kv, 1) // insert, or raise the multiplicity
					seeds[kv]++
				}
				continue
			}
			kv := MkKV(rng.Intn(nodes), MkKV(rng.Intn(nodes), 1+rng.Intn(3)))
			switch {
			case edges[kv] > 0 && rng.Intn(3) == 0:
				p.edges.Update(kv, -1) // lower the multiplicity, possibly to absent
				if edges[kv]--; edges[kv] == 0 {
					delete(edges, kv)
				}
			case edges[kv] > 0 && rng.Intn(2) == 0:
				p.edges.Update(kv, -edges[kv])
				delete(edges, kv)
			default:
				d := Diff(1 + rng.Intn(2))
				p.edges.Update(kv, d)
				edges[kv] += d
			}
		}
		// Every few epochs clear one side entirely and let it refill.
		if epoch%9 == 8 {
			for kv, m := range seeds {
				p.seeds.Update(kv, -m)
			}
			seeds = map[KV[int, int]]Diff{}
		}
		st, err := p.g.Advance()
		if err != nil {
			t.Fatalf("seed %d epoch %d: %v", seed, epoch, err)
		}
		stats = append(stats, st)
		if !check {
			continue
		}
		wantDist, wantFanin := naiveShortestPaths(seeds, edges)
		if got := p.dist.State(); !reflect.DeepEqual(got, wantDist) {
			t.Fatalf("seed %d epoch %d: dist = %v, naive %v\nseeds=%v\nedges=%v", seed, epoch, got, wantDist, seeds, edges)
		}
		if got := p.fanin.State(); !reflect.DeepEqual(got, wantFanin) {
			t.Fatalf("seed %d epoch %d: fanin = %v, naive %v\nseeds=%v\nedges=%v", seed, epoch, got, wantFanin, seeds, edges)
		}
	}
	return stats
}

// TestFixpointJoinReduceMatchesNaive checks the flat group storage under
// the access pattern the routing program produces.
func TestFixpointJoinReduceMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		runShortestPathSchedule(t, seed, true)
	}
}

// TestEpochStatsDeterministic runs one schedule twice. Input flushes walk
// Go maps, so the two runs see their differences in different orders;
// the work counted per epoch must not depend on that.
func TestEpochStatsDeterministic(t *testing.T) {
	a := runShortestPathSchedule(t, 42, false)
	b := runShortestPathSchedule(t, 42, false)
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("epoch %d: stats %+v vs %+v", i, a[i], b[i])
			}
		}
	}
	var entries int
	for _, st := range a {
		entries += st.Entries
	}
	if entries == 0 {
		t.Fatal("schedule did no work")
	}
}

// TestLateRetractionCancelsEarlierInsertion pins the interesting-times
// chain by hand: a candidate inserted at iteration 3 of one epoch is
// superseded at iteration 1 of the next and withdrawn at iteration 3
// again, then everything is withdrawn at iterations later than the
// insertions being cancelled.
func TestLateRetractionCancelsEarlierInsertion(t *testing.T) {
	p := buildShortestPaths()
	edge := func(u, v, c int) KV[int, KV[int, int]] { return MkKV(u, MkKV(v, c)) }
	p.seeds.Insert(MkKV(0, 0))
	for u := 0; u < 3; u++ {
		p.edges.Insert(edge(u, u+1, 1))
	}
	p.g.MustAdvance()
	if !p.dist.Contains(MkKV(3, 3)) {
		t.Fatalf("chain: dist = %v", p.dist.State())
	}
	// Shortcut 0->3: node 3 improves at iteration 1; its old best, whose
	// support still arrives at iteration 3, must be withdrawn there.
	p.edges.Insert(edge(0, 3, 1))
	st := p.g.MustAdvance()
	if !p.dist.Contains(MkKV(3, 1)) || p.dist.Contains(MkKV(3, 3)) || p.dist.Len() != 4 {
		t.Fatalf("shortcut: dist = %v", p.dist.State())
	}
	if st.Iterations < 4 {
		t.Errorf("shortcut epoch ran %d iterations; the iteration-3 history was not revisited", st.Iterations)
	}
	// Cut the chain at its head: nodes 1 and 2 lose their routes at
	// iterations 1 and 2, node 3 keeps the shortcut.
	p.edges.Delete(edge(0, 1, 1))
	p.g.MustAdvance()
	want := map[KV[int, int]]Diff{MkKV(0, 0): 1, MkKV(3, 1): 1}
	if got := p.dist.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cut: dist = %v, want %v", got, want)
	}
	// Withdraw the seed: every group empties.
	p.seeds.Delete(MkKV(0, 0))
	p.g.MustAdvance()
	if p.dist.Len() != 0 || p.fanin.Len() != 0 {
		t.Fatalf("withdrawn: dist = %v fanin = %v", p.dist.State(), p.fanin.State())
	}
	// And refill.
	p.seeds.Insert(MkKV(1, 0))
	p.g.MustAdvance()
	want = map[KV[int, int]]Diff{MkKV(1, 0): 1, MkKV(2, 1): 1, MkKV(3, 2): 1}
	if got := p.dist.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("refill: dist = %v, want %v", got, want)
	}
}
