package dd

import "testing"

// Engine micro-benchmarks: throughput of the stateful operators and the
// incremental fixpoint, independent of the networking layers above.

func BenchmarkInputThroughput(b *testing.B) {
	g := NewGraph()
	in := NewInput[int](g)
	NewOutput(in.Collection())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Insert(i)
		if i%1024 == 1023 {
			g.MustAdvance()
		}
	}
	g.MustAdvance()
}

func BenchmarkJoinInsertions(b *testing.B) {
	g := NewGraph()
	left := NewInput[KV[int, int]](g)
	right := NewInput[KV[int, int]](g)
	NewOutput(Join(left.Collection(), right.Collection(), func(k, a, c int) int { return k ^ a ^ c }))
	// Pre-arrange one side.
	for i := 0; i < 1000; i++ {
		right.Insert(MkKV(i%100, i))
	}
	g.MustAdvance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		left.Insert(MkKV(i%100, i))
		if i%256 == 255 {
			g.MustAdvance()
		}
	}
	g.MustAdvance()
}

func BenchmarkReduceMinChurn(b *testing.B) {
	g := NewGraph()
	in := NewInput[KV[int, int]](g)
	NewOutput(ReduceMin(in.Collection(), func(x, y int) bool { return x < y }))
	for i := 0; i < 1000; i++ {
		in.Insert(MkKV(i%50, i))
	}
	g.MustAdvance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Insert(MkKV(i%50, -i)) // always a new minimum
		in.Delete(MkKV(i%50, -i+50))
		if i%128 == 127 {
			g.MustAdvance()
		}
	}
	g.MustAdvance()
}

// gridEdges builds a w x w grid's directed edges (both directions),
// shallow and wide like real network topologies (diameter 2(w-1)).
func gridEdges(w int) []spEdge {
	id := func(x, y int) int { return y*w + x }
	var out []spEdge
	for y := 0; y < w; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				out = append(out, spEdge{id(x, y), id(x+1, y), 1}, spEdge{id(x+1, y), id(x, y), 1})
			}
			if y+1 < w {
				out = append(out, spEdge{id(x, y), id(x, y+1), 1}, spEdge{id(x, y+1), id(x, y), 1})
			}
		}
	}
	return out
}

// BenchmarkFixpointIncremental measures one edge fail + restore against
// a converged 400-node grid shortest-path fixpoint.
func BenchmarkFixpointIncremental(b *testing.B) {
	p := newSPProgram(0)
	edges := gridEdges(20)
	for _, e := range edges {
		p.edges.Insert(e)
	}
	p.g.MustAdvance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		p.edges.Delete(e)
		p.g.MustAdvance()
		p.edges.Insert(e)
		p.g.MustAdvance()
	}
}

// BenchmarkFixpointFull measures full evaluation of the same program.
func BenchmarkFixpointFull(b *testing.B) {
	edges := gridEdges(20)
	for i := 0; i < b.N; i++ {
		p := newSPProgram(0)
		for _, e := range edges {
			p.edges.Insert(e)
		}
		p.g.MustAdvance()
	}
}

// BenchmarkWatch times the recurring-state fingerprint: one batch of
// 1024 KV entries through a watched collection per epoch, inserted and
// then retracted, so every epoch folds the same number of entries.
func BenchmarkWatch(b *testing.B) {
	const n = 1024
	g := NewGraph()
	in := NewInput[KV[int, int]](g)
	Watch(in.Collection(), "bench", hashInts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			if i%2 == 0 {
				in.Insert(MkKV(j, i))
			} else {
				in.Delete(MkKV(j, i-1))
			}
		}
		g.MustAdvance()
	}
}
