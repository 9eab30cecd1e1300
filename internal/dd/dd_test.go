package dd

import (
	"errors"
	"testing"
)

// expectState asserts an output's accumulated contents.
func expectState[T comparable](t *testing.T, o *Output[T], want map[T]Diff) {
	t.Helper()
	for v, d := range want {
		if got := o.State()[v]; got != d {
			t.Errorf("state[%v] = %d, want %d", v, got, d)
		}
	}
	live := 0
	for v, d := range o.State() {
		if d != 0 {
			if _, ok := want[v]; !ok {
				t.Errorf("unexpected state[%v] = %d", v, d)
			}
		}
		if d > 0 {
			live++
		}
	}
	if o.Live() != live {
		t.Errorf("Live = %d, %d values have positive multiplicity", o.Live(), live)
	}
}

func TestMapFilterAcrossEpochs(t *testing.T) {
	g := NewGraph()
	in := NewInput[int](g)
	doubled := Map(in.Collection(), func(x int) int { return 2 * x })
	evens := Filter(doubled, func(x int) bool { return x%4 == 0 })
	out := NewOutput(evens)

	in.Insert(1)
	in.Insert(2)
	in.Insert(3)
	g.MustAdvance()
	expectState(t, out, map[int]Diff{4: 1})

	in.Delete(2)
	in.Insert(4)
	g.MustAdvance()
	expectState(t, out, map[int]Diff{8: 1})
	if got := out.Changes()[4]; got != -1 {
		t.Errorf("change for 4 = %d, want -1", got)
	}
	if got := out.Changes()[8]; got != 1 {
		t.Errorf("change for 8 = %d, want +1", got)
	}
}

func TestFlatMapAndNegateConcat(t *testing.T) {
	g := NewGraph()
	in := NewInput[int](g)
	dup := FlatMap(in.Collection(), func(x int) []int { return []int{x, x + 100} })
	diff := Concat(dup, Negate(in.Collection()))
	out := NewOutput(diff)

	in.Insert(7)
	g.MustAdvance()
	expectState(t, out, map[int]Diff{107: 1}) // 7 cancels with its negation
}

func TestInputStateHelpers(t *testing.T) {
	g := NewGraph()
	in := NewInput[int](g)
	in.Insert(1)
	in.Insert(1) // multiplicity 2
	in.Insert(2)
	g.MustAdvance()
	if !in.Contains(1) || !in.Contains(2) || in.Contains(3) {
		t.Error("Contains wrong after insertions")
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	in.Update(1, -2)
	g.MustAdvance()
	if in.Contains(1) {
		t.Error("Contains(1) after full deletion")
	}
}

func TestDistinctCollapsesMultiplicity(t *testing.T) {
	g := NewGraph()
	in := NewInput[string](g)
	out := NewOutput(Distinct(in.Collection()))

	in.Insert("x")
	in.Insert("x")
	in.Insert("y")
	g.MustAdvance()
	expectState(t, out, map[string]Diff{"x": 1, "y": 1})

	in.Delete("x") // multiplicity 2 -> 1: still present
	g.MustAdvance()
	expectState(t, out, map[string]Diff{"x": 1, "y": 1})
	if len(out.Changes()) != 0 {
		t.Errorf("distinct changed on multiplicity drop: %v", out.Changes())
	}

	in.Delete("x") // 1 -> 0: gone
	g.MustAdvance()
	expectState(t, out, map[string]Diff{"y": 1})
}

func TestCount(t *testing.T) {
	g := NewGraph()
	in := NewInput[KV[string, int]](g)
	out := NewOutput(Count(in.Collection()))

	in.Insert(MkKV("a", 1))
	in.Insert(MkKV("a", 2))
	in.Insert(MkKV("b", 9))
	g.MustAdvance()
	expectState(t, out, map[KV[string, Diff]]Diff{
		MkKV("a", Diff(2)): 1,
		MkKV("b", Diff(1)): 1,
	})

	in.Delete(MkKV("a", 1))
	g.MustAdvance()
	expectState(t, out, map[KV[string, Diff]]Diff{
		MkKV("a", Diff(1)): 1,
		MkKV("b", Diff(1)): 1,
	})
}

func TestOutputValuesAndLen(t *testing.T) {
	g := NewGraph()
	in := NewInput[int](g)
	out := NewOutput(in.Collection())
	in.Insert(3)
	in.Insert(5)
	g.MustAdvance()
	if out.Len() != 2 || !out.Contains(3) || out.Contains(4) {
		t.Error("output state helpers wrong")
	}
	vals := out.Values()
	if len(vals) != 2 {
		t.Errorf("Values() = %v", vals)
	}
}

func TestConcatPanicsAcrossGraphs(t *testing.T) {
	g1, g2 := NewGraph(), NewGraph()
	a := NewInput[int](g1).Collection()
	b := NewInput[int](g2).Collection()
	defer func() {
		if recover() == nil {
			t.Fatal("Concat across graphs did not panic")
		}
	}()
	Concat(a, b)
}

func TestInspectSeesBatches(t *testing.T) {
	g := NewGraph()
	in := NewInput[int](g)
	var seen int
	out := NewOutput(Inspect(in.Collection(), func(_ int, batch []Entry[int]) {
		seen += len(batch)
	}))
	in.Insert(1)
	in.Insert(2)
	g.MustAdvance()
	if seen != 2 {
		t.Errorf("inspect saw %d entries, want 2", seen)
	}
	if out.Len() != 2 {
		t.Errorf("inspect did not pass batches through")
	}
}

func TestAdvanceAfterFailureReturnsError(t *testing.T) {
	g := NewGraph()
	g.MaxIter = 4
	in := NewInput[int](g)
	// Diverging loop: every iteration produces a brand-new value.
	Fixpoint(g, func(x Collection[int]) Collection[int] {
		bumped := Map(x, func(v int) int { return v + 1 })
		return Distinct(Concat(in.Collection(), bumped))
	})
	in.Insert(0)
	if _, err := g.Advance(); !errors.Is(err, ErrNonTermination) {
		t.Fatalf("diverging fixpoint: err = %v, want ErrNonTermination", err)
	}
	if _, err := g.Advance(); err == nil {
		t.Fatal("Advance after failure did not error")
	}
}
