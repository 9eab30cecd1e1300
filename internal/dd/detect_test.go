package dd

import (
	"errors"
	"hash/maphash"
	"reflect"
	"testing"
)

var testSeed = maphash.MakeSeed()

func hashStrings(kv KV[string, string]) uint64 {
	return Mix(maphash.String(testSeed, kv.K), maphash.String(testSeed, kv.V))
}

func hashInts(kv KV[int, int]) uint64 { return Mix(Mix(0, uint64(kv.K)), uint64(kv.V)) }

// TestDetectorCatchesOscillation models the classic unstable
// configuration: a derivation that holds exactly when it does not hold
// (X = seed ANTIJOIN keys(X)), the shape of a BGP dispute wheel. The
// fixpoint alternates between {seed} and {} forever; the detector must
// abort with ErrRecurringState well before MaxIter.
func TestDetectorCatchesOscillation(t *testing.T) {
	g := NewGraph()
	g.MaxIter = 1 << 20 // detector must fire long before this
	seed := NewInput[KV[string, string]](g)
	var watched Collection[KV[string, string]]
	Fixpoint(g, func(x Collection[KV[string, string]]) Collection[KV[string, string]] {
		out := AntiJoin(seed.Collection(), Map(x, func(kv KV[string, string]) string { return kv.K }))
		watched = out
		return out
	})
	Watch(watched, "oscillator", hashStrings)

	seed.Insert(MkKV("k", "v"))
	_, err := g.Advance()
	if !errors.Is(err, ErrRecurringState) {
		t.Fatalf("err = %v, want ErrRecurringState", err)
	}
}

// TestDetectorSilentOnConvergence checks that a well-behaved fixpoint is
// not flagged.
func TestDetectorSilentOnConvergence(t *testing.T) {
	p := newSPProgram(0)
	Watch(p.distC, "sp", hashInts)
	p.edges.Insert(spEdge{1, 0, 1})
	p.edges.Insert(spEdge{2, 1, 1})
	if _, err := p.g.Advance(); err != nil {
		t.Fatalf("converging fixpoint flagged: %v", err)
	}
	// A second epoch with a retraction must also pass.
	p.edges.Delete(spEdge{2, 1, 1})
	if _, err := p.g.Advance(); err != nil {
		t.Fatalf("second epoch flagged: %v", err)
	}
}

// TestFingerprintCancelsRetraction checks the fold's algebra: a value
// inserted and retracted within one iteration leaves the fingerprint
// where it was, while the same values left standing move it.
func TestFingerprintCancelsRetraction(t *testing.T) {
	g := NewGraph()
	in := NewInput[KV[int, int]](g)
	c := in.Collection()
	cancelled := Watch(Concat(c, Negate(c)), "cancelled", hashInts)
	kept := Watch(c, "kept", hashInts)
	for i := 0; i < 8; i++ {
		in.Insert(MkKV(i, i*i))
	}
	g.MustAdvance()
	// Input differences land at iteration 0; observing iteration 1
	// folds them into the fingerprints.
	for _, d := range []*Detector{cancelled, kept} {
		if err := d.observe(1); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
	}
	if cancelled.fp != 0 {
		t.Errorf("inserted and retracted values moved the fingerprint to %#x", cancelled.fp)
	}
	if kept.fp == 0 {
		t.Error("standing values left the fingerprint at 0")
	}
}

// oscillator adds the AntiJoin oscillator of TestDetectorCatchesOscillation
// to g, watched, and returns its seed input.
func oscillator(g *Graph) *Input[KV[string, string]] {
	seed := NewInput[KV[string, string]](g)
	var watched Collection[KV[string, string]]
	Fixpoint(g, func(x Collection[KV[string, string]]) Collection[KV[string, string]] {
		watched = AntiJoin(seed.Collection(), Map(x, func(kv KV[string, string]) string { return kv.K }))
		return watched
	})
	Watch(watched, "oscillator", hashStrings)
	return seed
}

// TestDetectorLaterEpochMatchesFresh starts the oscillator in a second
// epoch, after a first epoch whose shortest-path fixpoint ran 16
// iterations deep: the oscillation must be reported at the same
// iterations as on a fresh graph, not once the second epoch passes the
// first one's depth.
func TestDetectorLaterEpochMatchesFresh(t *testing.T) {
	g := NewGraph()
	fresh := oscillator(g)
	fresh.Insert(MkKV("k", "v"))
	_, want := g.Advance()
	if !errors.Is(want, ErrRecurringState) {
		t.Fatalf("fresh graph: err = %v, want ErrRecurringState", want)
	}

	p := newSPProgram(0)
	Watch(p.distC, "sp", hashInts)
	later := oscillator(p.g)
	for i := 1; i <= 15; i++ {
		p.edges.Insert(spEdge{i, i - 1, 1})
	}
	st, err := p.g.Advance()
	if err != nil {
		t.Fatalf("first epoch: %v", err)
	}
	if st.Iterations < 15 {
		t.Fatalf("first epoch ran %d iterations, want a deep one", st.Iterations)
	}
	later.Insert(MkKV("k", "v"))
	_, got := p.g.Advance()
	if got == nil || got.Error() != want.Error() {
		t.Fatalf("second epoch: err = %v, want %v", got, want)
	}
}

// TestDetectorLaterEpochTransient: a second epoch that reaches a node
// two iterations earlier than the first did retracts, at the first
// epoch's iteration, the entry the first epoch added there. The state
// never recurs, so the epoch must converge; a fingerprint that started
// the epoch from the first one's final state would see it return to
// the state of iteration 2 at iteration 5.
func TestDetectorLaterEpochTransient(t *testing.T) {
	p := newSPProgram(0)
	Watch(p.distC, "sp", hashInts)
	for i := 1; i <= 4; i++ {
		p.edges.Insert(spEdge{i, i - 1, 1})
	}
	if _, err := p.g.Advance(); err != nil {
		t.Fatalf("first epoch: %v", err)
	}
	// 5 is one hop from 0, and 4 two hops (via 5) at the cost it had.
	p.edges.Insert(spEdge{5, 0, 1})
	p.edges.Insert(spEdge{4, 5, 3})
	if _, err := p.g.Advance(); err != nil {
		t.Fatalf("converging second epoch rejected: %v", err)
	}
	got := map[int]int{}
	for _, kv := range p.out.Values() {
		got[kv.K] = kv.V
	}
	want := map[int]int{0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distances %v, want %v", got, want)
	}
}
