package dd

import (
	"errors"
	"hash/maphash"
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
