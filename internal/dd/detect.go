package dd

import (
	"fmt"
	"math/rand/v2"
)

// ErrRecurringState is reported when a watched fixpoint revisits a state
// it has already been in during the current epoch without having
// converged: the evaluation is oscillating and would never terminate.
// The paper (section 6) identifies detecting such recurring states -
// e.g. BGP configurations with no stable solution or with route-update
// races - as future work; this detector implements it.
var ErrRecurringState = fmt.Errorf("dd: recurring state detected (oscillating fixpoint)")

// Detector watches a collection (typically a loop's output) and aborts
// the epoch if the collection's accumulated state recurs across
// iterations, which means the fixpoint is cycling rather than converging.
// Detection is by order-independent 64-bit fingerprint; a false positive
// requires a fingerprint collision (probability ~2^-64 per pair for
// distinct tuple hashes).
type Detector struct {
	name string
	seed uint64

	// sums[j] is the fingerprint delta at iteration j summed over every
	// epoch so far. In differential dataflow's product order the
	// collection's state at epoch e, iteration i is the sum of sums[j]
	// over j <= i once epoch e's deltas at those iterations are in, so
	// an earlier epoch's deltas at deeper iterations stay out of it.
	sums    []Diff
	applied int    // this epoch's fp sums sums[j] for j < applied
	fp      uint64 // the state at iteration applied-1
	lastFP  uint64
	seen    map[uint64]int // fingerprint -> first iteration seen this epoch
}

// Mix folds the word x into the running hash h: a golden-ratio step and
// splitmix64's finalizer, a bijection of h^x. Callers of Watch build a
// tuple's hash by folding its fixed-width fields in a fixed order, so
// two tuples that differ in one field never share a hash.
func Mix(h, x uint64) uint64 {
	z := (h ^ x) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Watch attaches a recurring-state detector to c. The name appears in
// error messages; hash maps each tuple to 64 bits, which the detector
// salts with a seed of its own (see Mix for building one).
func Watch[T comparable](c Collection[T], name string, hash func(T) uint64) *Detector {
	d := &Detector{
		name: name,
		seed: rand.Uint64(),
		seen: make(map[uint64]int),
	}
	c.p.subscribe(func(iter int, batch []Entry[T]) {
		// Commutative fold: each present value contributes its salted
		// hash times its multiplicity (mod 2^64), so the fingerprint is
		// independent of arrival order and cancels exactly on retraction.
		var delta Diff
		for _, e := range batch {
			delta += Diff(Mix(d.seed, hash(e.Val))) * e.Diff
		}
		for len(d.sums) <= iter {
			d.sums = append(d.sums, 0)
		}
		d.sums[iter] += delta
	})
	c.g.detectors = append(c.g.detectors, d)
	c.g.resetters = append(c.g.resetters, func() {
		clear(d.seen)
		d.applied, d.fp, d.lastFP = 0, 0, 0
	})
	return d
}

// observe is called by the scheduler when iteration iter begins; all
// differences at earlier iterations are final at that point, so fp
// becomes the state the epoch has reached: the sum of sums[j], j < iter.
func (d *Detector) observe(iter int) error {
	for ; d.applied < iter; d.applied++ {
		if d.applied < len(d.sums) {
			d.fp += uint64(d.sums[d.applied])
		}
	}
	if d.fp == d.lastFP {
		return nil // quiescent or unchanged since last look
	}
	d.lastFP = d.fp
	if first, ok := d.seen[d.fp]; ok {
		return fmt.Errorf("%w: %s repeated state of iteration %d at iteration %d", ErrRecurringState, d.name, first, iter)
	}
	d.seen[d.fp] = iter
	return nil
}
