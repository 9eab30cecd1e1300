package dd

import (
	"cmp"
	"slices"
)

// Join matches records of a and b with equal keys and combines them with
// f. It is fully incremental and bilinear: a difference on either side is
// joined against the other side's accumulated trace, and the result is
// placed at the later of the two iterations involved (the least upper
// bound in differential-dataflow time).
func Join[K comparable, A comparable, B comparable, R comparable](
	a Collection[KV[K, A]], b Collection[KV[K, B]], f func(K, A, B) R,
) Collection[R] {
	if a.g != b.g {
		panic("dd: Join across graphs")
	}
	g := a.g
	out, p := newCollection[R](g)
	j := &joinNode[K, A, B, R]{
		g: g, f: f, out: p,
		arrA:  newArrangement[K, A](),
		arrB:  newArrangement[K, B](),
		pendA: make(map[int][]Entry[KV[K, A]]),
		pendB: make(map[int][]Entry[KV[K, B]]),
	}
	j.id = g.addNode(j, "join")
	g.trimmers = append(g.trimmers, func() { j.now = trim(j.now) })
	a.p.subscribe(func(iter int, batch []Entry[KV[K, A]]) {
		j.pendA[iter] = append(j.pendA[iter], batch...)
		g.schedule(j.id, iter)
	})
	b.p.subscribe(func(iter int, batch []Entry[KV[K, B]]) {
		j.pendB[iter] = append(j.pendB[iter], batch...)
		g.schedule(j.id, iter)
	})
	return out
}

type joinNode[K comparable, A comparable, B comparable, R comparable] struct {
	g   *Graph
	id  int
	f   func(K, A, B) R
	out *port[R]

	arrA  arrangement[K, A]
	arrB  arrangement[K, B]
	pendA map[int][]Entry[KV[K, A]]
	pendB map[int][]Entry[KV[K, B]]

	// now collects the results landing at the iteration being processed
	// (all of them, unless the other side has history at a later
	// iteration); later collects the rest. Both are reused across
	// activations (subscribers never retain a batch) and trimmed at the
	// end of the epoch.
	now   []Entry[R]
	later []laterEntry[R]
}

// emitNow sends the results collected in now at iteration iter.
func (j *joinNode[K, A, B, R]) emitNow(iter int) {
	if len(j.now) > 0 {
		j.g.emitted += int64(len(j.now))
		j.out.emit(iter, j.now)
		j.now = j.now[:0]
	}
}

// laterEntry is a join result placed at an iteration after the one that
// produced it.
type laterEntry[R comparable] struct {
	at int
	e  Entry[R]
}

// produce records one matched pair's result r, once per point of the
// arranged side's history.
func (j *joinNode[K, A, B, R]) produce(iter int, h *hist, r R, d Diff) {
	j.place(iter, h.first, r, d)
	for _, td := range h.more {
		j.place(iter, td, r, d)
	}
}

// place puts a result at the least upper bound of the two iterations
// involved: the one being processed, or the history point's if later.
func (j *joinNode[K, A, B, R]) place(iter int, td tdiff, r R, d Diff) {
	e := Entry[R]{Val: r, Diff: d * td.diff}
	if int(td.iter) <= iter {
		// A full evaluation's activation yields results by the ten
		// thousand: send them in batches of keepCap rather than grow
		// the buffer to hold them all. Subscribers cannot reach this
		// join's state at this iteration, so emitting mid-pass is safe.
		if j.now = append(j.now, e); len(j.now) == keepCap {
			j.emitNow(iter)
		}
	} else {
		j.later = append(j.later, laterEntry[R]{at: int(td.iter), e: e})
	}
}

func (j *joinNode[K, A, B, R]) process(iter int) {
	// Drain side A: join each difference against B's arrangement, then
	// merge it into A's arrangement. Doing A fully before B means the
	// cross term (deltaA x deltaB) is produced exactly once, by B's pass.
	if batch := j.pendA[iter]; len(batch) > 0 {
		delete(j.pendA, iter)
		j.g.stats.Entries += len(batch)
		for _, e := range batch {
			if gb := j.arrB.get(e.Val.K); gb != nil {
				for i := range gb.ents {
					be := &gb.ents[i]
					j.produce(iter, &be.h, j.f(e.Val.K, e.Val.V, be.val), e.Diff)
				}
			}
			j.arrA.add(e.Val.K, e.Val.V, iter, e.Diff)
		}
	}

	if batch := j.pendB[iter]; len(batch) > 0 {
		delete(j.pendB, iter)
		j.g.stats.Entries += len(batch)
		for _, e := range batch {
			if ga := j.arrA.get(e.Val.K); ga != nil {
				for i := range ga.ents {
					ae := &ga.ents[i]
					j.produce(iter, &ae.h, j.f(e.Val.K, ae.val, e.Val.V), e.Diff)
				}
			}
			j.arrB.add(e.Val.K, e.Val.V, iter, e.Diff)
		}
	}

	j.emitNow(iter)
	if len(j.later) == 0 {
		return
	}
	// A difference met history from a later iteration. Inside a fixpoint
	// every retraction does (an adjacency withdrawn at iteration 0 meets
	// routes recorded at later ones), so this path runs on every link
	// flap. Emit in ascending iteration order, one batch per iteration.
	slices.SortStableFunc(j.later, func(a, b laterEntry[R]) int { return cmp.Compare(a.at, b.at) })
	for lo := 0; lo < len(j.later); {
		hi := lo
		for hi < len(j.later) && j.later[hi].at == j.later[lo].at {
			j.now = append(j.now, j.later[hi].e)
			hi++
		}
		j.emitNow(j.later[lo].at)
		lo = hi
	}
	j.later = j.later[:0]
}
