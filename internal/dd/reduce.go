package dd

// Group is one element of a reduction group: a value and its accumulated
// multiplicity (always positive when presented to a reduction function).
type Group[V comparable] struct {
	Val   V
	Count Diff
}

// reduceInto groups the records of c by key and applies f to each
// group's accumulated contents (in unspecified order); f appends the
// key's results to dst and returns it, so the reductions run without
// allocating a result slice per key. It also returns the node, whose
// output groups Arranged reads.
//
// Reduction is the non-monotonic operation that makes incremental
// control plane simulation hard (best-route selection *replaces*
// results rather than accumulating them). It is exact under retraction:
// when a key's input changes at some iteration, the key is re-evaluated
// at that iteration and additionally at every later iteration where it
// has history, the "interesting times" rule of differential dataflow.
//
// Arriving differences are merged into their keys' input groups at once
// (a batch is consumed before its emitter returns), and only the key's
// slot id is queued for the arrival's iteration. Merging early is exact:
// an evaluation at iteration i reads upTo(i), which points at later
// iterations do not change.
func reduceInto[K comparable, V comparable, R comparable](
	c Collection[KV[K, V]], f func(k K, group []Group[V], dst []R) []R,
) (Collection[KV[K, R]], *reduceNode[K, V, R]) {
	g := c.g
	out, p := newCollection[KV[K, R]](g)
	r := &reduceNode[K, V, R]{g: g, f: f, out: p, keys: newSlab[K, reduceKey[K, V, R]]()}
	r.id = g.addNode(r, "reduce")
	g.trimmers = append(g.trimmers, r.trim)
	c.p.subscribe(func(iter int, batch []Entry[KV[K, V]]) {
		r.arrived += len(batch)
		for _, e := range batch {
			i, fresh := r.keys.acquire(e.Val.K)
			rk := r.keys.at(i)
			if fresh {
				rk.key, rk.sched, rk.last = e.Val.K, -1, -1
			}
			rk.in.add(e.Val.V, iter, e.Diff)
			if rk.last != iter { // else queued here already, and not yet drained
				r.enqueue(i, iter)
			}
		}
		g.schedule(r.id, iter)
	})
	return out, r
}

// reduceKey is one key's state: its input group, the output it has
// emitted so far, and scheduling marks.
type reduceKey[K comparable, V comparable, R comparable] struct {
	key K
	in  group[V]
	out group[R]
	// tick is the activation that last evaluated this key.
	tick uint64
	// sched is the later iteration the interesting-times chain queued
	// this key for (-1 = none). Only the next interesting time is ever
	// queued; evaluating there queues the one after.
	sched int
	// last is the latest iteration at which the queue holds this slot
	// (-1 = none). The slot is released only while it is -1, so no
	// queued id ever names a free or reused slot.
	last int
}

type reduceNode[K comparable, V comparable, R comparable] struct {
	g   *Graph
	id  int
	f   func(K, []Group[V], []R) []R
	out *port[KV[K, R]]

	keys slab[K, reduceKey[K, V, R]]

	// queue[i] holds the slots to evaluate at iteration i: keys whose
	// input changed there and keys the interesting-times chain queued.
	// A slot may appear more than once; tick dedupes.
	queue [][]int32
	// arrived counts the difference entries received since the last
	// activation, which charges them to EpochStats.Entries.
	arrived int

	// Scratch reused across activations, trimmed at the end of the epoch.
	tick  uint64
	group []Group[V]
	res   []R
	want  group[R] // res as a multiset: one entry per distinct value
	emit  []Entry[KV[K, R]]
}

// enqueue queues slot i for evaluation at iteration iter.
func (r *reduceNode[K, V, R]) enqueue(i int32, iter int) {
	for iter >= len(r.queue) {
		r.queue = append(r.queue, nil)
	}
	r.queue[iter] = append(r.queue[iter], i)
	if rk := r.keys.at(i); iter > rk.last {
		rk.last = iter
	}
}

// trim releases the scratch and queue buffers a large epoch grew. Every
// queue is empty at the end of an epoch.
func (r *reduceNode[K, V, R]) trim() {
	r.emit = trim(r.emit)
	if len(r.queue) > keepCap {
		r.queue = nil
	}
	for i := range r.queue {
		r.queue[i] = trim(r.queue[i])
	}
}

func (r *reduceNode[K, V, R]) process(iter int) {
	r.tick++
	r.g.stats.Entries += r.arrived
	r.arrived = 0
	if iter >= len(r.queue) {
		return
	}
	work := r.queue[iter]
	r.emit = r.emit[:0]
	for _, i := range work {
		rk := r.keys.at(i)
		if rk.tick == r.tick {
			continue
		}
		rk.tick = r.tick
		if rk.last == iter {
			rk.last = -1 // this activation drains the slot's last queue entry
		}
		// Accumulate the input group as of this iteration.
		r.group = r.group[:0]
		for n := range rk.in.ents {
			if c := rk.in.ents[n].h.upTo(iter); c > 0 {
				r.group = append(r.group, Group[V]{Val: rk.in.ents[n].val, Count: c})
			}
		}
		r.res = r.res[:0]
		if len(r.group) > 0 {
			r.res = r.f(rk.key, r.group, r.res)
		}
		// Diff against the accumulated output and merge the corrections
		// into the output history. Corrections land at iter, so they do
		// not disturb the accumulations (upTo(iter) of other values) or
		// the later interesting times read below.
		mark := len(r.emit)
		r.corrections(rk, iter)
		for _, e := range r.emit[mark:] {
			rk.out.add(e.Val.V, iter, e.Diff)
		}
		// Schedule re-evaluation at the next later iteration where this
		// key has input or output history: a change "now" alters the
		// accumulation that time sees. (Evaluating there schedules the
		// one after, so every later interesting time is visited.)
		next := rk.in.nextAbove(iter)
		if n := rk.out.nextAbove(iter); n >= 0 && (next < 0 || n < next) {
			next = n
		}
		switch {
		case next < 0:
			rk.sched = -1
			// An empty key still queued at a later iteration (its
			// arrivals there cancelled) is released by that activation.
			if len(rk.in.ents) == 0 && len(rk.out.ents) == 0 && rk.last < 0 {
				r.keys.release(rk.key, i)
			}
		case rk.sched != next:
			rk.sched = next
			r.enqueue(i, next)
			r.g.schedule(r.id, next)
		}
	}
	r.queue[iter] = work[:0]
	if len(r.emit) > 0 {
		r.g.emitted += int64(len(r.emit))
		r.out.emit(iter, r.emit)
	}
}

// corrections appends to r.emit the differences between the wanted
// output r.res (a multiset: repeats raise the multiplicity) and the
// key's accumulated output as of iter.
func (r *reduceNode[K, V, R]) corrections(rk *reduceKey[K, V, R], iter int) {
	r.want.reset()
	for _, v := range r.res {
		r.want.add(v, 0, 1)
	}
	for n := range rk.out.ents {
		oe := &rk.out.ents[n]
		var want Diff
		if i := r.want.find(oe.val); i >= 0 {
			want = r.want.ents[i].h.first.diff
		}
		if d := want - oe.h.upTo(iter); d != 0 {
			r.emit = append(r.emit, Entry[KV[K, R]]{Val: KV[K, R]{K: rk.key, V: oe.val}, Diff: d})
		}
	}
	for n := range r.want.ents { // in order of first appearance in res
		we := &r.want.ents[n]
		if rk.out.find(we.val) < 0 {
			r.emit = append(r.emit, Entry[KV[K, R]]{Val: KV[K, R]{K: rk.key, V: we.val}, Diff: we.h.first.diff})
		}
	}
}

// Distinct converts a multiset into a set: every value with positive
// accumulated multiplicity appears exactly once.
func Distinct[T comparable](c Collection[T]) Collection[T] {
	keyed := Map(c, func(t T) KV[T, struct{}] { return KV[T, struct{}]{K: t} })
	reduced, _ := reduceInto(keyed, func(_ T, _ []Group[struct{}], dst []struct{}) []struct{} {
		return append(dst, struct{}{})
	})
	return Map(reduced, func(kv KV[T, struct{}]) T { return kv.K })
}

// ReduceMin keeps, per key, the single least value according to less.
// Ties are broken towards the value that less orders first; less must be
// a strict weak ordering so the result is deterministic.
func ReduceMin[K comparable, V comparable](c Collection[KV[K, V]], less func(a, b V) bool) Collection[KV[K, V]] {
	out, _ := ReduceMinArranged(c, less)
	return out
}

// ReduceMinArranged is ReduceMin that also returns a read handle on the
// reduction's accumulated output, so a consumer that only inspects the
// result needs no materializing sink of its own.
func ReduceMinArranged[K comparable, V comparable](c Collection[KV[K, V]], less func(a, b V) bool) (Collection[KV[K, V]], Arranged[K, V]) {
	out, r := reduceInto(c, func(_ K, group []Group[V], dst []V) []V {
		best := group[0].Val
		for _, g := range group[1:] {
			if less(g.Val, best) {
				best = g.Val
			}
		}
		return append(dst, best)
	})
	return out, Arranged[K, V]{r: r}
}

// Arranged reads a reduction's accumulated output where the reduction
// keeps it: the emitted-output group of every key. Between epochs it
// equals what a dd.Output attached to the reduction's collection holds.
type Arranged[K comparable, V comparable] struct {
	r *reduceNode[K, V, V]
}

// Each calls f for every (key, value) with non-zero accumulated
// multiplicity, in unspecified order. f must not advance the graph.
func (a Arranged[K, V]) Each(f func(k K, v V, d Diff)) {
	a.r.keys.each(func(rk *reduceKey[K, V, V]) {
		for n := range rk.out.ents {
			if d := rk.out.ents[n].h.sum(); d != 0 {
				f(rk.key, rk.out.ents[n].val, d)
			}
		}
	})
}
