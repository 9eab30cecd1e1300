package dd

// Group is one element of a reduction group: a value and its accumulated
// multiplicity (always positive when presented to a reduction function).
type Group[V comparable] struct {
	Val   V
	Count Diff
}

// Reduce groups the records of c by key and applies f to each group's
// accumulated contents, producing zero or more results per key (each with
// multiplicity one; return a value twice for multiplicity two). f must be
// pure and order-independent: the group slice is in unspecified order.
//
// Reduce is the non-monotonic operator that makes incremental control
// plane simulation hard (best-route selection *replaces* results rather
// than accumulating them). It is exact under retraction: when a key's
// input changes at some iteration, the key is re-evaluated at that
// iteration and additionally at every later iteration where it has
// history, the "interesting times" rule of differential dataflow.
func Reduce[K comparable, V comparable, R comparable](
	c Collection[KV[K, V]], f func(k K, group []Group[V]) []R,
) Collection[KV[K, R]] {
	return reduceInto(c, func(k K, group []Group[V], dst []R) []R {
		return append(dst, f(k, group)...)
	})
}

// reduceInto is Reduce with an appending reduction function: f appends
// the key's results to dst and returns it, so built-in reductions run
// without allocating a result slice per key.
func reduceInto[K comparable, V comparable, R comparable](
	c Collection[KV[K, V]], f func(k K, group []Group[V], dst []R) []R,
) Collection[KV[K, R]] {
	g := c.g
	out, p := newCollection[KV[K, R]](g)
	r := &reduceNode[K, V, R]{
		g: g, f: f, out: p,
		keys:     newSlab[K, reduceKey[K, V, R]](),
		pend:     make(map[int][]Entry[KV[K, V]]),
		pendKeys: make(map[int][]int32),
	}
	r.id = g.addNode(r, "reduce")
	g.trimmers = append(g.trimmers, func() { r.work, r.emit = trim(r.work), trim(r.emit) })
	c.p.subscribe(func(iter int, batch []Entry[KV[K, V]]) {
		r.pend[iter] = append(r.pend[iter], batch...)
		g.schedule(r.id, iter)
	})
	return out
}

// reduceKey is one key's state: its input group, the output it has
// emitted so far, and scheduling marks.
type reduceKey[K comparable, V comparable, R comparable] struct {
	key K
	in  group[V]
	out group[R]
	// tick is the activation that last put this key on the work list.
	tick uint64
	// sched is the later iteration this key is queued for (-1 = none).
	// Only the next interesting time is ever queued; evaluating there
	// queues the one after.
	sched int
}

type reduceNode[K comparable, V comparable, R comparable] struct {
	g   *Graph
	id  int
	f   func(K, []Group[V], []R) []R
	out *port[KV[K, R]]

	keys slab[K, reduceKey[K, V, R]]

	pend     map[int][]Entry[KV[K, V]]
	pendKeys map[int][]int32 // iteration -> key slots to re-evaluate

	// Scratch reused across activations, trimmed at the end of the epoch.
	tick  uint64
	work  []int32
	group []Group[V]
	res   []R
	want  group[R] // res as a multiset: one entry per distinct value
	emit  []Entry[KV[K, R]]
}

func (r *reduceNode[K, V, R]) process(iter int) {
	r.tick++
	r.work = r.work[:0]
	if batch := r.pend[iter]; len(batch) > 0 {
		delete(r.pend, iter)
		r.g.stats.Entries += len(batch)
		for _, e := range batch {
			i, fresh := r.keys.acquire(e.Val.K)
			rk := &r.keys.slots[i]
			if fresh {
				rk.key, rk.sched = e.Val.K, -1
			}
			rk.in.add(e.Val.V, iter, e.Diff)
			if rk.tick != r.tick {
				rk.tick = r.tick
				r.work = append(r.work, i)
			}
		}
	}
	if pk := r.pendKeys[iter]; len(pk) > 0 {
		delete(r.pendKeys, iter)
		for _, i := range pk {
			// A queued slot cannot have been freed: it had history at
			// this iteration, which only this activation can cancel.
			if rk := &r.keys.slots[i]; rk.tick != r.tick {
				rk.tick = r.tick
				r.work = append(r.work, i)
			}
		}
	}

	r.emit = r.emit[:0]
	for _, i := range r.work {
		rk := &r.keys.slots[i]
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
			if len(rk.in.ents) == 0 && len(rk.out.ents) == 0 {
				r.keys.release(rk.key, i)
			}
		case rk.sched != next:
			rk.sched = next
			r.pendKeys[next] = append(r.pendKeys[next], i)
			r.g.schedule(r.id, next)
		}
	}
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
	reduced := reduceInto(keyed, func(_ T, _ []Group[struct{}], dst []struct{}) []struct{} {
		return append(dst, struct{}{})
	})
	return Map(reduced, func(kv KV[T, struct{}]) T { return kv.K })
}

// Count reduces each key to the total multiplicity of its group.
func Count[K comparable, V comparable](c Collection[KV[K, V]]) Collection[KV[K, Diff]] {
	return reduceInto(c, func(_ K, group []Group[V], dst []Diff) []Diff {
		var n Diff
		for _, g := range group {
			n += g.Count
		}
		return append(dst, n)
	})
}

// ReduceMin keeps, per key, the single least value according to less.
// Ties are broken towards the value that less orders first; less must be
// a strict weak ordering so the result is deterministic.
func ReduceMin[K comparable, V comparable](c Collection[KV[K, V]], less func(a, b V) bool) Collection[KV[K, V]] {
	return reduceInto(c, func(_ K, group []Group[V], dst []V) []V {
		best := group[0].Val
		for _, g := range group[1:] {
			if less(g.Val, best) {
				best = g.Val
			}
		}
		return append(dst, best)
	})
}
