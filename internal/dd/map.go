package dd

// Stateless operators. These fuse into the upstream emission path: they
// transform difference batches synchronously and never appear as
// scheduled graph nodes, so chains of Map/Filter cost a function call per
// batch, not a scheduling round-trip.
//
// Each operator owns one output buffer that it refills per batch:
// subscribers consume a batch before emit returns and never retain it
// (joins copy into their pending queues, reductions and sinks fold it
// in), so the buffer is free again by the time the operator sees its
// next batch.

// keepCap is the largest scratch buffer (in elements) an operator keeps
// from one epoch to the next. Within an epoch buffers only grow; at its
// end the few huge ones of a full evaluation are released to the
// collector and the small ones of incremental epochs stay for reuse.
const keepCap = 1024

// trim empties a scratch buffer at the end of an epoch, dropping an
// oversized one.
func trim[T any](buf []T) []T {
	if cap(buf) > keepCap {
		return nil
	}
	return buf[:0]
}

// Map transforms each element of c by f. f must be a pure function.
func Map[T comparable, U comparable](c Collection[T], f func(T) U) Collection[U] {
	out, p := newCollection[U](c.g)
	var buf []Entry[U]
	c.p.subscribe(func(iter int, batch []Entry[T]) {
		for _, e := range batch {
			buf = append(buf, Entry[U]{Val: f(e.Val), Diff: e.Diff})
		}
		p.emit(iter, buf)
		buf = buf[:0]
	})
	c.g.trimmers = append(c.g.trimmers, func() { buf = trim(buf) })
	return out
}

// Filter keeps the elements for which pred returns true.
func Filter[T comparable](c Collection[T], pred func(T) bool) Collection[T] {
	out, p := newCollection[T](c.g)
	var buf []Entry[T]
	c.p.subscribe(func(iter int, batch []Entry[T]) {
		// A batch that passes whole goes on as it is; copying starts at
		// the first rejected element.
		n := 0
		for n < len(batch) && pred(batch[n].Val) {
			n++
		}
		if n == len(batch) {
			p.emit(iter, batch)
			return
		}
		buf = append(buf, batch[:n]...)
		for _, e := range batch[n+1:] {
			if pred(e.Val) {
				buf = append(buf, e)
			}
		}
		p.emit(iter, buf)
		buf = buf[:0]
	})
	c.g.trimmers = append(c.g.trimmers, func() { buf = trim(buf) })
	return out
}

// Concat merges any number of collections (multiset union; multiplicities
// add).
func Concat[T comparable](cs ...Collection[T]) Collection[T] {
	if len(cs) == 0 {
		panic("dd: Concat of no collections")
	}
	out, p := newCollection[T](cs[0].g)
	for _, c := range cs {
		if c.g != cs[0].g {
			panic("dd: Concat across graphs")
		}
		c.p.subscribe(func(iter int, batch []Entry[T]) {
			p.emit(iter, batch)
		})
	}
	return out
}
