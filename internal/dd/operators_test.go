package dd

// Operators the generator does not use. The package's tests build their
// graphs with them (the random graphs of property_test.go, the
// oscillation cases of detect_test.go, the operator tests), so they live
// here, beside those tests, and the engine holds only what
// internal/routing calls.

// JoinKeys is Join retaining both values under their key.
func JoinKeys[K comparable, A comparable, B comparable](
	a Collection[KV[K, A]], b Collection[KV[K, B]],
) Collection[KV[K, KV[A, B]]] {
	return Join(a, b, func(k K, av A, bv B) KV[K, KV[A, B]] {
		return KV[K, KV[A, B]]{K: k, V: KV[A, B]{K: av, V: bv}}
	})
}

// SemiJoin keeps the records of a whose key appears in keys (made
// distinct first, so multiplicities of keys do not inflate the result).
func SemiJoin[K comparable, A comparable](a Collection[KV[K, A]], keys Collection[K]) Collection[KV[K, A]] {
	marked := Map(Distinct(keys), func(k K) KV[K, struct{}] { return KV[K, struct{}]{K: k} })
	return Join(a, marked, func(k K, av A, _ struct{}) KV[K, A] { return KV[K, A]{K: k, V: av} })
}

// AntiJoin keeps the records of a whose key does NOT appear in keys.
func AntiJoin[K comparable, A comparable](a Collection[KV[K, A]], keys Collection[K]) Collection[KV[K, A]] {
	return Concat(a, Negate(SemiJoin(a, keys)))
}

// FlatMap transforms each element into zero or more elements. f must be
// pure; the multiplicity of each produced element follows the source.
func FlatMap[T comparable, U comparable](c Collection[T], f func(T) []U) Collection[U] {
	out, p := newCollection[U](c.g)
	var buf []Entry[U]
	c.p.subscribe(func(iter int, batch []Entry[T]) {
		for _, e := range batch {
			for _, u := range f(e.Val) {
				buf = append(buf, Entry[U]{Val: u, Diff: e.Diff})
			}
		}
		p.emit(iter, buf)
		buf = buf[:0]
	})
	c.g.trimmers = append(c.g.trimmers, func() { buf = trim(buf) })
	return out
}

// Negate flips the sign of every multiplicity. Combined with Concat it
// expresses subtraction.
func Negate[T comparable](c Collection[T]) Collection[T] {
	out, p := newCollection[T](c.g)
	var buf []Entry[T]
	c.p.subscribe(func(iter int, batch []Entry[T]) {
		for _, e := range batch {
			buf = append(buf, Entry[T]{Val: e.Val, Diff: -e.Diff})
		}
		p.emit(iter, buf)
		buf = buf[:0]
	})
	c.g.trimmers = append(c.g.trimmers, func() { buf = trim(buf) })
	return out
}

// Inspect invokes f on every difference batch flowing through c, for
// debugging and instrumentation, and passes the batch on unchanged. f
// must not retain the batch: operators reuse their buffers.
func Inspect[T comparable](c Collection[T], f func(iter int, batch []Entry[T])) Collection[T] {
	out, p := newCollection[T](c.g)
	c.p.subscribe(func(iter int, batch []Entry[T]) {
		f(iter, batch)
		p.emit(iter, batch)
	})
	return out
}

// Reduce groups the records of c by key and applies f to each group's
// accumulated contents, producing zero or more results per key (each with
// multiplicity one; return a value twice for multiplicity two). f must be
// pure and order-independent: the group slice is in unspecified order.
func Reduce[K comparable, V comparable, R comparable](
	c Collection[KV[K, V]], f func(k K, group []Group[V]) []R,
) Collection[KV[K, R]] {
	out, _ := reduceInto(c, func(k K, group []Group[V], dst []R) []R {
		return append(dst, f(k, group)...)
	})
	return out
}

// Count reduces each key to the total multiplicity of its group.
func Count[K comparable, V comparable](c Collection[KV[K, V]]) Collection[KV[K, Diff]] {
	out, _ := reduceInto(c, func(_ K, group []Group[V], dst []Diff) []Diff {
		var n Diff
		for _, g := range group {
			n += g.Count
		}
		return append(dst, n)
	})
	return out
}
