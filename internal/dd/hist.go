package dd

import "math/bits"

// tdiff is one point of a value's history: the cumulative signed diff the
// value received at a given iteration, summed over all completed epochs
// and the current one.
type tdiff struct {
	iter int32
	diff Diff
}

// hist is a value's per-iteration history, sorted by iteration. The
// earliest point sits inline: outside a retracting fixpoint a value is
// touched at exactly one iteration, so the common history costs no
// allocation and no pointer chase. Later points overflow into more.
// Histories are small (bounded by the number of loop iterations the
// value was ever active at), so linear operations are fine.
//
// The zero hist is empty; a non-empty hist never holds a zero diff.
type hist struct {
	first tdiff
	more  []tdiff
}

func (h *hist) empty() bool { return h.first.diff == 0 }

// add merges a diff at an iteration into the history, keeping it sorted
// and dropping points that cancel to zero.
func (h *hist) add(iter int, d Diff) {
	if d == 0 {
		return
	}
	it := int32(iter)
	switch {
	case h.first.diff == 0:
		h.first = tdiff{iter: it, diff: d}
		return
	case it == h.first.iter:
		h.first.diff += d
		if h.first.diff == 0 && len(h.more) > 0 {
			h.first = h.more[0]
			h.more = h.more[:copy(h.more, h.more[1:])]
		}
		return
	case it < h.first.iter:
		h.more = append(h.more, tdiff{})
		copy(h.more[1:], h.more)
		h.more[0] = h.first
		h.first = tdiff{iter: it, diff: d}
		return
	}
	i := 0
	for i < len(h.more) && h.more[i].iter < it {
		i++
	}
	if i < len(h.more) && h.more[i].iter == it {
		h.more[i].diff += d
		if h.more[i].diff == 0 {
			h.more = h.more[:i+copy(h.more[i:], h.more[i+1:])]
		}
		return
	}
	h.more = append(h.more, tdiff{})
	copy(h.more[i+1:], h.more[i:])
	h.more[i] = tdiff{iter: it, diff: d}
}

// upTo sums the history's diffs at iterations <= iter: the value's
// accumulated multiplicity as of (current epoch, iter).
func (h *hist) upTo(iter int) Diff {
	if h.first.diff == 0 || int(h.first.iter) > iter {
		return 0
	}
	sum := h.first.diff
	for _, td := range h.more {
		if int(td.iter) > iter {
			break
		}
		sum += td.diff
	}
	return sum
}

// sum is the total of the history's diffs: the value's accumulated
// multiplicity once the epoch is complete.
func (h *hist) sum() Diff {
	s := h.first.diff
	for _, td := range h.more {
		s += td.diff
	}
	return s
}

// nextAbove returns the least iteration strictly greater than iter at
// which this history has a point, or -1.
func (h *hist) nextAbove(iter int) int {
	if h.first.diff == 0 {
		return -1
	}
	if int(h.first.iter) > iter {
		return int(h.first.iter)
	}
	for _, td := range h.more {
		if int(td.iter) > iter {
			return int(td.iter)
		}
	}
	return -1
}

// linearMax is the group size up to which values are found by scanning;
// larger groups carry a hash index. Routing groups (candidates per
// destination, adjacencies per device) stay below it, where a scan over
// one contiguous slice beats hashing; the index keeps the per-device
// route arrangement (one value per prefix) from going quadratic.
const linearMax = 16

// gent is one value of a group with its history.
type gent[V comparable] struct {
	val V
	h   hist
}

// group is the flat per-key storage of stateful operators: the key's
// values with their histories in one slice. With pointer-free V the
// slice is all the garbage collector sees of the group.
type group[V comparable] struct {
	ents  []gent[V]
	index map[V]int32 // position in ents; nil while len(ents) <= linearMax
}

func (g *group[V]) find(val V) int {
	if g.index != nil {
		if i, ok := g.index[val]; ok {
			return int(i)
		}
		return -1
	}
	for i := range g.ents {
		if g.ents[i].val == val {
			return i
		}
	}
	return -1
}

// add merges a diff for val at iter, dropping values whose history
// empties (the last entry moves into the hole, so order within a group
// is arbitrary but a function of the update history alone).
func (g *group[V]) add(val V, iter int, d Diff) {
	i := g.find(val)
	if i < 0 {
		if d == 0 {
			return
		}
		g.ents = append(g.ents, gent[V]{val: val, h: hist{first: tdiff{iter: int32(iter), diff: d}}})
		switch {
		case g.index != nil:
			g.index[val] = int32(len(g.ents) - 1)
		case len(g.ents) > linearMax:
			g.index = make(map[V]int32, 2*len(g.ents))
			for j := range g.ents {
				g.index[g.ents[j].val] = int32(j)
			}
		}
		return
	}
	g.ents[i].h.add(iter, d)
	if !g.ents[i].h.empty() {
		return
	}
	last := len(g.ents) - 1
	if g.index != nil {
		delete(g.index, val)
		if i != last {
			g.index[g.ents[last].val] = int32(i)
		}
	}
	g.ents[i] = g.ents[last]
	g.ents[last] = gent[V]{}
	g.ents = g.ents[:last]
	if len(g.ents) == 0 {
		g.index = nil
	}
}

// reset empties the group, keeping its slice.
func (g *group[V]) reset() {
	clear(g.ents)
	g.ents, g.index = g.ents[:0], nil
}

// nextAbove returns the least iteration strictly greater than iter at
// which any value of the group has history, or -1.
func (g *group[V]) nextAbove(iter int) int {
	next := -1
	for i := range g.ents {
		if n := g.ents[i].h.nextAbove(iter); n >= 0 && (next < 0 || n < next) {
			next = n
		}
	}
	return next
}

// slab stores one T per live key: a pointer-free key map into slots.
// Released slots go on a free list and are handed out again as they
// are, so slice capacity inside T serves the next key. Slots live in
// chunks that double in size (chunk c holds 1<<(c+slabBits) slots), so
// growing allocates each slot once and never copies one, and a slot's
// address is stable.
type slab[K comparable, T any] struct {
	idx    map[K]int32
	chunks [][]T
	n      int32 // slots handed out, free ones included
	free   []int32
}

// slabBits sets the first chunk's size.
const slabBits = 3

// chunkOf locates slot i: its chunk and its offset there.
func chunkOf(i int32) (c, off int) {
	j := uint32(i) + 1<<slabBits
	c = bits.Len32(j) - 1 - slabBits
	return c, int(j - 1<<(c+slabBits))
}

func newSlab[K comparable, T any]() slab[K, T] {
	return slab[K, T]{idx: make(map[K]int32)}
}

// at returns slot i.
func (s *slab[K, T]) at(i int32) *T {
	c, off := chunkOf(i)
	return &s.chunks[c][off]
}

// get returns the key's slot, or nil.
func (s *slab[K, T]) get(k K) *T {
	if i, ok := s.idx[k]; ok {
		return s.at(i)
	}
	return nil
}

// acquire returns the index of the key's slot, taking a free or new one
// (fresh) if the key has none.
func (s *slab[K, T]) acquire(k K) (i int32, fresh bool) {
	if i, ok := s.idx[k]; ok {
		return i, false
	}
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = s.n
		if c, _ := chunkOf(i); c == len(s.chunks) {
			s.chunks = append(s.chunks, make([]T, 1<<(c+slabBits)))
		}
		s.n++
	}
	s.idx[k] = i
	return i, true
}

// each calls f for every slot handed out, free ones included.
func (s *slab[K, T]) each(f func(*T)) {
	left := int(s.n)
	for _, ch := range s.chunks {
		for i := 0; i < len(ch) && left > 0; i++ {
			f(&ch[i])
			left--
		}
	}
}

// release returns the key's slot i to the free list.
func (s *slab[K, T]) release(k K, i int32) {
	delete(s.idx, k)
	s.free = append(s.free, i)
}

// arrangement indexes one join input by key: a slab of groups.
type arrangement[K comparable, V comparable] struct {
	slab[K, group[V]]
}

func newArrangement[K comparable, V comparable]() arrangement[K, V] {
	return arrangement[K, V]{newSlab[K, group[V]]()}
}

// add merges a diff for (k, val) at iter.
func (a *arrangement[K, V]) add(k K, val V, iter int, d Diff) {
	i, _ := a.acquire(k)
	g := a.at(i)
	g.add(val, iter, d)
	if len(g.ents) == 0 {
		a.release(k, i)
	}
}
