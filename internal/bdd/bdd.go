// Package bdd implements reduced ordered binary decision diagrams with
// hash-consing and an ITE operation cache. It is the predicate engine
// under the APKeep-style data plane model: packet-space predicates
// (equivalence classes, rule match sets) are BDDs, so set algebra
// (and/or/not/difference) and emptiness tests are fast and canonical:
// two predicates are equal iff their node handles are equal.
//
// The table is garbage collected on request: Collect marks every node
// reachable from the caller's roots and frees the rest, in the
// non-moving BuDDy/CUDD style. Live handles keep their values, so maps
// keyed by Node never need remapping; freed slots go on a free list
// that mk reuses before it grows the store. The data plane model
// collects between applies, so the table stays the size of the live
// predicates rather than of every predicate ever built.
package bdd

import "fmt"

// Node is a BDD handle. Equal handles mean equal predicates.
type Node int32

// The two terminal nodes.
const (
	False Node = 0
	True  Node = 1
)

type nodeData struct {
	level  int32 // variable index; terminals use level = numVars
	lo, hi Node  // cofactors for var=0 / var=1
}

// freeLevel marks a collected slot; its lo links to the next free slot.
const freeLevel = -1

// iteEntry is one slot of the direct-mapped ITE result cache. A slot
// with f == False is empty: ITE's terminal shortcuts return before the
// cache is consulted whenever f is a terminal, so False never appears
// as the f of a cached triple.
type iteEntry struct{ f, g, h, result Node }

// Table owns the node store and caches for one variable ordering.
//
// Both lookup structures are flat arrays rather than Go maps: the
// unique table is an open-addressed (linear-probe) hash of node handles
// keyed by (level, lo, hi), and the ITE cache is a direct-mapped lossy
// cache in the style of BuDDy/CUDD. Probes are a hash, a mask, and an
// array read — no map header, no per-key allocation — which matters
// because every BDD operation bottoms out in millions of these probes.
type Table struct {
	numVars int32
	nodes   []nodeData

	// free heads the list of collected slots, linked through lo; 0
	// (False, never collected) ends it. numFree counts the list.
	free    Node
	numFree int

	// unique holds node handles; 0 (False, never interned) marks an
	// empty slot. Keys live in nodes[], so a probe compares against
	// nodeData directly.
	unique     []Node
	uniqueMask uint32
	uniqueLive int

	// cache is the direct-mapped ITE cache; collisions overwrite.
	cache     []iteEntry
	cacheMask uint32
}

const (
	initialUniqueSize = 1 << 13
	initialCacheSize  = 1 << 13
	maxCacheSize      = 1 << 22
)

// New creates a table over numVars boolean variables. Variable 0 is
// topmost in the order.
func New(numVars int) *Table {
	if numVars <= 0 || numVars > 1<<20 {
		panic(fmt.Sprintf("bdd: bad variable count %d", numVars))
	}
	t := &Table{
		numVars:    int32(numVars),
		unique:     make([]Node, initialUniqueSize),
		uniqueMask: initialUniqueSize - 1,
		cache:      make([]iteEntry, initialCacheSize),
		cacheMask:  initialCacheSize - 1,
	}
	// Terminals sit below every variable.
	t.nodes = append(t.nodes,
		nodeData{level: t.numVars}, // False
		nodeData{level: t.numVars}, // True
	)
	return t
}

// hash3 mixes three 32-bit words into a table index (xxhash-style
// avalanche over a product combination; cheap and good enough for
// near-uniform slot occupancy).
func hash3(a, b, c uint32) uint32 {
	h := a*0x9e3779b1 ^ b*0x85ebca77 ^ c*0xc2b2ae3d
	h ^= h >> 15
	h *= 0x27d4eb2f
	h ^= h >> 13
	return h
}

// NumVars returns the number of variables.
func (t *Table) NumVars() int { return int(t.numVars) }

// Size returns the number of allocated nodes, terminals included: the
// nodes the last Collect kept plus every node made since.
func (t *Table) Size() int { return len(t.nodes) - t.numFree }

// mk returns the canonical node for (level, lo, hi).
func (t *Table) mk(level int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	i := hash3(uint32(level), uint32(lo), uint32(hi)) & t.uniqueMask
	for {
		n := t.unique[i]
		if n == 0 {
			break
		}
		d := &t.nodes[n]
		if d.level == level && d.lo == lo && d.hi == hi {
			return n
		}
		i = (i + 1) & t.uniqueMask
	}
	var n Node
	if t.free != 0 {
		n = t.free
		t.free = t.nodes[n].lo
		t.numFree--
		t.nodes[n] = nodeData{level: level, lo: lo, hi: hi}
	} else {
		n = Node(len(t.nodes))
		t.nodes = append(t.nodes, nodeData{level: level, lo: lo, hi: hi})
	}
	t.unique[i] = n
	t.uniqueLive++
	// Grow at 3/4 load so probe chains stay short.
	if uint32(t.uniqueLive) > t.uniqueMask-t.uniqueMask/4 {
		t.growUnique()
	}
	return n
}

// growUnique doubles the unique table and rehashes every interned node.
func (t *Table) growUnique() {
	t.rehash(2 * (t.uniqueMask + 1))
	// Scale the ITE cache with the node table (fresh and empty: the
	// cache is lossy by design, so dropping entries is always sound).
	if cap := t.uniqueMask + 1; cap > t.cacheMask+1 && cap <= maxCacheSize {
		t.cache = make([]iteEntry, cap)
		t.cacheMask = cap - 1
	}
}

// rehash rebuilds the unique table at size slots (a power of two) over
// every allocated node; free slots are not interned.
func (t *Table) rehash(size uint32) {
	t.unique = make([]Node, size)
	t.uniqueMask = size - 1
	t.uniqueLive = 0
	for n := 2; n < len(t.nodes); n++ { // terminals are not interned
		d := &t.nodes[n]
		if d.level == freeLevel {
			continue
		}
		i := hash3(uint32(d.level), uint32(d.lo), uint32(d.hi)) & t.uniqueMask
		for t.unique[i] != 0 {
			i = (i + 1) & t.uniqueMask
		}
		t.unique[i] = Node(n)
		t.uniqueLive++
	}
}

// Collect frees every node not reachable from roots and returns the
// number left, terminals included. Nodes do not move: a reachable
// handle keeps its value, while an unreachable one becomes invalid and
// its slot may come back as a different predicate. The unique table is
// rebuilt over the live nodes and sized to them; the ITE cache, whose
// entries may name freed nodes, is cleared and shrunk with it.
func (t *Table) Collect(roots []Node) int {
	live := make([]bool, len(t.nodes))
	live[False], live[True] = true, true
	for _, r := range roots {
		t.mark(live, r)
	}
	// Drop the dead tail, then thread the other dead slots onto the free
	// list lowest first, so mk refills the store from the bottom.
	end := len(t.nodes)
	for !live[end-1] {
		end--
	}
	t.nodes = t.nodes[:end]
	t.free, t.numFree = 0, 0
	for n := end - 1; n >= 2; n-- {
		if !live[n] {
			t.nodes[n] = nodeData{level: freeLevel, lo: t.free}
			t.free = Node(n)
			t.numFree++
		}
	}
	// The smallest power of two that holds the live nodes under mk's
	// 3/4 load limit.
	size := uint32(initialUniqueSize)
	for interned := uint32(t.Size() - 2); interned > size-1-(size-1)/4; {
		size *= 2
	}
	t.rehash(size)
	cacheSize := min(max(size, initialCacheSize), maxCacheSize)
	t.cache = make([]iteEntry, cacheSize)
	t.cacheMask = cacheSize - 1
	return t.Size()
}

// mark sets live for n and every node below it. It recurses on lo and
// iterates along hi, so its depth is bounded by the variable count.
func (t *Table) mark(live []bool, n Node) {
	for !live[n] {
		live[n] = true
		d := t.nodes[n]
		t.mark(live, d.lo)
		n = d.hi
	}
}

// Var returns the predicate "variable v is 1".
func (t *Table) Var(v int) Node {
	if v < 0 || int32(v) >= t.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range", v))
	}
	return t.mk(int32(v), False, True)
}

// NVar returns the predicate "variable v is 0".
func (t *Table) NVar(v int) Node {
	if v < 0 || int32(v) >= t.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range", v))
	}
	return t.mk(int32(v), True, False)
}

// ITE computes if-then-else(f, g, h) = f&g | !f&h, the universal binary
// operation all others are built from.
func (t *Table) ITE(f, g, h Node) Node {
	// Terminal shortcuts.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	ci := hash3(uint32(f), uint32(g), uint32(h)) & t.cacheMask
	if e := &t.cache[ci]; e.f == f && e.g == g && e.h == h {
		return e.result
	}
	nf, ng, nh := t.nodes[f], t.nodes[g], t.nodes[h]
	level := nf.level
	if ng.level < level {
		level = ng.level
	}
	if nh.level < level {
		level = nh.level
	}
	f0, f1 := t.cofactors(f, level)
	g0, g1 := t.cofactors(g, level)
	h0, h1 := t.cofactors(h, level)
	r := t.mk(level, t.ITE(f0, g0, h0), t.ITE(f1, g1, h1))
	// Recompute the slot: mk may have grown (and so re-sized) the cache.
	ci = hash3(uint32(f), uint32(g), uint32(h)) & t.cacheMask
	t.cache[ci] = iteEntry{f: f, g: g, h: h, result: r}
	return r
}

func (t *Table) cofactors(n Node, level int32) (lo, hi Node) {
	d := t.nodes[n]
	if d.level != level {
		return n, n
	}
	return d.lo, d.hi
}

// And returns a AND b.
func (t *Table) And(a, b Node) Node { return t.ITE(a, b, False) }

// Or returns a OR b.
func (t *Table) Or(a, b Node) Node { return t.ITE(a, True, b) }

// Not returns NOT a.
func (t *Table) Not(a Node) Node { return t.ITE(a, False, True) }

// Diff returns a AND NOT b (set difference).
func (t *Table) Diff(a, b Node) Node { return t.ITE(b, False, a) }

// Xor returns a XOR b.
func (t *Table) Xor(a, b Node) Node { return t.ITE(a, t.Not(b), b) }

// Implies reports whether predicate a is a subset of b.
func (t *Table) Implies(a, b Node) bool { return t.Diff(a, b) == False }

// Overlaps reports whether the predicates share any packet.
func (t *Table) Overlaps(a, b Node) bool { return t.And(a, b) != False }

// FractionSat returns the fraction of the full variable space the
// predicate covers, in [0, 1].
func (t *Table) FractionSat(n Node) float64 {
	memo := make(map[Node]float64)
	var rec func(Node) float64
	rec = func(n Node) float64 {
		switch n {
		case False:
			return 0
		case True:
			return 1
		}
		if v, ok := memo[n]; ok {
			return v
		}
		d := t.nodes[n]
		// Variables skipped between a node and its child are free: they
		// do not change the satisfying *fraction*, so no level
		// adjustment is needed.
		v := (rec(d.lo) + rec(d.hi)) / 2
		memo[n] = v
		return v
	}
	return rec(n)
}

// CopyTo interns the predicate rooted at n into dst, which must have
// the same variable count (and is assumed to use the same variable
// meaning), and returns dst's canonical handle for it. Node handles are
// table-relative, so predicates built against one table (a live
// verifier's) cannot be used with another (a fork's) directly; CopyTo
// is the transfer operation that makes structures like compiled
// policies reusable across verifiers without re-parsing. Shared
// subgraphs are visited once per call via a memo table.
func (t *Table) CopyTo(dst *Table, n Node) Node {
	if t.numVars != dst.numVars {
		panic(fmt.Sprintf("bdd: CopyTo between tables with %d and %d variables", t.numVars, dst.numVars))
	}
	if t == dst {
		return n
	}
	memo := map[Node]Node{False: False, True: True}
	var rec func(Node) Node
	rec = func(n Node) Node {
		if r, ok := memo[n]; ok {
			return r
		}
		d := t.nodes[n]
		r := dst.mk(d.level, rec(d.lo), rec(d.hi))
		memo[n] = r
		return r
	}
	return rec(n)
}

// AnySat returns one satisfying assignment (length NumVars; entries are
// 0, 1, or -1 for "either"). ok is false when n is False.
func (t *Table) AnySat(n Node) (assign []int8, ok bool) {
	if n == False {
		return nil, false
	}
	assign = make([]int8, t.numVars)
	for i := range assign {
		assign[i] = -1
	}
	for n != True {
		d := t.nodes[n]
		if d.lo != False {
			assign[d.level] = 0
			n = d.lo
		} else {
			assign[d.level] = 1
			n = d.hi
		}
	}
	return assign, true
}
