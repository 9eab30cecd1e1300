package apkeep

import (
	"slices"
	"sort"

	"realconfig/internal/netcfg"
)

// This file holds the model's two spatial indexes, which turn the
// per-update cost from O(model size) into O(change footprint):
//
//   - ecIndex is a Delta-net-style destination-space index. The
//     destination IP space [0, 2^32) is partitioned into intervals at
//     rule-prefix boundaries, and every interval knows the set of ECs
//     that may contain a packet with a destination in it. A rule update
//     confined to one prefix then only examines the ECs registered on
//     the prefix's intervals instead of the whole partition.
//
//   - prefixTrie is a per-device binary trie over installed rule
//     prefixes. The two LPM queries the model needs — "every strictly
//     longer prefix inside p with rules" (effective) and "the longest
//     strictly shorter prefix covering p" (owner) — become bit walks
//     plus a subtree visit instead of scans over every installed prefix.
//
// The ecIndex is conservative: an EC may be registered on intervals it
// no longer touches (splits along non-destination fields keep both
// children everywhere the parent was), but an EC intersecting an
// interval in destination space is ALWAYS registered on it. Candidate
// sets therefore over-approximate, never miss; the BDD intersection
// test inside split discards false positives.

// dstRange is an inclusive destination-address interval.
type dstRange struct {
	lo, hi uint32
}

// dstHint bounds a split predicate's destination footprint. exact
// records that the predicate covers the range completely in
// destination space (pred == DstPrefix(range)), in which case the
// out-half of a split provably has no destination inside the range and
// can be dropped from the range's intervals.
type dstHint struct {
	dstRange
	exact bool
}

// prefixRange returns the inclusive address range a prefix covers.
func prefixRange(p netcfg.Prefix) dstRange {
	lo := uint32(p.Addr)
	if p.Len == 0 {
		return dstRange{0, ^uint32(0)}
	}
	return dstRange{lo, lo | ^uint32(0)>>p.Len}
}

// ivl is one destination-space interval: it starts at start and runs to
// the next interval's start (the last runs to the end of the space).
// ecs holds every EC that may have a destination inside it.
type ivl struct {
	start uint32
	ecs   ECSet
}

// ecIndex maps destination intervals to candidate ECs and back.
type ecIndex struct {
	ivls []*ivl // sorted by start; ivls[0].start == 0
	// byEC lists each EC's intervals, indexed by ECID (nil for an id
	// that is no EC); an interval appears at most once.
	byEC [][]*ivl
	// union is candidates' scratch.
	union ECSet
}

func newECIndex(root ECID) *ecIndex {
	iv := &ivl{start: 0}
	iv.ecs.Add(root)
	x := &ecIndex{ivls: []*ivl{iv}}
	x.setMember(root, []*ivl{iv})
	return x
}

// member returns an EC's intervals.
func (x *ecIndex) member(id ECID) []*ivl {
	if int(id) < len(x.byEC) {
		return x.byEC[id]
	}
	return nil
}

// setMember replaces an EC's intervals.
func (x *ecIndex) setMember(id ECID, ivs []*ivl) {
	for int(id) >= len(x.byEC) {
		x.byEC = append(x.byEC, nil)
	}
	x.byEC[id] = ivs
}

// findIdx returns the index of the interval containing address a.
func (x *ecIndex) findIdx(a uint32) int {
	// First start strictly greater than a, minus one.
	return sort.Search(len(x.ivls), func(i int) bool { return x.ivls[i].start > a }) - 1
}

// at returns the candidate ECs for one concrete destination address
// (live set; do not modify).
func (x *ecIndex) at(a uint32) ECSet {
	return x.ivls[x.findIdx(a)].ecs
}

// enclosing widens r to the smallest range of whole intervals that
// covers it, so a split hinted by the result adds no boundary.
func (x *ecIndex) enclosing(r dstRange) dstRange {
	out := dstRange{x.ivls[x.findIdx(r.lo)].start, ^uint32(0)}
	if j := x.findIdx(r.hi) + 1; j < len(x.ivls) {
		out.hi = x.ivls[j].start - 1
	}
	return out
}

// ensureBoundary makes b an interval start point, splitting the
// covering interval. Boundaries are never removed; their number is
// bounded by the distinct rule-prefix edges ever installed (filter
// changes widen their hints to existing boundaries and add none).
func (x *ecIndex) ensureBoundary(b uint32) {
	idx := x.findIdx(b)
	cover := x.ivls[idx]
	if cover.start == b {
		return
	}
	iv := &ivl{start: b, ecs: slices.Clone(cover.ecs)}
	iv.ecs.Each(func(id ECID) { x.byEC[id] = append(x.byEC[id], iv) })
	x.ivls = slices.Insert(x.ivls, idx+1, iv)
}

// prepare aligns interval boundaries with r so every interval is fully
// inside or fully outside it.
func (x *ecIndex) prepare(r dstRange) {
	x.ensureBoundary(r.lo)
	if r.hi != ^uint32(0) {
		x.ensureBoundary(r.hi + 1)
	}
}

// candidates appends to out the distinct ECs registered on intervals
// inside r, ascending. prepare(r) must have been called.
func (x *ecIndex) candidates(out []ECID, r dstRange) []ECID {
	u := x.union[:0]
	for idx := x.findIdx(r.lo); idx < len(x.ivls) && x.ivls[idx].start <= r.hi; idx++ {
		ecs := x.ivls[idx].ecs
		if len(u) < len(ecs) {
			u = append(u, make([]uint64, len(ecs)-len(u))...)
		}
		for w, word := range ecs {
			u[w] |= word
		}
	}
	out = u.AppendTo(out)
	clear(u)
	x.union = u
	return out
}

// splitEC replaces parent with its two halves: in (inside the split
// predicate) goes on the parent's intervals within r, out goes on the
// parent's intervals outside r, plus — unless exact — those within
// (the split predicate may constrain non-destination fields, leaving
// out-packets with destinations in r). prepare(r) must have been
// called before the parent's membership was read.
func (x *ecIndex) splitEC(parent, in, out ECID, hint dstHint) {
	ivs := x.byEC[parent]
	x.byEC[parent] = nil
	// The in-half takes the parent's list, filtered in place.
	inSet := ivs[:0]
	outSet := make([]*ivl, 0, len(ivs))
	for _, iv := range ivs {
		iv.ecs.Del(parent)
		inside := iv.start >= hint.lo && iv.start <= hint.hi
		if inside {
			iv.ecs.Add(in)
			inSet = append(inSet, iv)
		}
		if !inside || !hint.exact {
			iv.ecs.Add(out)
			outSet = append(outSet, iv)
		}
	}
	x.setMember(in, inSet)
	x.setMember(out, outSet)
}

// replace re-registers every interval of old under merged (merge path).
func (x *ecIndex) replace(old, merged ECID) {
	ivs := x.byEC[old]
	x.byEC[old] = nil
	dst := x.member(merged)
	if len(dst) == 0 {
		dst = ivs[:0] // merged takes old's list, filtered in place
	}
	for _, iv := range ivs {
		iv.ecs.Del(old)
		if !iv.ecs.Has(merged) {
			iv.ecs.Add(merged)
			dst = append(dst, iv)
		}
	}
	x.setMember(merged, dst)
}

// fullRange covers the whole destination space: the hint for a split
// whose predicate is not destination-bounded, such as a filter change
// whose packets span every destination.
var fullRange = dstHint{dstRange: dstRange{0, ^uint32(0)}}

// --- per-device prefix trie -------------------------------------------------

// trieNode is one node of a prefixTrie; depth in the trie is prefix
// length, so the node for 10.0.0.0/8 sits 8 edges below the root.
type trieNode struct {
	child [2]*trieNode
	stack []Port // rules installed at exactly this prefix (nil = none)
	n     int    // prefixes with rules in this subtree, including self
}

// prefixTrie indexes one device's installed rule prefixes.
type prefixTrie struct {
	root trieNode
}

func addrBit(a netcfg.Addr, depth int) int {
	return int(uint32(a)>>(31-depth)) & 1
}

// get returns the rule stack installed at exactly p (nil if none).
func (t *prefixTrie) get(p netcfg.Prefix) []Port {
	n := &t.root
	for d := 0; d < int(p.Len); d++ {
		n = n.child[addrBit(p.Addr, d)]
		if n == nil {
			return nil
		}
	}
	return n.stack
}

// set installs stack (non-empty) at p.
func (t *prefixTrie) set(p netcfg.Prefix, stack []Port) {
	path := make([]*trieNode, 0, 33)
	n := &t.root
	path = append(path, n)
	for d := 0; d < int(p.Len); d++ {
		b := addrBit(p.Addr, d)
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
		path = append(path, n)
	}
	fresh := n.stack == nil
	n.stack = stack
	if fresh {
		for _, pn := range path {
			pn.n++
		}
	}
}

// remove deletes the stack at p, pruning emptied branches.
func (t *prefixTrie) remove(p netcfg.Prefix) {
	path := make([]*trieNode, 0, 33)
	n := &t.root
	path = append(path, n)
	for d := 0; d < int(p.Len); d++ {
		n = n.child[addrBit(p.Addr, d)]
		if n == nil {
			return
		}
		path = append(path, n)
	}
	if n.stack == nil {
		return
	}
	n.stack = nil
	for _, pn := range path {
		pn.n--
	}
	for d := len(path) - 1; d > 0; d-- {
		if path[d].n > 0 {
			break
		}
		path[d-1].child[addrBit(p.Addr, d-1)] = nil
	}
}

// owner returns the stack of the longest strictly shorter prefix
// covering p, and that prefix (nil if none): an O(p.Len) walk from the
// root.
func (t *prefixTrie) owner(p netcfg.Prefix) ([]Port, netcfg.Prefix) {
	var best []Port
	var q netcfg.Prefix
	n := &t.root
	for d := 0; d < int(p.Len) && n != nil; d++ {
		if n.stack != nil {
			best, q.Len = n.stack, uint8(d)
		}
		n = n.child[addrBit(p.Addr, d)]
	}
	q.Addr = p.Addr & q.Mask()
	return best, q
}

// hasLonger reports whether a strictly longer prefix inside p has
// rules: an O(p.Len) walk.
func (t *prefixTrie) hasLonger(p netcfg.Prefix) bool {
	n := &t.root
	for d := 0; d < int(p.Len); d++ {
		if n = n.child[addrBit(p.Addr, d)]; n == nil {
			return false
		}
	}
	self := 0
	if n.stack != nil {
		self = 1
	}
	return n.n > self
}

// longerWithin visits every strictly longer prefix inside p that has
// rules, in trie order. visit returning false stops the walk early
// (used once the effective predicate is already empty).
func (t *prefixTrie) longerWithin(p netcfg.Prefix, visit func(q netcfg.Prefix, stack []Port) bool) {
	n := &t.root
	for d := 0; d < int(p.Len); d++ {
		n = n.child[addrBit(p.Addr, d)]
		if n == nil {
			return
		}
	}
	// Visit the subtree below p's node, excluding the node itself.
	var dfs func(n *trieNode, addr uint32, depth int) bool
	dfs = func(n *trieNode, addr uint32, depth int) bool {
		if n == nil {
			return true
		}
		if n.stack != nil && !visit(netcfg.Prefix{Addr: netcfg.Addr(addr), Len: uint8(depth)}, n.stack) {
			return false
		}
		if depth == 32 {
			return true
		}
		if !dfs(n.child[0], addr, depth+1) {
			return false
		}
		return dfs(n.child[1], addr|1<<(31-depth), depth+1)
	}
	if int(p.Len) < 32 {
		addr := uint32(p.Addr)
		dfs(n.child[0], addr, int(p.Len)+1)
		dfs(n.child[1], addr|1<<(31-int(p.Len)), int(p.Len)+1)
	}
}

// walk visits every installed prefix (reference scans and tests).
func (t *prefixTrie) walk(visit func(q netcfg.Prefix, stack []Port)) {
	var dfs func(n *trieNode, addr uint32, depth int)
	dfs = func(n *trieNode, addr uint32, depth int) {
		if n == nil {
			return
		}
		if n.stack != nil {
			visit(netcfg.Prefix{Addr: netcfg.Addr(addr), Len: uint8(depth)}, n.stack)
		}
		if depth == 32 {
			return
		}
		dfs(n.child[0], addr, depth+1)
		dfs(n.child[1], addr|1<<(31-depth), depth+1)
	}
	dfs(&t.root, 0, 0)
}
