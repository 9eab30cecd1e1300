package bdd

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
)

// Packet-header variable layout. Destination IP comes first in the
// order because forwarding rules (the bulk of the data plane) match on
// it; keeping it topmost keeps their BDDs tiny.
const (
	dstIPOff   = 0
	srcIPOff   = 32
	protoOff   = 64
	dstPortOff = 72
	// HeaderVars is the total number of packet-header variables.
	HeaderVars = 88
)

// Headers wraps a Table with packet-header predicate constructors.
type Headers struct {
	*Table
	// portBlocks is MatchAny's scratch.
	portBlocks []netcfg.Prefix
}

// NewHeaders creates a BDD table laid out for packet headers.
func NewHeaders() *Headers {
	return &Headers{Table: New(HeaderVars)}
}

// DstPrefix returns the predicate "destination IP in p".
func (h *Headers) DstPrefix(p netcfg.Prefix) Node { return h.ipPrefixOn(dstIPOff, p, True) }

// SrcPrefix returns the predicate "source IP in p".
func (h *Headers) SrcPrefix(p netcfg.Prefix) Node { return h.ipPrefixOn(srcIPOff, p, True) }

// DstRange returns the predicate "destination IP in [lo, hi]"
// (inclusive). Used by the model's destination-interval index checks.
func (h *Headers) DstRange(lo, hi uint32) Node {
	var buf [62]netcfg.Prefix // [lo, hi] decomposes into at most 2*32-2 blocks
	return h.blocks(dstIPOff, netcfg.AppendRangeBlocks(buf[:0], lo, hi, 32), 0)
}

// DstBlocks returns the predicate "destination IP in one of blocks",
// for disjoint prefixes sorted by address.
func (h *Headers) DstBlocks(blocks []netcfg.Prefix) Node { return h.blocks(dstIPOff, blocks, 0) }

// blocks returns "the field at off is in one of bs", for disjoint
// aligned blocks sorted by value that lie inside one depth-bit prefix
// of the field. A block is a prefix of the field's value held
// left-aligned in the 32 bits of a netcfg.Prefix, so a 16-bit port p
// is the address p<<16. The union is built top-down, one node per
// branch of the value trie the blocks span, where an Or per block would
// rebuild the growing union each time.
func (h *Headers) blocks(off int, bs []netcfg.Prefix, depth int) Node {
	switch {
	case len(bs) == 0:
		return False
	case int(bs[0].Len) == depth:
		return True // the one block, covering the whole branch
	}
	bit := uint32(1) << (31 - depth)
	i := sort.Search(len(bs), func(i int) bool { return uint32(bs[i].Addr)&bit != 0 })
	return h.mk(int32(off+depth), h.blocks(off, bs[:i], depth+1), h.blocks(off, bs[i:], depth+1))
}

// ipPrefixOn returns "the IP field at off is in p, and then" below:
// below must test only variables after the field's, so the chain of
// the field's nodes ends in it instead of True.
func (h *Headers) ipPrefixOn(off int, p netcfg.Prefix, below Node) Node {
	n := below
	// Build bottom-up (least significant matched bit first) so each mk
	// call has its child already canonical; prefix predicates are a
	// single chain of nodes.
	for i := int(p.Len) - 1; i >= 0; i-- {
		bit := (uint32(p.Addr) >> (31 - i)) & 1
		v := off + i
		if bit == 1 {
			n = h.mk(int32(v), False, n)
		} else {
			n = h.mk(int32(v), n, False)
		}
	}
	return n
}

// Proto returns the predicate "IP protocol equals p" (ProtoIPAny = True).
func (h *Headers) Proto(p netcfg.IPProto) Node { return h.protoOn(p, True) }

// protoOn returns "the protocol equals p, and then" below, like
// ipPrefixOn.
func (h *Headers) protoOn(p netcfg.IPProto, below Node) Node {
	if p == netcfg.ProtoIPAny {
		return below
	}
	n := below
	for i := 7; i >= 0; i-- {
		bit := (uint8(p) >> (7 - i)) & 1
		v := protoOff + i
		if bit == 1 {
			n = h.mk(int32(v), False, n)
		} else {
			n = h.mk(int32(v), n, False)
		}
	}
	return n
}

// DstPortRange returns the predicate "destination port in [lo, hi]".
// The pair (0, 0) means any port.
func (h *Headers) DstPortRange(lo, hi uint16) Node {
	if lo == 0 && hi == 0 {
		return True
	}
	var buf [30]netcfg.Prefix // [lo, hi] decomposes into at most 2*16-2 blocks
	return h.blocks(dstPortOff, netcfg.AppendRangeBlocks(buf[:0], uint32(lo), uint32(hi), 16), 0)
}

// Match returns the predicate for a filter-rule match. The fields
// occupy disjoint variable ranges in the order dst, src, proto, port,
// so the port range is built first and every field above it is a chain
// of nodes ending in the predicate below: the conjunction of the fields
// needs no And.
func (h *Headers) Match(m dataplane.Match) Node {
	n := h.DstPortRange(m.DstPortLo, m.DstPortHi)
	n = h.protoOn(m.Proto, n)
	n = h.ipPrefixOn(srcIPOff, m.Src, n)
	return h.ipPrefixOn(dstIPOff, m.Dst, n)
}

// MatchAny returns the predicate "some match of ms matches", and
// reorders ms. Matches that agree on every field above the port (dst,
// src, proto) form a group, whose port ranges become one set of aligned
// blocks under the group's single chain of field nodes: a group costs
// its blocks, and only the groups are joined with Or.
func (h *Headers) MatchAny(ms []dataplane.Match) Node {
	slices.SortFunc(ms, func(a, b dataplane.Match) int {
		return cmp.Or(cmpFields(a, b), cmp.Compare(a.DstPortLo, b.DstPortLo), cmp.Compare(a.DstPortHi, b.DstPortHi))
	})
	out := False
	for i := 0; i < len(ms); {
		j := i + 1
		for j < len(ms) && cmpFields(ms[i], ms[j]) == 0 {
			j++
		}
		out = h.Or(out, h.groupMatch(ms[i:j]))
		i = j
	}
	return out
}

// cmpFields orders matches by the fields above the port.
func cmpFields(a, b dataplane.Match) int {
	return cmp.Or(cmp.Compare(a.Dst.Addr, b.Dst.Addr), cmp.Compare(a.Dst.Len, b.Dst.Len),
		cmp.Compare(a.Src.Addr, b.Src.Addr), cmp.Compare(a.Src.Len, b.Src.Len), cmp.Compare(a.Proto, b.Proto))
}

// groupMatch is MatchAny of one group sorted by port range: the
// group's ranges are merged where they overlap or touch, and each
// merged range is cut into maximal aligned blocks.
func (h *Headers) groupMatch(g []dataplane.Match) Node {
	n := True // a line with any port, (0, 0), sorts first
	if g[0].DstPortLo != 0 || g[0].DstPortHi != 0 {
		bs := h.portBlocks[:0]
		lo, hi := 0, -2 // the open merged range; none yet
		for _, m := range g {
			mlo, mhi := int(m.DstPortLo), int(m.DstPortHi)
			switch {
			case mlo > mhi: // matches no port
			case mlo > hi+1:
				if lo <= hi {
					bs = netcfg.AppendRangeBlocks(bs, uint32(lo), uint32(hi), 16)
				}
				lo, hi = mlo, mhi
			default:
				hi = max(hi, mhi)
			}
		}
		if lo <= hi {
			bs = netcfg.AppendRangeBlocks(bs, uint32(lo), uint32(hi), 16)
		}
		h.portBlocks = bs
		n = h.blocks(dstPortOff, bs, 0)
	}
	n = h.protoOn(g[0].Proto, n)
	n = h.ipPrefixOn(srcIPOff, g[0].Src, n)
	return h.ipPrefixOn(dstIPOff, g[0].Dst, n)
}

// DstHull returns the smallest and the largest destination address of
// a packet in n; ok is false when n is empty. The destination variables
// are the top of the order, so each end is one walk of at most 32
// levels: every node but False has a packet below it.
func (h *Headers) DstHull(n Node) (lo, hi uint32, ok bool) {
	if n == False {
		return 0, 0, false
	}
	return h.dstEnd(n, false), h.dstEnd(n, true), true
}

// dstEnd walks n towards its largest destination (or its smallest),
// starting from all ones (or all zeros) and clearing (or setting) the
// bits where the walk must take the other branch.
func (h *Headers) dstEnd(n Node, largest bool) uint32 {
	var a uint32
	if largest {
		a = ^uint32(0)
	}
	for n != True {
		d := h.nodes[n]
		if d.level >= dstIPOff+32 {
			break
		}
		bit := uint32(1) << (31 - d.level)
		switch {
		case largest && d.hi != False:
			n = d.hi
		case largest:
			n, a = d.lo, a&^bit
		case d.lo != False:
			n = d.lo
		default:
			n, a = d.hi, a|bit
		}
	}
	return a
}

// Packet is a concrete packet witnessing a predicate.
type Packet struct {
	Dst     netcfg.Addr
	Src     netcfg.Addr
	Proto   netcfg.IPProto
	DstPort uint16
}

func (p Packet) String() string {
	return fmt.Sprintf("dst=%s src=%s proto=%s port=%d", p.Dst, p.Src, p.Proto, p.DstPort)
}

// Witness extracts one concrete packet from a predicate (ok=false when
// it is empty). Unconstrained bits come out zero.
func (h *Headers) Witness(n Node) (Packet, bool) {
	assign, ok := h.AnySat(n)
	if !ok {
		return Packet{}, false
	}
	bits := func(off, width int) uint32 {
		var v uint32
		for i := 0; i < width; i++ {
			v <<= 1
			if assign[off+i] == 1 {
				v |= 1
			}
		}
		return v
	}
	return Packet{
		Dst:     netcfg.Addr(bits(dstIPOff, 32)),
		Src:     netcfg.Addr(bits(srcIPOff, 32)),
		Proto:   netcfg.IPProto(bits(protoOff, 8)),
		DstPort: uint16(bits(dstPortOff, 16)),
	}, true
}

// Contains reports whether the concrete packet satisfies the predicate.
func (h *Headers) Contains(n Node, p Packet) bool {
	assign := make([]int8, HeaderVars)
	set := func(off, width int, v uint32) {
		for i := 0; i < width; i++ {
			assign[off+i] = int8((v >> (width - 1 - i)) & 1)
		}
	}
	set(dstIPOff, 32, uint32(p.Dst))
	set(srcIPOff, 32, uint32(p.Src))
	set(protoOff, 8, uint32(p.Proto))
	set(dstPortOff, 16, uint32(p.DstPort))
	for n != True && n != False {
		d := h.nodes[n]
		if assign[d.level] == 1 {
			n = d.hi
		} else {
			n = d.lo
		}
	}
	return n == True
}
