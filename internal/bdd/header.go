package bdd

import (
	"fmt"
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
	return h.And(h.geq(dstIPOff, 32, lo), h.leq(dstIPOff, 32, hi))
}

// DstBlocks returns the predicate "destination IP in one of blocks",
// for disjoint prefixes sorted by address. It builds the union top-down,
// one node per branch of the address trie the blocks span, where an Or
// per block would rebuild the growing union each time.
func (h *Headers) DstBlocks(blocks []netcfg.Prefix) Node { return h.dstBlocks(blocks, 0) }

// dstBlocks is DstBlocks for blocks inside one depth-bit prefix.
func (h *Headers) dstBlocks(blocks []netcfg.Prefix, depth int) Node {
	switch {
	case len(blocks) == 0:
		return False
	case int(blocks[0].Len) == depth:
		return True // the one block, covering the whole branch
	}
	bit := uint32(1) << (31 - depth)
	i := sort.Search(len(blocks), func(i int) bool { return uint32(blocks[i].Addr)&bit != 0 })
	return h.mk(int32(dstIPOff+depth), h.dstBlocks(blocks[:i], depth+1), h.dstBlocks(blocks[i:], depth+1))
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
	return h.And(h.geq(dstPortOff, 16, uint32(lo)), h.leq(dstPortOff, 16, uint32(hi)))
}

// geq builds "the width-bit field at off >= v".
func (h *Headers) geq(off, width int, v uint32) Node {
	n := True
	for i := width - 1; i >= 0; i-- {
		bit := (v >> (width - 1 - i)) & 1
		va := int32(off + i)
		if bit == 1 {
			// This bit must be 1 to stay >=; a 0 here loses.
			n = h.mk(va, False, n)
		} else {
			// A 1 here already wins; a 0 continues.
			n = h.mk(va, n, True)
		}
	}
	return n
}

// leq builds "the width-bit field at off <= v".
func (h *Headers) leq(off, width int, v uint32) Node {
	n := True
	for i := width - 1; i >= 0; i-- {
		bit := (v >> (width - 1 - i)) & 1
		va := int32(off + i)
		if bit == 1 {
			// A 0 here already wins; a 1 continues.
			n = h.mk(va, True, n)
		} else {
			// This bit must be 0 to stay <=; a 1 here loses.
			n = h.mk(va, n, False)
		}
	}
	return n
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
