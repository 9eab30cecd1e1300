package routing

import (
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// sym is an interned string: a device name, an interface name or an
// encoded BGP AS path. 0 is the empty string. Symbols exist so that the
// tuples flowing through the dataflow are fixed-width and pointer-free:
// the engine's maps hash a few words instead of two or three strings, and
// its key maps and value groups hold nothing for the garbage collector to
// follow.
//
// Symbol ids follow interning order, which depends on the history of
// loaded networks. They are therefore only ever compared for equality;
// every preference order converts back to names first (see the *Better
// methods below), so tie-breaks are those of internal/simulate no matter
// in which order names were first seen.
type sym uint32

// symtab is the generator's append-only symbol table. Names come from
// the configuration (devices, interfaces) and are bounded by the set of
// names ever configured. AS paths are bounded by the distinct paths some
// candidate route ever carried: a network flapping among a fixed set of
// states revisits the same paths and stops adding; only rejected
// candidates (loops, over-long paths, filtered prefixes) are never
// interned. The table is never compacted, because ids live inside
// operator state; its size is exported as realconfig_routing_symbols.
type symtab struct {
	ids   map[string]sym
	names []string
}

func newSymtab() *symtab {
	return &symtab{ids: map[string]sym{"": 0}, names: []string{""}}
}

func (t *symtab) intern(s string) sym {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := sym(len(t.names))
	t.names = append(t.names, s)
	t.ids[s] = id
	return id
}

func (t *symtab) name(id sym) string { return t.names[id] }

// prepend interns asn prepended to an interned AS path (the encoding of
// dataplane.PathPrepend) without allocating when the result is known.
func (t *symtab) prepend(asn uint32, path sym) sym {
	var buf [4 * (dataplane.MaxASPathLen + 1)]byte
	b := append(buf[:0], byte(asn>>24), byte(asn>>16), byte(asn>>8), byte(asn))
	b = append(b, t.names[path]...)
	if id, ok := t.ids[string(b)]; ok { // no allocation: map lookup by converted bytes
		return id
	}
	return t.intern(string(b))
}

// The interned counterparts of the dataplane tuple types. Field meaning
// is that of the type each converts to.

// rkey is an interned dataplane.RouteKey.
type rkey struct {
	Dev    sym
	Prefix netcfg.Prefix
}

// rdkey keys the OSPF router loop: device Dev's route to the OSPF
// router Origin.
type rdkey struct {
	Dev    sym
	Origin sym
}

// ospfRt is an interned dataplane.OSPFRoute.
type ospfRt struct {
	Dist    uint32
	NextHop sym
	OutIntf sym
}

// bgpRt is an interned dataplane.BGPRoute. The zero value doubles as the
// "candidate rejected" sentinel of the propagation join.
type bgpRt struct {
	LocalPref uint32
	Path      sym
	PeerAS    uint32
	NextHop   sym
	OutIntf   sym
	PathLen   uint8
	Discard   bool
}

// hashOSPFBest and hashBGPBest are the fingerprints of the
// recurring-state detectors on the protocol fixpoints. Each packs the
// tuple's fixed-width fields losslessly into 64-bit words and folds them
// through dd.Mix, so tuples that differ in any one field hash apart.
func hashOSPFBest(kv dd.KV[rkey, ospfRt]) uint64 {
	k, r := kv.K, kv.V
	h := dd.Mix(0, uint64(k.Dev)<<32|uint64(k.Prefix.Addr))
	h = dd.Mix(h, uint64(k.Prefix.Len)<<32|uint64(r.Dist))
	return dd.Mix(h, uint64(r.NextHop)<<32|uint64(r.OutIntf))
}

func hashBGPBest(kv dd.KV[rkey, bgpRt]) uint64 {
	k, r := kv.K, kv.V
	var discard uint64
	if r.Discard {
		discard = 1
	}
	h := dd.Mix(0, uint64(k.Dev)<<32|uint64(k.Prefix.Addr))
	h = dd.Mix(h, uint64(k.Prefix.Len)<<48|uint64(r.PathLen)<<40|discard<<32|uint64(r.LocalPref))
	h = dd.Mix(h, uint64(r.Path)<<32|uint64(r.PeerAS))
	return dd.Mix(h, uint64(r.NextHop)<<32|uint64(r.OutIntf))
}

// ribEnt is an interned dataplane.RIBEntry.
type ribEnt struct {
	Metric  uint32
	NextHop sym
	OutIntf sym
	Proto   netcfg.Protocol
	AD      uint8
	Action  dataplane.Action
}

// frule is an interned dataplane.Rule, the key of the generator's FIB
// sink: five 32-bit words with no padding, so a map hashes it as one
// block of memory. LenAct packs the prefix length above the action.
type frule struct {
	Dev     sym
	Addr    netcfg.Addr
	LenAct  uint32
	NextHop sym
	OutIntf sym
}

// fibRule is the interned rule a best RIB entry installs, keeping the
// next hop and interface only where dataplane.RIBEntry.Rule does.
func fibRule(k rkey, e ribEnt) frule {
	r := frule{Dev: k.Dev, Addr: k.Prefix.Addr, LenAct: uint32(k.Prefix.Len)<<8 | uint32(e.Action)}
	switch e.Action {
	case dataplane.Forward:
		r.NextHop, r.OutIntf = e.NextHop, e.OutIntf
	case dataplane.Deliver:
		r.OutIntf = e.OutIntf
	}
	return r
}

func (t *symtab) rule(r frule) dataplane.Rule {
	return dataplane.Rule{
		Device: t.names[r.Dev], Prefix: netcfg.Prefix{Addr: r.Addr, Len: uint8(r.LenAct >> 8)},
		Action: dataplane.Action(r.LenAct), NextHop: t.names[r.NextHop], OutIntf: t.names[r.OutIntf],
	}
}

func (t *symtab) routeKey(k rkey) dataplane.RouteKey {
	return dataplane.RouteKey{Device: t.names[k.Dev], Prefix: k.Prefix}
}

func (t *symtab) ospfRoute(r ospfRt) dataplane.OSPFRoute {
	return dataplane.OSPFRoute{Dist: r.Dist, NextHop: t.names[r.NextHop], OutIntf: t.names[r.OutIntf]}
}

func (t *symtab) bgpRoute(r bgpRt) dataplane.BGPRoute {
	return dataplane.BGPRoute{
		LocalPref: r.LocalPref, PathLen: r.PathLen, Path: t.names[r.Path], PeerAS: r.PeerAS,
		NextHop: t.names[r.NextHop], OutIntf: t.names[r.OutIntf], Discard: r.Discard,
	}
}

func (t *symtab) ribEntry(e ribEnt) dataplane.RIBEntry {
	return dataplane.RIBEntry{
		Proto: e.Proto, AD: e.AD, Metric: e.Metric, Action: e.Action,
		NextHop: t.names[e.NextHop], OutIntf: t.names[e.OutIntf],
	}
}

// Preference orders. Each converts to the dataplane type (a few string
// headers, no allocation) and defers to its comparator, so there is one
// definition of every order and it compares names, never symbol ids.

func (t *symtab) ospfBetter(a, b ospfRt) bool { return t.ospfRoute(a).Better(t.ospfRoute(b)) }

func (t *symtab) bgpBetter(a, b bgpRt) bool { return t.bgpRoute(a).Better(t.bgpRoute(b)) }

func (t *symtab) ribBetter(a, b ribEnt) bool { return t.ribEntry(a).Better(t.ribEntry(b)) }
