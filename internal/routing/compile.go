package routing

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// relations holds interned tuples of the nine dataflow inputs. Every
// compile unit keeps its own share of them, so a change recompiles only
// the units it can reach and stages their difference; the expensive
// route computation stays incremental behind the inputs.
type relations struct {
	ospfRouters []sym
	ospfAdj     []dd.KV[sym, ospfHop]
	ospfSeeds   []dd.KV[rkey, ospfRt]
	bgpSess     []dd.KV[sym, bgpSess]
	bgpOrigins  []dd.KV[rkey, bgpRt]
	ribDirect   []dd.KV[rkey, ribEnt]
	ospfFromBGP []dd.KV[sym, uint32]
	bgpFromOSPF []dd.KV[sym, struct{}]
	bgpAgg      []dd.KV[sym, netcfg.Prefix]
}

func (r *relations) reset() {
	r.ospfRouters = r.ospfRouters[:0]
	r.ospfAdj = r.ospfAdj[:0]
	r.ospfSeeds = r.ospfSeeds[:0]
	r.bgpSess = r.bgpSess[:0]
	r.bgpOrigins = r.bgpOrigins[:0]
	r.ribDirect = r.ribDirect[:0]
	r.ospfFromBGP = r.ospfFromBGP[:0]
	r.bgpFromOSPF = r.bgpFromOSPF[:0]
	r.bgpAgg = r.bgpAgg[:0]
}

// unit is one device's compile unit: the tuples the device owns. Those
// are the OSPF hops and BGP sessions it imports over, its OSPF seeds,
// BGP origins and direct RIB entries (statics resolved), its
// redistribution and aggregate entries, and its packet filter rules.
// Apart from the filters, which read the device's configuration only, a
// unit depends on the device's configuration, its incident links and
// its link neighbours' configurations; adjs records the adjacencies it
// was compiled over, so a recompile can tell whether the topology moved.
type unit struct {
	rel     relations
	filters []dataplane.FilterRule
	adjs    []dataplane.Adjacency
}

// CompileStats says how far one SetNetworkDelta reached.
type CompileStats struct {
	// Units is the number of compile units recompiled: the changed
	// devices and their link neighbours that are in the new network.
	Units int
	// TopologyChanged reports that the device set or the adjacencies of
	// some recompiled unit changed. When it is false, the network has
	// the previous one's devices, and dataplane.Adjacencies lists for
	// each device the adjacencies it listed before, in the same order.
	TopologyChanged bool
}

// filterID returns the content-addressed id of a prefix list (the same
// entries always produce the same id, independent of the list's name),
// registering an immutable snapshot on first sight. A nil list
// (dangling reference) compiles to an empty list, which denies
// everything. Registration takes no reference: stage counts the staged
// session tuples that hold the id.
func (gen *Generator) filterID(pl *netcfg.PrefixList) uint32 {
	var b strings.Builder
	b.WriteString("pl:")
	if pl != nil {
		for _, e := range pl.Entries {
			fmt.Fprintf(&b, "%d,%d,%08x/%d,%v;", e.Seq, e.Action, uint32(e.Prefix.Addr), e.Prefix.Len, e.Exact)
		}
	}
	key := b.String()
	id, ok := gen.filterIDs[key]
	if !ok {
		snapshot := &netcfg.PrefixList{}
		if pl != nil {
			snapshot.Entries = append([]netcfg.PrefixListEntry(nil), pl.Entries...)
		}
		gen.filterNext++
		id = gen.filterNext
		gen.filterIDs[key] = id
		gen.filterDefs[id] = &filterDef{key: key, list: snapshot}
	}
	return id
}

// refFilters adds d to the reference count of every prefix list the
// session tuples use.
func (gen *Generator) refFilters(sess []dd.KV[sym, bgpSess], d int) {
	for _, kv := range sess {
		if kv.V.FIn != 0 {
			gen.filterDefs[kv.V.FIn].refs += d
		}
		if kv.V.FOut != 0 {
			gen.filterDefs[kv.V.FOut].refs += d
		}
	}
}

// indexLinks rebuilds the per-device incident link lists of topo, in
// link order (a self-loop is listed once), reusing the lists' storage.
func (gen *Generator) indexLinks(topo *netcfg.Topology) {
	for d, ls := range gen.incident {
		gen.incident[d] = ls[:0]
	}
	for _, l := range topo.Links {
		gen.incident[l.DevA] = append(gen.incident[l.DevA], l)
		if l.DevB != l.DevA {
			gen.incident[l.DevB] = append(gen.incident[l.DevB], l)
		}
	}
	for d, ls := range gen.incident {
		if len(ls) == 0 {
			delete(gen.incident, d)
		}
	}
	gen.topo = topo
}

// compileDelta recompiles the units of the changed devices and of
// their link neighbours in net, and stages the difference between each
// unit's old and new tuples on the inputs. Filter rules are extracted
// again for the changed devices only.
func (gen *Generator) compileDelta(net *netcfg.Network, changed []string) CompileStats {
	gen.filterChanges = gen.filterChanges[:0]
	gen.filterDels = gen.filterDels[:0]
	// dirty maps each unit to recompile to whether its own device
	// changed (true) or only a link neighbour did (false).
	dirty := gen.dirty
	clear(dirty)
	for _, d := range changed {
		dirty[d] = true
	}
	for _, d := range changed {
		for _, l := range gen.incident[d] {
			peer := l.DevA
			if peer == d {
				peer = l.DevB
			}
			if _, ok := dirty[peer]; !ok {
				dirty[peer] = false
			}
		}
	}
	order := gen.order[:0]
	for d := range dirty {
		order = append(order, d)
	}
	sort.Strings(order)
	gen.order = order

	var st CompileStats
	for _, name := range order {
		cfg, u := net.Devices[name], gen.units[name]
		if cfg == nil {
			if u != nil {
				gen.retract(u)
				delete(gen.units, name)
				st.TopologyChanged = true
			}
			continue
		}
		if u == nil {
			u = &unit{}
			gen.units[name] = u
			st.TopologyChanged = true
		}
		st.Units++
		if gen.recompile(net, name, cfg, u, dirty[name]) {
			st.TopologyChanged = true
		}
	}
	gen.filterChanges = append(gen.filterChanges, gen.filterDels...)
	return st
}

// recompile compiles one unit afresh and stages the difference from its
// previous tuples, relation by relation. It reports whether the unit's
// adjacencies changed.
func (gen *Generator) recompile(net *netcfg.Network, name string, cfg *netcfg.Config, u *unit, own bool) bool {
	s := &gen.scratch
	s.rel.reset()
	s.adjs = dataplane.AppendDeviceAdjacencies(s.adjs[:0], net, name, gen.incident[name])
	gen.compileUnit(net, name, cfg, s)

	moved := !slices.Equal(u.adjs, s.adjs)
	if moved {
		u.adjs = append(u.adjs[:0], s.adjs...)
	}
	gen.stage(u, &s.rel)
	if own {
		filters := dataplane.ExtractDeviceFilters(name, cfg)
		gen.diffFilters(u.filters, filters)
		u.filters = filters
	}
	return moved
}

// retract stages the removal of every tuple and filter rule of a unit
// whose device left the network.
func (gen *Generator) retract(u *unit) {
	gen.stage(u, &relations{})
	gen.diffFilters(u.filters, nil)
}

// stage replaces u's tuples with next's on every input, and moves the
// prefix-list references of u's sessions to next's.
func (gen *Generator) stage(u *unit, next *relations) {
	if !slices.Equal(u.rel.bgpSess, next.bgpSess) {
		gen.refFilters(next.bgpSess, 1)
		gen.refFilters(u.rel.bgpSess, -1)
	}
	restage(gen.ospfRouters, &u.rel.ospfRouters, next.ospfRouters)
	restage(gen.ospfAdj, &u.rel.ospfAdj, next.ospfAdj)
	restage(gen.ospfSeeds, &u.rel.ospfSeeds, next.ospfSeeds)
	restage(gen.bgpSess, &u.rel.bgpSess, next.bgpSess)
	restage(gen.bgpOrigin, &u.rel.bgpOrigins, next.bgpOrigins)
	restage(gen.ribDirect, &u.rel.ribDirect, next.ribDirect)
	restage(gen.ospfFromB, &u.rel.ospfFromBGP, next.ospfFromBGP)
	restage(gen.bgpFromO, &u.rel.bgpFromOSPF, next.bgpFromOSPF)
	restage(gen.bgpAgg, &u.rel.bgpAgg, next.bgpAgg)
}

// restage replaces one relation's share of a unit: unless the tuples
// are equal, it stages the retraction of *old and the insertion of next
// on in, and leaves *old holding a copy of next. Each tuple counts once
// per occurrence, so the input's multiplicities are those of the whole
// relation's multiset.
func restage[T comparable](in *dd.Input[T], old *[]T, next []T) {
	if slices.Equal(*old, next) {
		return
	}
	for _, t := range *old {
		in.Update(t, -1)
	}
	for _, t := range next {
		in.Update(t, 1)
	}
	*old = append((*old)[:0], next...)
}

// diffFilters stages the set difference between a device's old and new
// filter rules: insertions go to filterChanges, deletions to
// filterDels, which compileDelta appends after every insertion.
func (gen *Generator) diffFilters(old, next []dataplane.FilterRule) {
	if slices.Equal(old, next) {
		return
	}
	nextSet := make(map[dataplane.FilterRule]bool, len(next))
	for _, f := range next {
		nextSet[f] = true
	}
	oldSet := make(map[dataplane.FilterRule]bool, len(old))
	for _, f := range old {
		oldSet[f] = true
	}
	for _, f := range next {
		if !oldSet[f] {
			oldSet[f] = true // once per rule, however often it repeats
			gen.filters[f] = true
			gen.filterChanges = append(gen.filterChanges, dd.Entry[dataplane.FilterRule]{Val: f, Diff: 1})
		}
	}
	for _, f := range old {
		if !nextSet[f] {
			nextSet[f] = true
			delete(gen.filters, f)
			gen.filterDels = append(gen.filterDels, dd.Entry[dataplane.FilterRule]{Val: f, Diff: -1})
		}
	}
}

// compileUnit appends device name's tuples to u.rel, resolving its
// static routes over u.adjs (its adjacencies, already derived).
func (gen *Generator) compileUnit(net *netcfg.Network, name string, cfg *netcfg.Config, u *unit) {
	rel := &u.rel
	intern := gen.syms.intern
	dev := intern(name)

	// OSPF hops and BGP sessions this device imports over, keyed by the
	// advertising side. Prefix-list references become content-addressed
	// ids: only sessions whose filter CONTENT changes produce input
	// differences.
	for _, adj := range u.adjs {
		if o, ok := dataplane.OSPFAdjacencyOf(net, adj); ok {
			rel.ospfAdj = append(rel.ospfAdj, dd.MkKV(intern(o.Peer), ospfHop{
				Dev:  dev,
				Intf: intern(o.LocalIntf),
				Cost: o.Cost,
			}))
		}
		s, ok := dataplane.BGPSessionOf(net, adj)
		if !ok {
			continue
		}
		t := bgpSess{
			Dev:    dev,
			Intf:   intern(s.LocalIntf),
			DevAS:  cfg.BGP.ASN,
			PeerAS: s.PeerAS,
			Pref:   s.LocalPref,
		}
		if s.FilterIn != nil || s.DenyIn {
			t.FIn = gen.filterID(s.FilterIn)
		}
		if s.FilterOut != nil || s.DenyOut {
			t.FOut = gen.filterID(s.FilterOut)
		}
		rel.bgpSess = append(rel.bgpSess, dd.MkKV(intern(s.Peer), t))
	}

	// Direct RIB entries: connected routes, then static routes, which
	// resolve at compile time.
	connected := dataplane.AppendConnectedRoutes(gen.conns[:0], name, cfg)
	gen.conns = connected
	for _, c := range connected {
		rel.ribDirect = append(rel.ribDirect, dd.MkKV(
			rkey{Dev: dev, Prefix: c.Prefix},
			ribEnt{
				Proto: netcfg.ProtoConnected, AD: netcfg.ProtoConnected.AdminDistance(),
				Action: dataplane.Deliver, OutIntf: intern(c.Intf),
			}))
	}
	statics := gen.statics[:0]
	for _, sr := range cfg.StaticRoutes {
		e := ribEnt{Proto: netcfg.ProtoStatic, AD: netcfg.ProtoStatic.AdminDistance()}
		if sr.Drop {
			e.Action = dataplane.Drop
		} else if peer, intf, ok := dataplane.ResolveStatic(net, name, sr.NextHop, u.adjs); ok {
			e.Action = dataplane.Forward
			e.NextHop = intern(peer)
			e.OutIntf = intern(intf)
		} else {
			continue
		}
		statics = append(statics, sr.Prefix)
		rel.ribDirect = append(rel.ribDirect, dd.MkKV(rkey{Dev: dev, Prefix: sr.Prefix}, e))
	}
	gen.statics = statics

	ospfSeed := func(p netcfg.Prefix, metric uint32) {
		rel.ospfSeeds = append(rel.ospfSeeds, dd.MkKV(rkey{Dev: dev, Prefix: p}, ospfRt{Dist: metric}))
	}
	bgpOrigin := func(p netcfg.Prefix) {
		rel.bgpOrigins = append(rel.bgpOrigins,
			dd.MkKV(rkey{Dev: dev, Prefix: p}, bgpRt{LocalPref: netcfg.DefaultLocalPref}))
	}
	if o := cfg.OSPF; o != nil {
		rel.ospfRouters = append(rel.ospfRouters, dev)
		for _, i := range cfg.Interfaces {
			if i.Shutdown || i.Addr.IsZero() {
				continue
			}
			if o.Enabled(i.Addr) {
				ospfSeed(i.Addr.Prefix(), 0)
			}
		}
		for _, r := range o.Redistribute {
			switch r.From {
			case netcfg.ProtoConnected:
				for _, c := range connected {
					ospfSeed(c.Prefix, r.Metric)
				}
			case netcfg.ProtoStatic:
				for _, p := range statics {
					ospfSeed(p, r.Metric)
				}
			case netcfg.ProtoBGP:
				rel.ospfFromBGP = append(rel.ospfFromBGP, dd.MkKV(dev, r.Metric))
			}
		}
	}
	if b := cfg.BGP; b != nil {
		for _, p := range b.Networks {
			bgpOrigin(p)
		}
		for _, a := range b.Aggregates {
			rel.bgpAgg = append(rel.bgpAgg, dd.MkKV(dev, a))
		}
		for _, r := range b.Redistribute {
			switch r.From {
			case netcfg.ProtoConnected:
				for _, c := range connected {
					bgpOrigin(c.Prefix)
				}
			case netcfg.ProtoStatic:
				for _, p := range statics {
					bgpOrigin(p)
				}
			case netcfg.ProtoOSPF:
				rel.bgpFromOSPF = append(rel.bgpFromOSPF, dd.MkKV(dev, struct{}{}))
			}
		}
	}
}
