// Package routing is RealConfig's incremental data plane generator: it
// expresses control plane semantics (connected routes, static routes,
// OSPF, BGP, route redistribution) as dataflow programs over the dd
// engine, so that configuration changes translate into input differences
// and only the affected routes are recomputed. This is the Go counterpart
// of the paper's DDlog program running on Differential Dataflow.
//
// Every tuple is stored once, in the operator that produced it: the
// protocol best routes live in their reductions' output groups, which
// OSPFBest and BGPBest read in place, and the one materialized sink is
// the FIB's, keyed by a fixed-width interned rule (frule). Strings come
// back only where results leave: FIBChanges names the epoch's net
// changes, and FIB builds a fresh map of the accumulated rules.
//
// Packet filters are not simulated: as the paper notes, filtering rules
// are explicit in configurations, so their changes are extracted directly
// (see Generator.Filters).
package routing

import (
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// Options configures a Generator. It has no settings: recurring-state
// detection on the BGP and OSPF fixpoints is always on, turning
// non-convergent configurations (e.g. BGP dispute wheels) into errors
// instead of hangs.
type Options struct{}

// Generator owns the dataflow graph computing a network's data plane.
// Build one with New, load a network with SetNetwork or SetNetworkDelta,
// run epochs with Step, and read the FIB and its per-epoch changes.
//
// Inside the graph every tuple is interned (see sym): names become
// symbols on the way in (the compile units) and strings again only
// where results leave (FIBChanges, FIB and the OSPFBest/BGPBest
// accessors).
type Generator struct {
	g    *dd.Graph
	syms *symtab

	// Inputs (compiled relations).
	ospfRouters *dd.Input[sym] // devices that run OSPF
	ospfAdj     *dd.Input[dd.KV[sym, ospfHop]]
	ospfSeeds   *dd.Input[dd.KV[rkey, ospfRt]]
	bgpSess     *dd.Input[dd.KV[sym, bgpSess]]
	bgpOrigin   *dd.Input[dd.KV[rkey, bgpRt]]
	ribDirect   *dd.Input[dd.KV[rkey, ribEnt]]
	ospfFromB   *dd.Input[dd.KV[sym, uint32]]        // device -> metric (OSPF redistributes BGP)
	bgpFromO    *dd.Input[dd.KV[sym, struct{}]]      // device set (BGP redistributes OSPF)
	bgpAgg      *dd.Input[dd.KV[sym, netcfg.Prefix]] // device -> aggregate-address

	// Prefix lists referenced by session tuples, content-addressed: the
	// same entries always map to the same id while some session uses
	// them. Definitions are immutable once registered, which preserves
	// operator purity. Each counts the staged session tuples that use
	// it; Step drops the unused ones once its epoch (which still
	// evaluates retracted sessions against their old lists) is done, so
	// the table stays at its live size however often a list is edited.
	// Ids are never reused.
	filterIDs  map[string]uint32
	filterDefs map[uint32]*filterDef
	filterNext uint32

	// Compile units by device name, and the incident links of topo, the
	// topology they were compiled against.
	units    map[string]*unit
	topo     *netcfg.Topology
	incident map[string][]netcfg.Link

	// Scratch reused across compiles: the unit being compiled, its
	// connected routes and redistributable static prefixes, the dirty
	// closure and its sorted order, and the filter deletions staged
	// after the insertions.
	scratch    unit
	conns      []dataplane.ConnectedRoute
	statics    []netcfg.Prefix
	dirty      map[string]bool
	order      []string
	filterDels []dd.Entry[dataplane.FilterRule]

	// Outputs: the protocol reductions' own output groups, and the FIB.
	ospfBest dd.Arranged[rkey, ospfRt]
	bgpBest  dd.Arranged[rkey, bgpRt]
	fib      *dd.Output[frule]

	// Packet filters, extracted directly from configurations.
	filters       map[dataplane.FilterRule]bool
	filterChanges []dd.Entry[dataplane.FilterRule]

	// Table-size gauges (nil until Instrument).
	symbolsGauge    *obs.Gauge
	filterDefsGauge *obs.Gauge
}

// filterDef is one registered prefix-list snapshot, the content key it
// is registered under, and how many staged session tuples use it.
type filterDef struct {
	key  string
	list *netcfg.PrefixList
	refs int
}

// ospfHop says: the keyed device (the advertiser) has a neighbor Dev that
// can import its routes over interface Intf at link cost Cost.
type ospfHop struct {
	Dev  sym
	Intf sym
	Cost uint32
}

// bgpSess says: the keyed device (the advertiser) has an established
// session to Dev, which imports with local preference Pref; DevAS is the
// importer's own AS (for loop rejection) and PeerAS the advertiser's.
// FIn and FOut are content-addressed ids of the session's import and
// export prefix lists (0 = none): because the id changes whenever the
// referenced list's content changes, session tuples change too and the
// dataflow recomputes exactly the affected candidates, keeping operator
// functions pure.
type bgpSess struct {
	Dev    sym
	Intf   sym
	DevAS  uint32
	PeerAS uint32
	Pref   uint32
	FIn    uint32
	FOut   uint32
}

// maxOSPFDist caps accumulated OSPF distances, guarding against overflow
// on pathological cost configurations.
const maxOSPFDist = 1 << 30

// New builds the dataflow graph. The graph is network-independent:
// networks are loaded as data via SetNetwork.
func New(Options) *Generator {
	g := dd.NewGraph()
	syms := newSymtab()
	gen := &Generator{
		g:           g,
		syms:        syms,
		ospfRouters: dd.NewInput[sym](g),
		ospfAdj:     dd.NewInput[dd.KV[sym, ospfHop]](g),
		ospfSeeds:   dd.NewInput[dd.KV[rkey, ospfRt]](g),
		bgpSess:     dd.NewInput[dd.KV[sym, bgpSess]](g),
		bgpOrigin:   dd.NewInput[dd.KV[rkey, bgpRt]](g),
		ribDirect:   dd.NewInput[dd.KV[rkey, ribEnt]](g),
		ospfFromB:   dd.NewInput[dd.KV[sym, uint32]](g),
		bgpFromO:    dd.NewInput[dd.KV[sym, struct{}]](g),
		bgpAgg:      dd.NewInput[dd.KV[sym, netcfg.Prefix]](g),
		filterIDs:   make(map[string]uint32),
		filterDefs:  make(map[uint32]*filterDef),
		filters:     make(map[dataplane.FilterRule]bool),
		units:       make(map[string]*unit),
		incident:    make(map[string][]netcfg.Link),
		dirty:       make(map[string]bool),
	}

	// The two protocol fixpoints feed each other through redistribution,
	// so both loop variables are declared first and closed after.
	rdistVar := dd.NewVar[dd.KV[rdkey, ospfRt]](g)
	bgpVar := dd.NewVar[dd.KV[rkey, bgpRt]](g)

	// --- OSPF ------------------------------------------------------------
	// RFC 2328's shape: shortest paths over routers, then prefixes
	// attached at the routers that announce them. The router loop holds
	// each device's best route to every OSPF router (the origin): the
	// origin reaches itself at distance 0, and a route at device v
	// reaches each OSPF neighbor u at cost(u->v) more.
	routerSeeds := dd.Map(gen.ospfRouters.Collection(), func(o sym) dd.KV[rdkey, ospfRt] {
		return dd.MkKV(rdkey{Dev: o, Origin: o}, ospfRt{})
	})
	rdistByDev := dd.Map(rdistVar.Collection(),
		func(kv dd.KV[rdkey, ospfRt]) dd.KV[sym, dd.KV[sym, uint32]] {
			return dd.MkKV(kv.K.Dev, dd.MkKV(kv.K.Origin, kv.V.Dist))
		})
	rdistCands := dd.Join(rdistByDev, gen.ospfAdj.Collection(),
		func(v sym, od dd.KV[sym, uint32], hop ospfHop) dd.KV[rdkey, ospfRt] {
			return dd.MkKV(
				rdkey{Dev: hop.Dev, Origin: od.K},
				ospfRt{Dist: od.V + hop.Cost, NextHop: v, OutIntf: hop.Intf},
			)
		})
	rdistCands = dd.Filter(rdistCands, func(kv dd.KV[rdkey, ospfRt]) bool {
		return kv.V.Dist < maxOSPFDist
	})
	rdist := dd.ReduceMin(dd.Concat(routerSeeds, rdistCands), syms.ospfBetter)
	rdistVar.Feedback(rdist)

	// Stubs: each origin's announced prefixes and metrics, compiled
	// seeds plus BGP bests redistributed into OSPF at devices configured
	// to do so.
	bgpByDev := dd.Map(bgpVar.Collection(),
		func(kv dd.KV[rkey, bgpRt]) dd.KV[sym, netcfg.Prefix] {
			return dd.MkKV(kv.K.Dev, kv.K.Prefix)
		})
	redistStubs := dd.Join(bgpByDev, gen.ospfFromB.Collection(),
		func(dev sym, prefix netcfg.Prefix, metric uint32) dd.KV[sym, dd.KV[netcfg.Prefix, uint32]] {
			return dd.MkKV(dev, dd.MkKV(prefix, metric))
		})
	seedStubs := dd.Map(gen.ospfSeeds.Collection(),
		func(kv dd.KV[rkey, ospfRt]) dd.KV[sym, dd.KV[netcfg.Prefix, uint32]] {
			return dd.MkKV(kv.K.Dev, dd.MkKV(kv.K.Prefix, kv.V.Dist))
		})
	// Attach: a device's route to a prefix goes to one of its origins,
	// at the distance to the origin plus the origin's metric. Route order
	// is lexicographic on (Dist, NextHop, OutIntf) and adding a metric
	// keeps it, so the minimum over origins of each origin's minimum is
	// the per-prefix fixpoint's minimum, tie-breaks included.
	rdistByOrigin := dd.Map(rdist,
		func(kv dd.KV[rdkey, ospfRt]) dd.KV[sym, dd.KV[sym, ospfRt]] {
			return dd.MkKV(kv.K.Origin, dd.MkKV(kv.K.Dev, kv.V))
		})
	ospfAll := dd.Join(rdistByOrigin, dd.Concat(seedStubs, redistStubs),
		func(_ sym, dr dd.KV[sym, ospfRt], stub dd.KV[netcfg.Prefix, uint32]) dd.KV[rkey, ospfRt] {
			r := dr.V
			r.Dist += stub.V
			return dd.MkKV(rkey{Dev: dr.K, Prefix: stub.K}, r)
		})
	ospfAll = dd.Filter(ospfAll, func(kv dd.KV[rkey, ospfRt]) bool {
		return kv.V.NextHop == 0 || kv.V.Dist < maxOSPFDist // an origin keeps its own metric
	})
	ospfBest, ospfArr := dd.ReduceMinArranged(ospfAll, syms.ospfBetter)

	// --- BGP --------------------------------------------------------------
	// Origins: compiled network statements / compile-time redistributions
	// plus OSPF bests redistributed into BGP.
	ospfBestByDev := dd.Map(ospfBest,
		func(kv dd.KV[rkey, ospfRt]) dd.KV[sym, netcfg.Prefix] {
			return dd.MkKV(kv.K.Dev, kv.K.Prefix)
		})
	bgpRedistOrigins := dd.Join(ospfBestByDev, gen.bgpFromO.Collection(),
		func(dev sym, prefix netcfg.Prefix, _ struct{}) dd.KV[rkey, bgpRt] {
			return dd.MkKV(rkey{Dev: dev, Prefix: prefix}, bgpRt{LocalPref: netcfg.DefaultLocalPref})
		})
	// Propagation: the advertiser (keyed) prepends its AS; the importer
	// rejects AS-path loops and over-long paths, and assigns the
	// session's local preference.
	bgpByAdvertiser := dd.Map(bgpVar.Collection(),
		func(kv dd.KV[rkey, bgpRt]) dd.KV[sym, dd.KV[netcfg.Prefix, dd.KV[uint8, sym]]] {
			return dd.MkKV(kv.K.Dev, dd.MkKV(kv.K.Prefix, dd.MkKV(kv.V.PathLen, kv.V.Path)))
		})
	bgpCands := dd.Join(bgpByAdvertiser, gen.bgpSess.Collection(),
		func(v sym, adv dd.KV[netcfg.Prefix, dd.KV[uint8, sym]], s bgpSess) dd.KV[rkey, bgpRt] {
			pathLen, path := adv.V.K, adv.V.V
			if pathLen+1 > dataplane.MaxASPathLen {
				return dd.KV[rkey, bgpRt]{} // filtered below
			}
			if !gen.permits(s.FOut, adv.K) || !gen.permits(s.FIn, adv.K) {
				return dd.KV[rkey, bgpRt]{}
			}
			// Loop check on the prepended path, before interning it so
			// rejected candidates leave nothing in the symbol table.
			if s.PeerAS == s.DevAS || dataplane.PathContains(syms.name(path), s.DevAS) {
				return dd.KV[rkey, bgpRt]{}
			}
			return dd.MkKV(
				rkey{Dev: s.Dev, Prefix: adv.K},
				bgpRt{
					LocalPref: s.Pref,
					PathLen:   pathLen + 1,
					Path:      syms.prepend(s.PeerAS, path),
					PeerAS:    s.PeerAS,
					NextHop:   v,
					OutIntf:   s.Intf,
				},
			)
		})
	bgpCands = dd.Filter(bgpCands, func(kv dd.KV[rkey, bgpRt]) bool {
		return kv.K.Dev != 0 // drop the rejected sentinel
	})
	// Aggregates: an aggregate-address originates (as a discard route)
	// exactly while some strictly more-specific BGP route exists at the
	// device; deriving it from the loop variable makes activation and
	// deactivation fully incremental.
	aggMatches := dd.Join(bgpByDev, gen.bgpAgg.Collection(),
		func(dev sym, p netcfg.Prefix, agg netcfg.Prefix) dd.KV[rkey, bool] {
			ok := p != agg && agg.ContainsPrefix(p)
			return dd.MkKV(rkey{Dev: dev, Prefix: agg}, ok)
		})
	aggActive := dd.Distinct(dd.Map(
		dd.Filter(aggMatches, func(kv dd.KV[rkey, bool]) bool { return kv.V }),
		func(kv dd.KV[rkey, bool]) rkey { return kv.K }))
	aggOrigins := dd.Map(aggActive, func(k rkey) dd.KV[rkey, bgpRt] {
		return dd.MkKV(k, bgpRt{LocalPref: netcfg.DefaultLocalPref, Discard: true})
	})

	bgpAll := dd.Concat(gen.bgpOrigin.Collection(), bgpRedistOrigins, aggOrigins, bgpCands)
	bgpBest, bgpArr := dd.ReduceMinArranged(bgpAll, syms.bgpBetter)
	bgpVar.Feedback(bgpBest)

	dd.Watch(bgpBest, "bgp", hashBGPBest)
	dd.Watch(ospfBest, "ospf", hashOSPFBest)

	// --- RIB / FIB ---------------------------------------------------------
	ospfRIB := dd.Map(ospfBest, func(kv dd.KV[rkey, ospfRt]) dd.KV[rkey, ribEnt] {
		e := ribEnt{
			Proto: netcfg.ProtoOSPF, AD: netcfg.ProtoOSPF.AdminDistance(), Metric: kv.V.Dist,
			Action: dataplane.Forward, NextHop: kv.V.NextHop, OutIntf: kv.V.OutIntf,
		}
		if kv.V.NextHop == 0 {
			e.Action = dataplane.Deliver
			e.OutIntf = 0
		}
		return dd.MkKV(kv.K, e)
	})
	// Locally originated BGP routes (network statement / redistribution)
	// never install: the origin routes the prefix via the source
	// protocol, and the low BGP administrative distance would wrongly
	// shadow it. Aggregates DO install, as discard routes.
	bgpInstallable := dd.Filter(bgpBest, func(kv dd.KV[rkey, bgpRt]) bool {
		return kv.V.NextHop != 0 || kv.V.Discard
	})
	bgpRIB := dd.Map(bgpInstallable, func(kv dd.KV[rkey, bgpRt]) dd.KV[rkey, ribEnt] {
		e := ribEnt{
			Proto: netcfg.ProtoBGP, AD: netcfg.ProtoBGP.AdminDistance(),
			Action: dataplane.Forward, NextHop: kv.V.NextHop, OutIntf: kv.V.OutIntf,
		}
		if kv.V.NextHop == 0 {
			e.OutIntf = 0
			e.Action = dataplane.Drop // aggregate null route at the origin
		}
		return dd.MkKV(kv.K, e)
	})
	rib := dd.Concat(gen.ribDirect.Collection(), ospfRIB, bgpRIB)
	fibBest := dd.ReduceMin(rib, syms.ribBetter)
	rules := dd.Map(fibBest, func(kv dd.KV[rkey, ribEnt]) frule { return fibRule(kv.K, kv.V) })

	gen.ospfBest, gen.bgpBest = ospfArr, bgpArr
	gen.fib = dd.NewOutput(rules)
	return gen
}

// SetNetwork compiles the network into relation tuples and stages the
// difference against the currently loaded relations. The dataflow then
// recomputes incrementally on the next Step: loading a slightly changed
// network costs work proportional to the change. It is SetNetworkDelta
// with every device of the previous and the new network marked changed,
// so net may be the previously loaded network, edited in place.
func (gen *Generator) SetNetwork(net *netcfg.Network) {
	changed := make([]string, 0, len(net.Devices))
	for name := range net.Devices {
		changed = append(changed, name)
	}
	for name := range gen.units {
		if net.Devices[name] == nil {
			changed = append(changed, name)
		}
	}
	gen.indexLinks(net.Topology)
	gen.compileDelta(net, changed)
}

// SetNetworkDelta is SetNetwork for a network that differs from the
// previously loaded one only in the changed devices: those whose
// configuration differs (added and removed devices included) and both
// endpoints of every added or removed link. It recompiles their compile
// units and those of their link neighbours, and stages only the
// difference. Configurations outside changed, and the topology when it
// is the same *Topology as last time, must not have been modified since
// they were loaded.
func (gen *Generator) SetNetworkDelta(net *netcfg.Network, changed []string) CompileStats {
	if net.Topology != gen.topo {
		gen.indexLinks(net.Topology)
	}
	return gen.compileDelta(net, changed)
}

// Instrument registers the underlying dataflow engine's counters on reg,
// plus gauges for the generator's two tables that only ever grow by
// interning (symbols) or by compiling prefix lists (filter definitions).
func (gen *Generator) Instrument(reg *obs.Registry) {
	gen.g.Instrument(reg)
	gen.symbolsGauge = reg.Gauge("realconfig_routing_symbols",
		"Interned device names, interface names and BGP AS paths held by the data plane generator.", nil)
	gen.filterDefsGauge = reg.Gauge("realconfig_routing_filter_defs",
		"Prefix-list snapshots held by the data plane generator for BGP session filters.", nil)
	gen.setGauges()
}

func (gen *Generator) setGauges() {
	gen.symbolsGauge.Set(int64(len(gen.syms.names)))
	gen.filterDefsGauge.Set(int64(len(gen.filterDefs)))
}

// SetTrace attaches a provenance trace to the underlying dataflow graph:
// subsequent Steps record per-node epoch spans. Pass nil to detach.
func (gen *Generator) SetTrace(a *trace.Apply) { gen.g.SetTrace(a) }

// Step runs one epoch, returning engine statistics. After an error the
// generator must be discarded.
func (gen *Generator) Step() (dd.EpochStats, error) {
	st, err := gen.g.Advance()
	if err != nil {
		return st, err
	}
	// The epoch that retracted sessions using superseded prefix lists
	// is over; nothing can evaluate those lists again.
	for id, def := range gen.filterDefs {
		if def.refs == 0 {
			delete(gen.filterDefs, id)
			delete(gen.filterIDs, def.key)
		}
	}
	gen.setGauges()
	return st, nil
}

// FIB returns the accumulated forwarding rules, converted to names (a
// fresh map per call; callers may modify it).
func (gen *Generator) FIB() map[dataplane.Rule]dd.Diff {
	state := gen.fib.State()
	out := make(map[dataplane.Rule]dd.Diff, len(state))
	for r, d := range state {
		out[gen.syms.rule(r)] = d
	}
	return out
}

// NumFIBRules returns the number of live forwarding rules (those with
// positive multiplicity in FIB) without scanning it.
func (gen *Generator) NumFIBRules() int { return gen.fib.Live() }

// FIBChanges returns the net FIB rule changes of the last Step,
// insertions and deletions mixed, in unspecified order.
func (gen *Generator) FIBChanges() []dd.Entry[dataplane.Rule] {
	changes := gen.fib.Changes()
	out := make([]dd.Entry[dataplane.Rule], 0, len(changes))
	for r, d := range changes {
		out = append(out, dd.Entry[dataplane.Rule]{Val: gen.syms.rule(r), Diff: d})
	}
	return out
}

// Filters returns the current packet filter rules.
func (gen *Generator) Filters() []dataplane.FilterRule {
	out := make([]dataplane.FilterRule, 0, len(gen.filters))
	for f := range gen.filters {
		out = append(out, f)
	}
	return out
}

// FilterChanges returns the filter rule changes staged by the last
// SetNetwork or SetNetworkDelta, insertions before deletions (they take
// effect immediately; no Step needed).
func (gen *Generator) FilterChanges() []dd.Entry[dataplane.FilterRule] { return gen.filterChanges }

// OSPFBest returns the accumulated best OSPF routes, read from the OSPF
// reduction in place and converted back to names (a fresh map per
// call; this is an inspection accessor).
func (gen *Generator) OSPFBest() map[dd.KV[dataplane.RouteKey, dataplane.OSPFRoute]]dd.Diff {
	out := make(map[dd.KV[dataplane.RouteKey, dataplane.OSPFRoute]]dd.Diff)
	gen.ospfBest.Each(func(k rkey, r ospfRt, d dd.Diff) {
		out[dd.MkKV(gen.syms.routeKey(k), gen.syms.ospfRoute(r))] = d
	})
	return out
}

// BGPBest returns the accumulated best BGP routes, read from the BGP
// reduction in place and converted back to names (a fresh map per
// call; this is an inspection accessor).
func (gen *Generator) BGPBest() map[dd.KV[dataplane.RouteKey, dataplane.BGPRoute]]dd.Diff {
	out := make(map[dd.KV[dataplane.RouteKey, dataplane.BGPRoute]]dd.Diff)
	gen.bgpBest.Each(func(k rkey, r bgpRt, d dd.Diff) {
		out[dd.MkKV(gen.syms.routeKey(k), gen.syms.bgpRoute(r))] = d
	})
	return out
}

// Stats returns the statistics of the last epoch.
func (gen *Generator) Stats() dd.EpochStats { return gen.g.Stats() }

// permits evaluates a content-addressed prefix-list id against a route
// prefix. Id 0 permits everything; a registered id applies its list's
// first-match semantics (an empty list denies all, which is how dangling
// references compile).
func (gen *Generator) permits(id uint32, p netcfg.Prefix) bool {
	if id == 0 {
		return true
	}
	def, ok := gen.filterDefs[id]
	if !ok {
		return false // unreachable: compile registers every id it emits
	}
	return def.list.Permits(p)
}
