// Package simulate computes a network's converged data plane from
// scratch with domain-specific algorithms: Dijkstra for OSPF and
// synchronous path-vector iteration for BGP. It fills two roles in this
// reproduction: the "Batfish"-style from-scratch baseline of the paper's
// Table 2, and the oracle that the incremental dd-based generator is
// differentially tested against.
package simulate

import (
	"fmt"
	"sort"

	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
)

// RouteKey identifies a route: which device, which destination prefix.
type RouteKey = dataplane.RouteKey

// Result is a converged data plane with the per-protocol bests that
// produced it.
type Result struct {
	// Rules is the complete FIB of every device.
	Rules map[dataplane.Rule]bool
	// Filters are the packet filter rules (extracted, not simulated).
	Filters []dataplane.FilterRule
	// OSPF and BGP hold each protocol's selected best routes.
	OSPF map[RouteKey]dataplane.OSPFRoute
	BGP  map[RouteKey]dataplane.BGPRoute
	// BGPIterations is the number of synchronous rounds until the BGP
	// fixpoint.
	BGPIterations int
}

// ErrCircularRedistribution is returned when OSPF redistributes BGP while
// BGP redistributes OSPF somewhere in the network; the mutual fixpoint is
// not supported by the from-scratch engine.
var ErrCircularRedistribution = fmt.Errorf("simulate: circular OSPF<->BGP redistribution")

// ErrDiverged is returned when BGP exceeds the iteration budget without
// converging (an unstable, dispute-wheel-like configuration).
var ErrDiverged = fmt.Errorf("simulate: BGP did not converge")

// maxBGPRounds bounds the synchronous path-vector iteration.
const maxBGPRounds = 1 << 10

// Run simulates the network's control plane to convergence and returns
// the data plane (single best path per prefix).
func Run(net *netcfg.Network) (*Result, error) {
	res := &Result{
		Rules:   make(map[dataplane.Rule]bool),
		Filters: dataplane.ExtractFilters(net),
		OSPF:    make(map[RouteKey]dataplane.OSPFRoute),
		BGP:     make(map[RouteKey]dataplane.BGPRoute),
	}
	adjs := dataplane.Adjacencies(net)
	connected := dataplane.ConnectedRoutes(net)
	statics := resolveStatics(net, adjs)

	ospfRedistsBGP, bgpRedistsOSPF := false, false
	for _, cfg := range net.Devices {
		if cfg.OSPF != nil {
			for _, r := range cfg.OSPF.Redistribute {
				if r.From == netcfg.ProtoBGP {
					ospfRedistsBGP = true
				}
			}
		}
		if cfg.BGP != nil {
			for _, r := range cfg.BGP.Redistribute {
				if r.From == netcfg.ProtoOSPF {
					bgpRedistsOSPF = true
				}
			}
		}
	}
	if ospfRedistsBGP && bgpRedistsOSPF {
		return nil, ErrCircularRedistribution
	}

	runOSPF := func() {
		res.OSPF = ospfRoutes(net, connected, statics, res.BGP)
	}
	runBGP := func() error {
		bgp, iters, err := bgpRoutes(net, connected, statics, res.OSPF)
		if err != nil {
			return err
		}
		res.BGP, res.BGPIterations = bgp, iters
		return nil
	}
	if ospfRedistsBGP {
		if err := runBGP(); err != nil {
			return nil, err
		}
		runOSPF()
	} else {
		runOSPF()
		if err := runBGP(); err != nil {
			return nil, err
		}
	}

	buildFIB(res, connected, statics)
	return res, nil
}

// resolvedStatic is a static route with its next hop resolved to a
// neighboring device.
type resolvedStatic struct {
	Device  string
	Prefix  netcfg.Prefix
	Drop    bool
	NextHop string
	OutIntf string
}

func resolveStatics(net *netcfg.Network, adjs []dataplane.Adjacency) []resolvedStatic {
	var out []resolvedStatic
	for _, name := range net.DeviceNames() {
		for _, sr := range net.Devices[name].StaticRoutes {
			if sr.Drop {
				out = append(out, resolvedStatic{Device: name, Prefix: sr.Prefix, Drop: true})
				continue
			}
			peer, intf, ok := dataplane.ResolveStatic(net, name, sr.NextHop, adjs)
			if !ok {
				continue // unresolvable next hop: route stays out of the RIB
			}
			out = append(out, resolvedStatic{Device: name, Prefix: sr.Prefix, NextHop: peer, OutIntf: intf})
		}
	}
	return out
}

// ospfSeed is a prefix injected into OSPF at a device with a starting
// metric.
type ospfSeed struct {
	Device string
	Prefix netcfg.Prefix
	Metric uint32
}

func ospfSeeds(net *netcfg.Network, connected []dataplane.ConnectedRoute, statics []resolvedStatic, bgp map[RouteKey]dataplane.BGPRoute) []ospfSeed {
	var seeds []ospfSeed
	add := func(dev string, p netcfg.Prefix, m uint32) {
		seeds = append(seeds, ospfSeed{Device: dev, Prefix: p, Metric: m})
	}
	connByDev := make(map[string][]dataplane.ConnectedRoute)
	for _, c := range connected {
		connByDev[c.Device] = append(connByDev[c.Device], c)
	}
	for _, name := range net.DeviceNames() {
		cfg := net.Devices[name]
		o := cfg.OSPF
		if o == nil {
			continue
		}
		// Natively announced: connected prefixes of OSPF-enabled interfaces.
		for _, i := range cfg.Interfaces {
			if i.Shutdown || i.Addr.IsZero() {
				continue
			}
			if o.Enabled(i.Addr) {
				add(name, i.Addr.Prefix(), 0)
			}
		}
		for _, r := range o.Redistribute {
			switch r.From {
			case netcfg.ProtoConnected:
				for _, c := range connByDev[name] {
					add(name, c.Prefix, r.Metric)
				}
			case netcfg.ProtoStatic:
				for _, s := range statics {
					if s.Device == name {
						add(name, s.Prefix, r.Metric)
					}
				}
			case netcfg.ProtoBGP:
				for k := range bgp {
					if k.Device == name {
						add(name, k.Prefix, r.Metric)
					}
				}
			}
		}
	}
	return seeds
}

// ospfRoutes computes every device's deterministic best OSPF route per
// prefix via Dijkstra from each device over the OSPF adjacency graph.
func ospfRoutes(net *netcfg.Network, connected []dataplane.ConnectedRoute, statics []resolvedStatic, bgp map[RouteKey]dataplane.BGPRoute) map[RouteKey]dataplane.OSPFRoute {
	adjs := dataplane.OSPFAdjacencies(net)
	seeds := ospfSeeds(net, connected, statics, bgp)

	// dist[u][d]: cheapest cost from u to d summing outgoing interface
	// costs. Computed by Dijkstra from each destination d over reversed
	// edges.
	names := net.DeviceNames()
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	// incoming[d] lists (u, cost(u->d-direction edge)).
	type inEdge struct {
		from int
		cost uint32
	}
	incoming := make([][]inEdge, len(names))
	// outEdge for next-hop selection.
	type outEdge struct {
		to      int
		cost    uint32
		outIntf string
	}
	outgoing := make([][]outEdge, len(names))
	for _, a := range adjs {
		u, v := idx[a.Dev], idx[a.Peer]
		incoming[v] = append(incoming[v], inEdge{from: u, cost: a.Cost})
		outgoing[u] = append(outgoing[u], outEdge{to: v, cost: a.Cost, outIntf: a.LocalIntf})
	}

	const inf = uint64(1) << 62
	dist := make([][]uint64, len(names)) // dist[d][u]
	for d := range names {
		dv := make([]uint64, len(names))
		for i := range dv {
			dv[i] = inf
		}
		dv[d] = 0
		// Dijkstra with a simple heap.
		h := &distHeap{}
		h.push(distItem{node: d, dist: 0})
		done := make([]bool, len(names))
		for h.len() > 0 {
			it := h.pop()
			if done[it.node] {
				continue
			}
			done[it.node] = true
			for _, e := range incoming[it.node] {
				nd := it.dist + uint64(e.cost)
				if nd < dv[e.from] {
					dv[e.from] = nd
					h.push(distItem{node: e.from, dist: nd})
				}
			}
		}
		dist[d] = dv
	}

	// Group seeds by prefix.
	byPrefix := make(map[netcfg.Prefix][]ospfSeed)
	for _, s := range seeds {
		byPrefix[s.Prefix] = append(byPrefix[s.Prefix], s)
	}

	best := make(map[RouteKey]dataplane.OSPFRoute)
	for p, ss := range byPrefix {
		for u, uName := range names {
			if net.Devices[uName].OSPF == nil {
				continue
			}
			// Best total distance from u to any seed.
			bd := inf
			for _, s := range ss {
				if d := dist[idx[s.Device]][u] + uint64(s.Metric); d < bd {
					bd = d
				}
			}
			if bd >= inf {
				continue
			}
			// Collect every route achieving bd: the local seed (which wins
			// single-path ties, "" < names) and each shortest-path neighbor.
			var cands []dataplane.OSPFRoute
			for _, s := range ss {
				if s.Device == uName && uint64(s.Metric) == bd {
					cands = append(cands, dataplane.OSPFRoute{Dist: uint32(bd)})
					break
				}
			}
			for _, e := range outgoing[u] {
				vBest := inf
				for _, s := range ss {
					if d := dist[idx[s.Device]][e.to] + uint64(s.Metric); d < vBest {
						vBest = d
					}
				}
				if vBest >= inf || uint64(e.cost)+vBest != bd {
					continue
				}
				cands = append(cands, dataplane.OSPFRoute{Dist: uint32(bd), NextHop: names[e.to], OutIntf: e.outIntf})
			}
			if len(cands) == 0 {
				continue // unreachable despite finite bd: cannot happen
			}
			k := RouteKey{Device: uName, Prefix: p}
			route := cands[0]
			for _, c := range cands[1:] {
				if c.Better(route) {
					route = c
				}
			}
			best[k] = route
		}
	}
	return best
}

type distItem struct {
	node int
	dist uint64
}

type distHeap []distItem

func (h *distHeap) len() int { return len(*h) }

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].dist <= (*h)[i].dist {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(*h) && (*h)[l].dist < (*h)[m].dist {
			m = l
		}
		if r < len(*h) && (*h)[r].dist < (*h)[m].dist {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top
}

// bgpRoutes computes every device's best BGP route per prefix by
// synchronous path-vector iteration to a fixpoint.
func bgpRoutes(net *netcfg.Network, connected []dataplane.ConnectedRoute, statics []resolvedStatic, ospf map[RouteKey]dataplane.OSPFRoute) (map[RouteKey]dataplane.BGPRoute, int, error) {
	sessions := dataplane.BGPSessions(net)
	origins := bgpOrigins(net, connected, statics, ospf)

	asn := make(map[string]uint32)
	for name, cfg := range net.Devices {
		if cfg.BGP != nil {
			asn[name] = cfg.BGP.ASN
		}
	}
	// Sessions grouped by importer.
	byDev := make(map[string][]dataplane.BGPSession)
	for _, s := range sessions {
		byDev[s.Dev] = append(byDev[s.Dev], s)
	}

	// Aggregate configuration per device.
	aggsByDev := make(map[string][]netcfg.Prefix)
	for name, cfg := range net.Devices {
		if cfg.BGP != nil {
			aggsByDev[name] = cfg.BGP.Aggregates
		}
	}

	best := make(map[RouteKey]dataplane.BGPRoute)
	for k, r := range origins {
		best[k] = r
	}
	for round := 1; round <= maxBGPRounds; round++ {
		next := make(map[RouteKey]dataplane.BGPRoute, len(best))
		for k, r := range origins {
			next[k] = r
		}
		// Aggregates activate when the previous state holds a strictly
		// more-specific route at the aggregating device.
		for dev, aggs := range aggsByDev {
			for _, agg := range aggs {
				active := false
				for k := range best {
					if k.Device == dev && k.Prefix != agg && agg.ContainsPrefix(k.Prefix) {
						active = true
						break
					}
				}
				if !active {
					continue
				}
				key := RouteKey{Device: dev, Prefix: agg}
				r := dataplane.BGPRoute{LocalPref: netcfg.DefaultLocalPref, Discard: true}
				if cur, ok := next[key]; !ok || r.Better(cur) {
					next[key] = r
				}
			}
		}
		// Collect advertisements: peers advertise their current best.
		for dev, ss := range byDev {
			myAS := asn[dev]
			for _, s := range ss {
				for k, r := range best {
					if k.Device != s.Peer {
						continue
					}
					if r.PathLen+1 > dataplane.MaxASPathLen {
						continue
					}
					if !s.PermitsOut(k.Prefix) || !s.PermitsIn(k.Prefix) {
						continue
					}
					path := dataplane.PathPrepend(s.PeerAS, r.Path)
					if dataplane.PathContains(path, myAS) {
						continue
					}
					cand := dataplane.BGPRoute{
						LocalPref: s.LocalPref,
						PathLen:   r.PathLen + 1,
						Path:      path,
						PeerAS:    s.PeerAS,
						NextHop:   s.Peer,
						OutIntf:   s.LocalIntf,
					}
					key := RouteKey{Device: dev, Prefix: k.Prefix}
					if cur, ok := next[key]; !ok || cand.Better(cur) {
						next[key] = cand
					}
				}
			}
		}
		if bgpEqual(best, next) {
			return next, round, nil
		}
		best = next
	}
	return nil, maxBGPRounds, ErrDiverged
}

func bgpEqual(a, b map[RouteKey]dataplane.BGPRoute) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func bgpOrigins(net *netcfg.Network, connected []dataplane.ConnectedRoute, statics []resolvedStatic, ospf map[RouteKey]dataplane.OSPFRoute) map[RouteKey]dataplane.BGPRoute {
	origins := make(map[RouteKey]dataplane.BGPRoute)
	add := func(dev string, p netcfg.Prefix) {
		k := RouteKey{Device: dev, Prefix: p}
		r := dataplane.BGPRoute{LocalPref: netcfg.DefaultLocalPref}
		if cur, ok := origins[k]; !ok || r.Better(cur) {
			origins[k] = r
		}
	}
	connByDev := make(map[string][]dataplane.ConnectedRoute)
	for _, c := range connected {
		connByDev[c.Device] = append(connByDev[c.Device], c)
	}
	for _, name := range net.DeviceNames() {
		cfg := net.Devices[name]
		if cfg.BGP == nil {
			continue
		}
		for _, p := range cfg.BGP.Networks {
			add(name, p)
		}
		for _, r := range cfg.BGP.Redistribute {
			switch r.From {
			case netcfg.ProtoConnected:
				for _, c := range connByDev[name] {
					add(name, c.Prefix)
				}
			case netcfg.ProtoStatic:
				for _, s := range statics {
					if s.Device == name {
						add(name, s.Prefix)
					}
				}
			case netcfg.ProtoOSPF:
				for k := range ospf {
					if k.Device == name {
						add(name, k.Prefix)
					}
				}
			}
		}
	}
	return origins
}

// buildFIB merges per-protocol bests into each device's FIB: one
// Better-minimal entry installs per (device, prefix).
func buildFIB(res *Result, connected []dataplane.ConnectedRoute, statics []resolvedStatic) {
	type key = RouteKey
	cands := make(map[key][]dataplane.RIBEntry)
	offer := func(k key, e dataplane.RIBEntry) {
		cands[k] = append(cands[k], e)
	}
	for _, c := range connected {
		offer(key{Device: c.Device, Prefix: c.Prefix}, dataplane.RIBEntry{
			Proto: netcfg.ProtoConnected, AD: netcfg.ProtoConnected.AdminDistance(),
			Action: dataplane.Deliver, OutIntf: c.Intf,
		})
	}
	for _, s := range statics {
		e := dataplane.RIBEntry{Proto: netcfg.ProtoStatic, AD: netcfg.ProtoStatic.AdminDistance()}
		if s.Drop {
			e.Action = dataplane.Drop
		} else {
			e.Action = dataplane.Forward
			e.NextHop = s.NextHop
			e.OutIntf = s.OutIntf
		}
		offer(key{Device: s.Device, Prefix: s.Prefix}, e)
	}
	for k, r := range res.BGP {
		e := dataplane.RIBEntry{Proto: netcfg.ProtoBGP, AD: netcfg.ProtoBGP.AdminDistance()}
		switch {
		case r.NextHop == "" && r.Discard:
			e.Action = dataplane.Drop // aggregate null route at the origin
		case r.NextHop == "":
			// Locally originated (network statement / redistribution):
			// the origin routes the prefix via its source protocol, so
			// the BGP entry must not enter the FIB (it would shadow the
			// real route with its low administrative distance).
			continue
		default:
			e.Action = dataplane.Forward
			e.NextHop = r.NextHop
			e.OutIntf = r.OutIntf
		}
		offer(k, e)
	}
	for k, r := range res.OSPF {
		e := dataplane.RIBEntry{Proto: netcfg.ProtoOSPF, AD: netcfg.ProtoOSPF.AdminDistance(), Metric: r.Dist}
		if r.NextHop == "" {
			e.Action = dataplane.Deliver
		} else {
			e.Action = dataplane.Forward
			e.NextHop = r.NextHop
			e.OutIntf = r.OutIntf
		}
		offer(k, e)
	}

	for k, entries := range cands {
		best := entries[0]
		for _, e := range entries[1:] {
			if e.Better(best) {
				best = e
			}
		}
		res.Rules[best.Rule(k.Device, k.Prefix)] = true
	}
}

// SortedRules returns the FIB as a deterministic slice, for display and
// golden comparisons.
func (r *Result) SortedRules() []dataplane.Rule {
	out := make([]dataplane.Rule, 0, len(r.Rules))
	for rule := range r.Rules {
		out = append(out, rule)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Prefix.Addr != b.Prefix.Addr {
			return a.Prefix.Addr < b.Prefix.Addr
		}
		if a.Prefix.Len != b.Prefix.Len {
			return a.Prefix.Len < b.Prefix.Len
		}
		return a.NextHop < b.NextHop
	})
	return out
}
