package routing

import (
	"fmt"
	"strings"

	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// relations is the compiled form of a network: the interned tuples fed
// to the dataflow inputs. Compilation is linear in configuration size and
// runs on every SetNetwork; the expensive route computation stays
// incremental.
type relations struct {
	ospfAdj     []dd.KV[sym, ospfHop]
	ospfSeeds   []dd.KV[rkey, ospfRt]
	bgpSess     []dd.KV[sym, bgpSess]
	bgpOrigins  []dd.KV[rkey, bgpRt]
	ribDirect   []dd.KV[rkey, ribEnt]
	ospfFromBGP []dd.KV[sym, uint32]
	bgpFromOSPF []dd.KV[sym, struct{}]
	bgpAgg      []dd.KV[sym, netcfg.Prefix]
}

// filterID returns the content-addressed id of a prefix list (the same
// entries always produce the same id, independent of the list's name),
// registering an immutable snapshot on first sight and marking the id
// live for the relations being compiled. A nil list (dangling reference)
// compiles to an empty list, which denies everything.
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
	gen.filterDefs[id].live = true
	return id
}

func (gen *Generator) compile(net *netcfg.Network) relations {
	var rel relations
	intern := gen.syms.intern
	for _, def := range gen.filterDefs {
		def.live = false
	}
	adjs := dataplane.Adjacencies(net)
	connected := dataplane.ConnectedRoutes(net)
	connByDev := make(map[string][]dataplane.ConnectedRoute)
	for _, c := range connected {
		connByDev[c.Device] = append(connByDev[c.Device], c)
	}

	// OSPF adjacency tuples, keyed by the advertising side.
	for _, a := range dataplane.OSPFAdjacencies(net) {
		rel.ospfAdj = append(rel.ospfAdj, dd.MkKV(intern(a.Peer), ospfHop{
			Dev:  intern(a.Dev),
			Intf: intern(a.LocalIntf),
			Cost: a.Cost,
		}))
	}

	// BGP session tuples, keyed by the advertising side. Prefix-list
	// references become content-addressed ids: only sessions whose
	// filter CONTENT changes produce input differences.
	for _, s := range dataplane.BGPSessions(net) {
		t := bgpSess{
			Dev:    intern(s.Dev),
			Intf:   intern(s.LocalIntf),
			DevAS:  net.Devices[s.Dev].BGP.ASN,
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

	// Static routes resolve at compile time.
	type resolved struct {
		dev     string
		prefix  netcfg.Prefix
		drop    bool
		nextHop string
		outIntf string
	}
	var statics []resolved
	for _, name := range net.DeviceNames() {
		for _, sr := range net.Devices[name].StaticRoutes {
			if sr.Drop {
				statics = append(statics, resolved{dev: name, prefix: sr.Prefix, drop: true})
				continue
			}
			if peer, intf, ok := dataplane.ResolveStatic(net, name, sr.NextHop, adjs); ok {
				statics = append(statics, resolved{dev: name, prefix: sr.Prefix, nextHop: peer, outIntf: intf})
			}
		}
	}

	ospfSeed := func(dev string, p netcfg.Prefix, metric uint32) {
		rel.ospfSeeds = append(rel.ospfSeeds,
			dd.MkKV(rkey{Dev: intern(dev), Prefix: p}, ospfRt{Dist: metric}))
	}
	bgpOrigin := func(dev string, p netcfg.Prefix) {
		rel.bgpOrigins = append(rel.bgpOrigins,
			dd.MkKV(rkey{Dev: intern(dev), Prefix: p}, bgpRt{LocalPref: netcfg.DefaultLocalPref}))
	}

	for _, name := range net.DeviceNames() {
		cfg := net.Devices[name]
		if o := cfg.OSPF; o != nil {
			for _, i := range cfg.Interfaces {
				if i.Shutdown || i.Addr.IsZero() {
					continue
				}
				if o.Enabled(i.Addr) {
					ospfSeed(name, i.Addr.Prefix(), 0)
				}
			}
			for _, r := range o.Redistribute {
				switch r.From {
				case netcfg.ProtoConnected:
					for _, c := range connByDev[name] {
						ospfSeed(name, c.Prefix, r.Metric)
					}
				case netcfg.ProtoStatic:
					for _, s := range statics {
						if s.dev == name {
							ospfSeed(name, s.prefix, r.Metric)
						}
					}
				case netcfg.ProtoBGP:
					rel.ospfFromBGP = append(rel.ospfFromBGP, dd.MkKV(intern(name), r.Metric))
				}
			}
		}
		if b := cfg.BGP; b != nil {
			for _, p := range b.Networks {
				bgpOrigin(name, p)
			}
			for _, a := range b.Aggregates {
				rel.bgpAgg = append(rel.bgpAgg, dd.MkKV(intern(name), a))
			}
			for _, r := range b.Redistribute {
				switch r.From {
				case netcfg.ProtoConnected:
					for _, c := range connByDev[name] {
						bgpOrigin(name, c.Prefix)
					}
				case netcfg.ProtoStatic:
					for _, s := range statics {
						if s.dev == name {
							bgpOrigin(name, s.prefix)
						}
					}
				case netcfg.ProtoOSPF:
					rel.bgpFromOSPF = append(rel.bgpFromOSPF, dd.MkKV(intern(name), struct{}{}))
				}
			}
		}
	}

	// Direct RIB entries: connected and static routes.
	for _, c := range connected {
		rel.ribDirect = append(rel.ribDirect, dd.MkKV(
			rkey{Dev: intern(c.Device), Prefix: c.Prefix},
			ribEnt{
				Proto: netcfg.ProtoConnected, AD: netcfg.ProtoConnected.AdminDistance(),
				Action: dataplane.Deliver, OutIntf: intern(c.Intf),
			}))
	}
	for _, s := range statics {
		e := ribEnt{Proto: netcfg.ProtoStatic, AD: netcfg.ProtoStatic.AdminDistance()}
		if s.drop {
			e.Action = dataplane.Drop
		} else {
			e.Action = dataplane.Forward
			e.NextHop = intern(s.nextHop)
			e.OutIntf = intern(s.outIntf)
		}
		rel.ribDirect = append(rel.ribDirect, dd.MkKV(rkey{Dev: intern(s.dev), Prefix: s.prefix}, e))
	}
	return rel
}
