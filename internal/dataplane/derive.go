package dataplane

import "realconfig/internal/netcfg"

// Adjacency is a usable directed L3 hop: Dev can send packets to Peer out
// of LocalIntf. Adjacencies exist only when the physical link is present,
// both interfaces are up and addressed, and the endpoints share a subnet.
type Adjacency struct {
	Dev       string
	LocalIntf string
	Peer      string
	PeerIntf  string
}

// Adjacencies derives all directed adjacencies of a network, both
// directions of each usable link in link order.
func Adjacencies(net *netcfg.Network) []Adjacency {
	var out []Adjacency
	for _, l := range net.Topology.Links {
		if ab, ba, ok := linkAdjacencies(net, l); ok {
			out = append(out, ab, ba)
		}
	}
	return out
}

// AppendDeviceAdjacencies appends to dst the adjacencies from dev (those
// with Dev == dev) over links, in link order. links is normally dev's
// incident links; the result is then Adjacencies(net) filtered to dev.
func AppendDeviceAdjacencies(dst []Adjacency, net *netcfg.Network, dev string, links []netcfg.Link) []Adjacency {
	for _, l := range links {
		ab, ba, ok := linkAdjacencies(net, l)
		if !ok {
			continue
		}
		if ab.Dev == dev {
			dst = append(dst, ab)
		}
		if ba.Dev == dev {
			dst = append(dst, ba)
		}
	}
	return dst
}

// linkAdjacencies returns both directions of a link when it is usable.
func linkAdjacencies(net *netcfg.Network, l netcfg.Link) (ab, ba Adjacency, ok bool) {
	ca, cb := net.Devices[l.DevA], net.Devices[l.DevB]
	if ca == nil || cb == nil {
		return ab, ba, false
	}
	ia, ib := ca.Intf(l.IntfA), cb.Intf(l.IntfB)
	if !intfUsable(ia) || !intfUsable(ib) {
		return ab, ba, false
	}
	if ia.Addr.Prefix() != ib.Addr.Prefix() {
		return ab, ba, false // misconfigured link: no shared subnet
	}
	return Adjacency{Dev: l.DevA, LocalIntf: l.IntfA, Peer: l.DevB, PeerIntf: l.IntfB},
		Adjacency{Dev: l.DevB, LocalIntf: l.IntfB, Peer: l.DevA, PeerIntf: l.IntfA}, true
}

func intfUsable(i *netcfg.Interface) bool {
	return i != nil && !i.Shutdown && !i.Addr.IsZero()
}

// OSPFAdjacency is a directed OSPF hop with the cost of the sending
// interface.
type OSPFAdjacency struct {
	Adjacency
	Cost uint32
}

// OSPFAdjacencies filters Adjacencies down to pairs where both ends run
// OSPF on the connecting interfaces.
func OSPFAdjacencies(net *netcfg.Network) []OSPFAdjacency {
	var out []OSPFAdjacency
	for _, adj := range Adjacencies(net) {
		if o, ok := OSPFAdjacencyOf(net, adj); ok {
			out = append(out, o)
		}
	}
	return out
}

// OSPFAdjacencyOf returns adj as an OSPF hop when both ends run OSPF on
// the connecting interfaces.
func OSPFAdjacencyOf(net *netcfg.Network, adj Adjacency) (OSPFAdjacency, bool) {
	cfg, peer := net.Devices[adj.Dev], net.Devices[adj.Peer]
	li, pi := cfg.Intf(adj.LocalIntf), peer.Intf(adj.PeerIntf)
	if cfg.OSPF.Enabled(li.Addr) && peer.OSPF.Enabled(pi.Addr) {
		return OSPFAdjacency{Adjacency: adj, Cost: li.CostOrDefault()}, true
	}
	return OSPFAdjacency{}, false
}

// BGPSession is an established directed eBGP session: Dev imports routes
// advertised by Peer, applying LocalPref on import. Sessions require a
// working adjacency, matching neighbor statements on both sides, and
// correct remote-as values. FilterIn is Dev's import prefix list for the
// session; FilterOut is Peer's export prefix list toward Dev (either may
// be nil = permit all; a named but undefined list denies all routes, the
// safe interpretation of a dangling reference).
type BGPSession struct {
	Dev       string
	LocalIntf string
	Peer      string
	PeerAS    uint32
	LocalPref uint32
	FilterIn  *netcfg.PrefixList
	FilterOut *netcfg.PrefixList
	// DenyIn/DenyOut are set when the corresponding filter reference is
	// dangling (named list not defined): every route is rejected.
	DenyIn  bool
	DenyOut bool
}

// PermitsIn reports whether the session accepts an imported prefix.
func (s BGPSession) PermitsIn(p netcfg.Prefix) bool {
	if s.DenyIn {
		return false
	}
	return s.FilterIn.Permits(p)
}

// PermitsOut reports whether the advertiser exports a prefix on this
// session.
func (s BGPSession) PermitsOut(p netcfg.Prefix) bool {
	if s.DenyOut {
		return false
	}
	return s.FilterOut.Permits(p)
}

// BGPSessions derives all established directed sessions of a network.
func BGPSessions(net *netcfg.Network) []BGPSession {
	var out []BGPSession
	for _, adj := range Adjacencies(net) {
		if s, ok := BGPSessionOf(net, adj); ok {
			out = append(out, s)
		}
	}
	return out
}

// BGPSessionOf returns the session over adj (Dev importing from Peer),
// if one is established.
func BGPSessionOf(net *netcfg.Network, adj Adjacency) (BGPSession, bool) {
	cfg := net.Devices[adj.Dev]
	peer := net.Devices[adj.Peer]
	if cfg.BGP == nil || peer.BGP == nil {
		return BGPSession{}, false
	}
	pi := peer.Intf(adj.PeerIntf)
	li := cfg.Intf(adj.LocalIntf)
	// Dev must configure the peer's address with the peer's AS...
	nb := cfg.Neighbor(pi.Addr.Addr)
	if nb == nil || nb.RemoteAS != peer.BGP.ASN {
		return BGPSession{}, false
	}
	// ... and the peer must configure Dev back (session is mutual).
	rnb := peer.Neighbor(li.Addr.Addr)
	if rnb == nil || rnb.RemoteAS != cfg.BGP.ASN {
		return BGPSession{}, false
	}
	s := BGPSession{
		Dev:       adj.Dev,
		LocalIntf: adj.LocalIntf,
		Peer:      adj.Peer,
		PeerAS:    peer.BGP.ASN,
		LocalPref: nb.PrefOrDefault(),
	}
	// Dev's import filter; Peer's export filter toward Dev.
	if nb.FilterIn != "" {
		if s.FilterIn = cfg.PrefixList(nb.FilterIn); s.FilterIn == nil {
			s.DenyIn = true
		}
	}
	if rnb.FilterOut != "" {
		if s.FilterOut = peer.PrefixList(rnb.FilterOut); s.FilterOut == nil {
			s.DenyOut = true
		}
	}
	return s, true
}

// ConnectedRoute is a directly attached subnet of an up interface.
type ConnectedRoute struct {
	Device string
	Intf   string
	Prefix netcfg.Prefix
}

// ConnectedRoutes derives every device's connected subnets.
func ConnectedRoutes(net *netcfg.Network) []ConnectedRoute {
	var out []ConnectedRoute
	for _, name := range net.DeviceNames() {
		out = AppendConnectedRoutes(out, name, net.Devices[name])
	}
	return out
}

// AppendConnectedRoutes appends one device's connected subnets to dst.
func AppendConnectedRoutes(dst []ConnectedRoute, name string, cfg *netcfg.Config) []ConnectedRoute {
	for _, i := range cfg.Interfaces {
		if intfUsable(i) {
			dst = append(dst, ConnectedRoute{Device: name, Intf: i.Name, Prefix: i.Addr.Prefix()})
		}
	}
	return dst
}

// ResolveStatic resolves a static route's next-hop address to the
// adjacent device reached through it, using the supplied adjacencies. It
// returns ok=false when the next hop is not reachable through any usable
// adjacency (the route then stays out of the RIB, as on real routers
// without recursive resolution).
func ResolveStatic(net *netcfg.Network, dev string, nh netcfg.Addr, adjs []Adjacency) (peer, outIntf string, ok bool) {
	cfg := net.Devices[dev]
	if cfg == nil {
		return "", "", false
	}
	for _, adj := range adjs {
		if adj.Dev != dev {
			continue
		}
		li := cfg.Intf(adj.LocalIntf)
		pi := net.Devices[adj.Peer].Intf(adj.PeerIntf)
		if li.Addr.Prefix().Contains(nh) && pi.Addr.Addr == nh {
			return adj.Peer, adj.LocalIntf, true
		}
	}
	return "", "", false
}
