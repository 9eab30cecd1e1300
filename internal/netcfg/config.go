package netcfg

import (
	"fmt"
	"maps"
	"sort"
)

// Protocol identifies a routing information source, used by route
// redistribution and administrative distances.
type Protocol uint8

// Routing protocols in administrative-distance order.
const (
	ProtoConnected Protocol = iota
	ProtoStatic
	ProtoBGP
	ProtoOSPF
)

func (p Protocol) String() string {
	switch p {
	case ProtoConnected:
		return "connected"
	case ProtoStatic:
		return "static"
	case ProtoBGP:
		return "bgp"
	case ProtoOSPF:
		return "ospf"
	}
	return fmt.Sprintf("protocol(%d)", uint8(p))
}

// AdminDistance returns the protocol's administrative distance (the
// cross-protocol preference used during RIB selection; lower wins).
func (p Protocol) AdminDistance() uint8 {
	switch p {
	case ProtoConnected:
		return 0
	case ProtoStatic:
		return 1
	case ProtoBGP:
		return 20 // eBGP
	case ProtoOSPF:
		return 110
	}
	return 255
}

// DefaultOSPFCost is the link cost of an interface without an explicit
// "ip ospf cost" line.
const DefaultOSPFCost = 1

// DefaultLocalPref is the BGP local preference assigned to routes from a
// neighbor without an explicit policy.
const DefaultLocalPref = 100

// Config is one device's configuration. The zero value is an unnamed
// device with no interfaces and no routing processes. A Config holds no
// lazily written field (no cache, no memo), so a Config that no one
// writes is safe for any number of concurrent readers; the ownership
// rule on Network relies on it.
type Config struct {
	Hostname     string
	Interfaces   []*Interface
	OSPF         *OSPF
	BGP          *BGP
	StaticRoutes []StaticRoute
	ACLs         []*ACL
	PrefixLists  []*PrefixList
}

// PrefixList is a named ordered list of route-filtering entries with
// first-match semantics and an implicit trailing deny, referenced by BGP
// neighbor import/export filters.
type PrefixList struct {
	Name    string
	Entries []PrefixListEntry
}

// PrefixListEntry matches routes whose prefix is contained in Prefix
// (optionally constrained to an exact length match via Exact).
type PrefixListEntry struct {
	Seq    int
	Action ACLAction
	Prefix Prefix
	// Exact requires the route's length to equal Prefix.Len; otherwise
	// any more-specific route inside Prefix matches ("le 32" semantics).
	Exact bool
}

// Matches reports whether a route prefix matches this entry.
func (e PrefixListEntry) Matches(p Prefix) bool {
	if e.Exact {
		return p == e.Prefix
	}
	return e.Prefix.ContainsPrefix(p)
}

// Permits evaluates the list against a route prefix: the first matching
// entry decides; no match means deny. A nil list permits everything.
func (pl *PrefixList) Permits(p Prefix) bool {
	if pl == nil {
		return true
	}
	for _, e := range pl.Entries {
		if e.Matches(p) {
			return e.Action == Permit
		}
	}
	return false
}

// PrefixList returns the named prefix list, or nil.
func (c *Config) PrefixList(name string) *PrefixList {
	for _, pl := range c.PrefixLists {
		if pl.Name == name {
			return pl
		}
	}
	return nil
}

// Interface is a routed port or loopback.
type Interface struct {
	Name     string
	Addr     InterfaceAddr // zero = no address
	Shutdown bool
	OSPFCost uint32 // 0 means DefaultOSPFCost
	ACLIn    string // ACL name applied to traffic entering the device
	ACLOut   string // ACL name applied to traffic leaving the device
}

// CostOrDefault returns the interface's OSPF cost.
func (i *Interface) CostOrDefault() uint32 {
	if i.OSPFCost == 0 {
		return DefaultOSPFCost
	}
	return i.OSPFCost
}

// OSPF is a device's OSPF process.
type OSPF struct {
	ProcessID    int
	Networks     []Prefix // interfaces whose address falls in one run OSPF
	Redistribute []Redistribution
}

// Enabled reports whether the interface address participates in OSPF.
func (o *OSPF) Enabled(ia InterfaceAddr) bool {
	if o == nil || ia.IsZero() {
		return false
	}
	for _, n := range o.Networks {
		if n.Contains(ia.Addr) {
			return true
		}
	}
	return false
}

// BGP is a device's BGP process.
type BGP struct {
	ASN          uint32
	Networks     []Prefix // originated prefixes
	Aggregates   []Prefix // aggregate-address: originated when a more-specific BGP route exists
	Neighbors    []*Neighbor
	Redistribute []Redistribution
}

// Neighbor is a BGP peering, addressed by the peer's interface address.
type Neighbor struct {
	Addr      Addr
	RemoteAS  uint32
	LocalPref uint32 // import policy; 0 means DefaultLocalPref
	// FilterIn/FilterOut name prefix lists constraining which routes are
	// accepted from / advertised to the neighbor ("" = no filter).
	FilterIn  string
	FilterOut string
}

// PrefOrDefault returns the local preference applied to routes imported
// from this neighbor.
func (n *Neighbor) PrefOrDefault() uint32 {
	if n.LocalPref == 0 {
		return DefaultLocalPref
	}
	return n.LocalPref
}

// Redistribution injects routes from another protocol into this one.
type Redistribution struct {
	From   Protocol
	Metric uint32
}

// StaticRoute is a manually configured route. Drop routes (to Null0)
// discard matching packets.
type StaticRoute struct {
	Prefix  Prefix
	NextHop Addr // ignored when Drop
	Drop    bool
}

// ACLAction is permit or deny.
type ACLAction uint8

// ACL actions.
const (
	Permit ACLAction = iota
	Deny
)

func (a ACLAction) String() string {
	if a == Deny {
		return "deny"
	}
	return "permit"
}

// IPProto selects the transport protocol an ACL line matches.
type IPProto uint8

// ACL protocol selectors. ProtoIPAny matches every protocol.
const (
	ProtoIPAny IPProto = 0
	ProtoICMP  IPProto = 1
	ProtoTCP   IPProto = 6
	ProtoUDP   IPProto = 17
)

func (p IPProto) String() string {
	switch p {
	case ProtoIPAny:
		return "ip"
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// ACL is a named ordered list of filter lines.
type ACL struct {
	Name  string
	Lines []ACLLine
}

// ACLLine matches packets by protocol, source/destination prefix and
// destination port range. A zero Src/Dst prefix means "any"; DstPortLo ==
// DstPortHi == 0 means any port.
type ACLLine struct {
	Seq       int
	Action    ACLAction
	Proto     IPProto
	Src, Dst  Prefix
	DstPortLo uint16
	DstPortHi uint16
}

// Clone returns a deep copy of the configuration.
func (c *Config) Clone() *Config {
	if c == nil {
		return nil
	}
	out := &Config{Hostname: c.Hostname}
	for _, i := range c.Interfaces {
		ci := *i
		out.Interfaces = append(out.Interfaces, &ci)
	}
	if c.OSPF != nil {
		o := *c.OSPF
		o.Networks = append([]Prefix(nil), c.OSPF.Networks...)
		o.Redistribute = append([]Redistribution(nil), c.OSPF.Redistribute...)
		out.OSPF = &o
	}
	if c.BGP != nil {
		b := *c.BGP
		b.Networks = append([]Prefix(nil), c.BGP.Networks...)
		b.Aggregates = append([]Prefix(nil), c.BGP.Aggregates...)
		b.Redistribute = append([]Redistribution(nil), c.BGP.Redistribute...)
		b.Neighbors = nil
		for _, n := range c.BGP.Neighbors {
			cn := *n
			b.Neighbors = append(b.Neighbors, &cn)
		}
		out.BGP = &b
	}
	for _, pl := range c.PrefixLists {
		cp := &PrefixList{Name: pl.Name, Entries: append([]PrefixListEntry(nil), pl.Entries...)}
		out.PrefixLists = append(out.PrefixLists, cp)
	}
	out.StaticRoutes = append([]StaticRoute(nil), c.StaticRoutes...)
	for _, a := range c.ACLs {
		ca := &ACL{Name: a.Name, Lines: append([]ACLLine(nil), a.Lines...)}
		out.ACLs = append(out.ACLs, ca)
	}
	return out
}

// Intf returns the named interface, or nil.
func (c *Config) Intf(name string) *Interface {
	for _, i := range c.Interfaces {
		if i.Name == name {
			return i
		}
	}
	return nil
}

// ACL returns the named ACL, or nil.
func (c *Config) ACL(name string) *ACL {
	for _, a := range c.ACLs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Neighbor returns the BGP neighbor with the given address, or nil.
func (c *Config) Neighbor(addr Addr) *Neighbor {
	if c.BGP == nil {
		return nil
	}
	for _, n := range c.BGP.Neighbors {
		if n.Addr == addr {
			return n
		}
	}
	return nil
}

// Network is a complete network: device configurations plus the physical
// topology connecting them.
//
// Networks share structure by pointer, under one ownership rule: a
// network that a verifier holds, or that was derived from one, is
// immutable, and whoever holds it may hand it to any reader, on any
// goroutine, as it is. A caller that wants to edit derives a new
// network with With, which copies only what the changes touch, or
// deep-copies it with Clone and owns the copy.
type Network struct {
	Devices  map[string]*Config
	Topology *Topology
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{Devices: make(map[string]*Config), Topology: &Topology{}}
}

// Clone deep-copies the network, so a change plan can be applied
// speculatively. The copy shares nothing with n.
func (n *Network) Clone() *Network {
	out := NewNetwork()
	for name, c := range n.Devices {
		out.Devices[name] = c.Clone()
	}
	out.Topology = n.Topology.Clone()
	return out
}

// With derives the network that changes make of n, copy-on-write: the
// result holds every *Config of n that no change touches
// (Change.Touches) and n's *Topology unless a change edits links, and a
// clone of each touched device, taken before the first change that
// touches it. n itself is never written. When a change fails to apply,
// it returns a *ChangeError naming the first that failed.
func (n *Network) With(changes ...Change) (*Network, error) {
	next := &Network{Devices: maps.Clone(n.Devices), Topology: n.Topology}
	for i, ch := range changes {
		devs, links := ch.Touches()
		for _, d := range devs {
			if cfg := next.Devices[d]; cfg != nil && cfg == n.Devices[d] {
				next.Devices[d] = cfg.Clone()
			}
		}
		if links && next.Topology == n.Topology {
			next.Topology = n.Topology.Clone()
		}
		if err := ch.Apply(next); err != nil {
			return nil, &ChangeError{Index: i, Err: err}
		}
	}
	return next, nil
}

// ChangeError is With's error: change Index of its arguments failed to
// apply with Err, whose message it keeps.
type ChangeError struct {
	Index int
	Err   error
}

func (e *ChangeError) Error() string { return e.Err.Error() }

func (e *ChangeError) Unwrap() error { return e.Err }

// DeviceNames returns the device names in sorted order.
func (n *Network) DeviceNames() []string {
	names := make([]string, 0, len(n.Devices))
	for name := range n.Devices {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FindIntfByAddr locates the device and interface owning an address.
func (n *Network) FindIntfByAddr(a Addr) (string, *Interface) {
	for _, name := range n.DeviceNames() {
		for _, i := range n.Devices[name].Interfaces {
			if !i.Addr.IsZero() && i.Addr.Addr == a {
				return name, i
			}
		}
	}
	return "", nil
}
