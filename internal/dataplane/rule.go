// Package dataplane defines the shared vocabulary between the control
// plane engines and the data plane layers: FIB rules, packet filter
// rules, RIB entries with their preference orders, and the derivation of
// L3 adjacencies and BGP sessions from configurations.
//
// Both the incremental generator (internal/routing, on the dd engine) and
// the from-scratch simulator (internal/simulate) produce these types
// using the comparators defined here, which is what makes differential
// testing between the two engines meaningful.
package dataplane

import (
	"fmt"

	"realconfig/internal/netcfg"
)

// Action is what a FIB rule does with a matching packet.
type Action uint8

// FIB actions.
const (
	// Forward sends the packet to the next-hop device.
	Forward Action = iota
	// Deliver terminates the packet at this device (destination subnet
	// is directly attached).
	Deliver
	// Drop discards the packet (e.g. a static route to Null0).
	Drop
)

func (a Action) String() string {
	switch a {
	case Forward:
		return "forward"
	case Deliver:
		return "deliver"
	case Drop:
		return "drop"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Rule is one forwarding (FIB) entry: on Device, packets whose
// destination falls in Prefix (and no longer matching prefix exists) are
// handled per Action. Rules are value types; the full data plane is a set
// of Rules.
type Rule struct {
	Device  string
	Prefix  netcfg.Prefix
	Action  Action
	NextHop string // next-hop device, when Action == Forward
	OutIntf string // egress interface, when Action == Forward or Deliver
}

func (r Rule) String() string {
	switch r.Action {
	case Forward:
		return fmt.Sprintf("%s: %s -> %s via %s", r.Device, r.Prefix, r.NextHop, r.OutIntf)
	case Deliver:
		return fmt.Sprintf("%s: %s -> deliver", r.Device, r.Prefix)
	default:
		return fmt.Sprintf("%s: %s -> drop", r.Device, r.Prefix)
	}
}

// Direction distinguishes inbound and outbound packet filters.
type Direction uint8

// Filter directions.
const (
	In Direction = iota
	Out
)

func (d Direction) String() string {
	if d == Out {
		return "out"
	}
	return "in"
}

// Match is the packet predicate of a filter rule: protocol, source and
// destination prefixes (zero prefix = any) and a destination port range
// (0,0 = any).
type Match struct {
	Proto     netcfg.IPProto
	Src, Dst  netcfg.Prefix
	DstPortLo uint16
	DstPortHi uint16
}

// MatchAll is the predicate matching every packet.
var MatchAll = Match{}

// FilterRule is one packet-filtering entry: a line of an ACL bound to a
// device interface in a direction. Lower Seq is matched first; the
// implicit final action of every binding is deny.
type FilterRule struct {
	Device string
	Intf   string
	Dir    Direction
	Seq    int
	Action netcfg.ACLAction
	Match  Match
}

func (f FilterRule) String() string {
	return fmt.Sprintf("%s/%s %s #%d %s", f.Device, f.Intf, f.Dir, f.Seq, f.Action)
}

// ExtractFilters derives all filter rules of a network directly from its
// configurations. Packet filters need no protocol simulation, so (as the
// paper observes) their changes are extracted straight from configuration
// changes.
func ExtractFilters(net *netcfg.Network) []FilterRule {
	var out []FilterRule
	for _, name := range net.DeviceNames() {
		out = append(out, ExtractDeviceFilters(name, net.Devices[name])...)
	}
	return out
}

// ExtractDeviceFilters derives one device's filter rules, in interface
// order, inbound before outbound, then ACL line order. They depend on
// nothing but the device's own configuration.
func ExtractDeviceFilters(name string, cfg *netcfg.Config) []FilterRule {
	var out []FilterRule
	for _, intf := range cfg.Interfaces {
		for dir, aclName := range [...]string{In: intf.ACLIn, Out: intf.ACLOut} {
			if aclName == "" {
				continue
			}
			acl := cfg.ACL(aclName)
			if acl == nil {
				continue // dangling reference: implicit deny-all stands
			}
			for _, l := range acl.Lines {
				out = append(out, FilterRule{
					Device: name,
					Intf:   intf.Name,
					Dir:    Direction(dir),
					Seq:    l.Seq,
					Action: l.Action,
					Match: Match{
						Proto:     l.Proto,
						Src:       l.Src,
						Dst:       l.Dst,
						DstPortLo: l.DstPortLo,
						DstPortHi: l.DstPortHi,
					},
				})
			}
		}
	}
	return out
}
