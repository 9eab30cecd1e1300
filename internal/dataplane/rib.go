package dataplane

import "realconfig/internal/netcfg"

// RouteKey identifies a route: which device, which destination prefix.
// It is the grouping key of every best-route selection.
type RouteKey struct {
	Device string
	Prefix netcfg.Prefix
}

// OSPFRoute is an OSPF routing candidate for some (device, prefix): the
// accumulated distance and the chosen next hop ("" = locally originated).
// It is the value type flowing through the OSPF fixpoint.
type OSPFRoute struct {
	Dist    uint32
	NextHop string // neighbor device; "" for the announcing device itself
	OutIntf string
}

// Better reports whether a is strictly preferred to b: lower distance,
// then lexicographically smaller next hop (with local origination, "",
// winning ties). This order MUST be used identically by every engine.
func (a OSPFRoute) Better(b OSPFRoute) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	if a.NextHop != b.NextHop {
		return a.NextHop < b.NextHop
	}
	return a.OutIntf < b.OutIntf // total order even with parallel links
}

// MaxASPathLen bounds BGP AS paths; longer paths are discarded (mirrors
// real-world maximum AS path limits and bounds the fixpoint).
const MaxASPathLen = 64

// BGPRoute is a BGP routing candidate for some (device, prefix). Path
// holds the AS path as a string of big-endian 4-byte AS numbers (most
// recently prepended first), which keeps the struct comparable for the
// dataflow engine.
type BGPRoute struct {
	LocalPref uint32
	PathLen   uint8
	Path      string
	PeerAS    uint32 // AS of the advertising neighbor; 0 for local origination
	NextHop   string // neighbor device; "" for local origination
	OutIntf   string
	// Discard marks a locally originated aggregate route: the origin
	// installs a discard (drop) rule instead of delivering, as real
	// routers do for aggregate-address null routes.
	Discard bool
}

// Better reports whether a is strictly preferred to b: higher local
// preference, then shorter AS path, then lower advertising-neighbor AS
// (the stand-in for lowest router ID), then next-hop name. This order
// MUST be used identically by every engine.
func (a BGPRoute) Better(b BGPRoute) bool {
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if a.PathLen != b.PathLen {
		return a.PathLen < b.PathLen
	}
	if a.PeerAS != b.PeerAS {
		return a.PeerAS < b.PeerAS
	}
	if a.NextHop != b.NextHop {
		return a.NextHop < b.NextHop
	}
	if a.Path != b.Path {
		return a.Path < b.Path
	}
	if a.OutIntf != b.OutIntf {
		return a.OutIntf < b.OutIntf // total order even with parallel sessions
	}
	return !a.Discard && b.Discard // non-aggregate wins the final tie
}

// PathContains reports whether the encoded AS path contains asn.
func PathContains(path string, asn uint32) bool {
	for i := 0; i+4 <= len(path); i += 4 {
		v := uint32(path[i])<<24 | uint32(path[i+1])<<16 | uint32(path[i+2])<<8 | uint32(path[i+3])
		if v == asn {
			return true
		}
	}
	return false
}

// PathPrepend returns asn prepended to the encoded AS path.
func PathPrepend(asn uint32, path string) string {
	return string([]byte{byte(asn >> 24), byte(asn >> 16), byte(asn >> 8), byte(asn)}) + path
}

// PathASNs decodes the AS path for display.
func PathASNs(path string) []uint32 {
	var out []uint32
	for i := 0; i+4 <= len(path); i += 4 {
		out = append(out, uint32(path[i])<<24|uint32(path[i+1])<<16|uint32(path[i+2])<<8|uint32(path[i+3]))
	}
	return out
}

// RIBEntry is a protocol-selected best route entering cross-protocol RIB
// selection for some (device, prefix).
type RIBEntry struct {
	Proto   netcfg.Protocol
	AD      uint8 // administrative distance (lower preferred)
	Metric  uint32
	Action  Action
	NextHop string
	OutIntf string
}

// Better reports whether a is strictly preferred to b in RIB selection:
// lower administrative distance, then lower metric, then protocol number,
// then next hop. This order MUST be used identically by every engine.
func (a RIBEntry) Better(b RIBEntry) bool {
	if a.AD != b.AD {
		return a.AD < b.AD
	}
	if a.Metric != b.Metric {
		return a.Metric < b.Metric
	}
	if a.Proto != b.Proto {
		return a.Proto < b.Proto
	}
	if a.NextHop != b.NextHop {
		return a.NextHop < b.NextHop
	}
	if a.Action != b.Action {
		return a.Action < b.Action
	}
	return a.OutIntf < b.OutIntf // total order even with parallel paths
}

// Rule converts the selected RIB entry into the FIB rule it installs.
func (e RIBEntry) Rule(device string, prefix netcfg.Prefix) Rule {
	r := Rule{Device: device, Prefix: prefix, Action: e.Action}
	if e.Action == Forward {
		r.NextHop = e.NextHop
		r.OutIntf = e.OutIntf
	} else if e.Action == Deliver {
		r.OutIntf = e.OutIntf
	}
	return r
}
