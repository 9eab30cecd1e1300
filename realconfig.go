// Package realconfig is an incremental network configuration verifier:
// a from-scratch Go reproduction of "Incremental Network Configuration
// Verification" (HotNets '20).
//
// RealConfig statically verifies that a network's device configurations
// (OSPF, BGP, static routes, ACLs, route redistribution) satisfy
// forwarding policies — and, unlike snapshot verifiers, it is optimized
// for configuration *changes*: after the initial verification, each
// change is re-verified in time proportional to its blast radius, not to
// the network size.
//
// The pipeline (paper Figure 1) chains three incremental components:
//
//  1. an incremental data plane generator: control plane semantics as
//     differential-dataflow programs, turning configuration changes into
//     FIB rule changes;
//  2. an incremental data plane model updater: an APKeep-style
//     equivalence-class model over BDD predicates, applied in batch;
//  3. an incremental policy checker: per-EC forwarding walks and a
//     count of deliverable ECs per (src, dst) pair, rechecking only
//     policies registered on affected packets.
//
// # Quick start
//
//	net, _ := realconfig.FatTree(4, realconfig.BGP)
//	v := realconfig.New(realconfig.Options{})
//	report, err := v.Load(net.Network)      // full verification
//	v.AddPolicy(realconfig.Reachability{
//	    PolicyName: "edge00-00 reaches edge01-00",
//	    Src: "edge00-00", Dst: "edge01-00",
//	    Hdr:  realconfig.Match{Dst: net.HostPrefix["edge01-00"]},
//	    Mode: realconfig.ReachAll,
//	})
//	report, err = v.Apply(realconfig.ShutdownInterface{ // incremental
//	    Device: "agg00-00", Intf: "eth0", Shutdown: true,
//	})
//	fmt.Println(report.Violations(), report.Timing.Total)
//
// The subpackages under internal/ carry the implementation: dd (the
// differential dataflow engine), netcfg (configuration model and text
// format), routing (control plane programs), simulate (from-scratch
// baseline/oracle), bdd and apkeep (data plane model), policy (checker)
// and topology (synthetic networks). The paper's experiments are Go
// benchmarks in this package's bench_test.go.
package realconfig

import (
	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/core"
	"realconfig/internal/dataplane"
	"realconfig/internal/mining"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/topology"
)

// Verifier is the incremental configuration verifier.
type Verifier = core.Verifier

// Options configures a Verifier.
type Options = core.Options

// Report is the outcome of one verification step.
type Report = core.Report

// New creates an empty verifier; Load a network next. Every verifier
// watches its BGP and OSPF fixpoints for a recurring state, so a
// control plane with no stable solution (a BGP dispute wheel) fails its
// verification with dd.ErrRecurringState instead of iterating forever;
// see examples/oscillation.
func New(opts Options) *Verifier { return core.New(opts) }

// Batch orders for the data plane model updater (paper Table 3).
const (
	InsertFirst = apkeep.InsertFirst
	DeleteFirst = apkeep.DeleteFirst
)

// Configuration model.
type (
	// Network is a set of device configurations plus the physical topology.
	Network = netcfg.Network
	// Config is one device's configuration.
	Config = netcfg.Config
	// Prefix is an IPv4 CIDR prefix.
	Prefix = netcfg.Prefix
	// Addr is an IPv4 address.
	Addr = netcfg.Addr
	// Link is a physical link between two device interfaces.
	Link = netcfg.Link
)

// NewNetwork returns an empty network.
func NewNetwork() *Network { return netcfg.NewNetwork() }

// ParseConfig parses a device configuration in the vendor-style text
// format (see netcfg.Parse).
func ParseConfig(text string) (*Config, error) { return netcfg.Parse(text) }

// ParseTopology parses "link devA intfA devB intfB" lines.
func ParseTopology(text string) (*netcfg.Topology, error) { return netcfg.ParseTopology(text) }

// ParsePrefix parses "a.b.c.d/len".
func ParsePrefix(s string) (Prefix, error) { return netcfg.ParsePrefix(s) }

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) { return netcfg.ParseAddr(s) }

// Typed configuration changes (see netcfg for the full set).
type (
	// Change is a typed configuration change applicable to a Network.
	Change = netcfg.Change
	// ShutdownInterface is the paper's LinkFailure change.
	ShutdownInterface = netcfg.ShutdownInterface
	// SetOSPFCost is the paper's LC change.
	SetOSPFCost = netcfg.SetOSPFCost
	// SetLocalPref is the paper's LP change.
	SetLocalPref = netcfg.SetLocalPref
	// AddStaticRoute installs a static route.
	AddStaticRoute = netcfg.AddStaticRoute
	// RemoveStaticRoute removes a static route.
	RemoveStaticRoute = netcfg.RemoveStaticRoute
	// SetACL replaces or removes a named ACL.
	SetACL = netcfg.SetACL
	// BindACL attaches an ACL to an interface direction.
	BindACL = netcfg.BindACL
	// AddLink adds a physical link.
	AddLink = netcfg.AddLink
	// RemoveLink removes a physical link.
	RemoveLink = netcfg.RemoveLink
	// SetPrefixList replaces or removes a named route filter.
	SetPrefixList = netcfg.SetPrefixList
	// BindNeighborFilter attaches a prefix list to a BGP session.
	BindNeighborFilter = netcfg.BindNeighborFilter
	// SetAggregate adds or removes a BGP aggregate-address.
	SetAggregate = netcfg.SetAggregate
	// PrefixListEntry is one route-filter line.
	PrefixListEntry = netcfg.PrefixListEntry
)

// Packet is a concrete packet for traces and witnesses.
type Packet = bdd.Packet

// Match is a packet-header space; the zero value matches every packet.
// Policy headers and scopes are Match values.
type Match = dataplane.Match

// MatchAll is the full header space.
var MatchAll = dataplane.MatchAll

// Trace is a per-hop packet trace through the verified data plane (the
// paper's section-4 debugging functionality); produce one with
// Verifier.Trace.
type Trace = core.Trace

// Specification mining (paper section 2): which candidate policies hold
// under every condition of a failure model.
type (
	// FailureModel enumerates conditions for Mine.
	FailureModel = mining.FailureModel
	// MiningResult reports mined specifications.
	MiningResult = mining.Result
)

// Mine runs Config2Spec-style specification mining with the incremental
// verifier. Candidates are built by the callback against Mine's
// verifier.
func Mine(net *Network, buildCandidates func(*Verifier) []Policy, fm FailureModel, opts Options) (*MiningResult, error) {
	return mining.Mine(net, buildCandidates, fm, opts)
}

// ReachabilityCandidates enumerates directed all-pairs host-prefix
// reachability policies, the standard mining candidate set.
func ReachabilityCandidates(v *Verifier, hostPrefix map[string]Prefix, devices []string) []Policy {
	return mining.ReachabilityCandidates(v, hostPrefix, devices)
}

// Policies.
type (
	// Policy is a forwarding property checked incrementally.
	Policy = policy.Policy
	// Reachability constrains what is delivered between two devices.
	Reachability = policy.Reachability
	// Waypoint requires delivered paths to traverse a device.
	Waypoint = policy.Waypoint
	// LoopFree forbids forwarding loops for packets in scope.
	LoopFree = policy.LoopFree
	// BlackholeFree forbids silent drops for packets in scope.
	BlackholeFree = policy.BlackholeFree
)

// Reachability modes.
const (
	ReachAll  = policy.ReachAll
	ReachSome = policy.ReachSome
	ReachNone = policy.ReachNone
)

// Synthetic topologies (paper section 5 uses FatTree(12, ...)).
type (
	// Net is a generated network with node metadata.
	Net = topology.Net
	// Mode selects the routing protocol generated networks run.
	Mode = topology.Mode
)

// Generation modes.
const (
	// OSPF generates a single-area OSPF network.
	OSPF = topology.OSPF
	// BGP generates a BGP network with one AS per device.
	BGP = topology.BGP
)

// FatTree builds a k-ary fat-tree (k=12 gives the paper's 180 nodes /
// 864 links).
func FatTree(k int, mode Mode) (*Net, error) { return topology.FatTree(k, mode) }

// Grid builds a w x h grid network.
func Grid(w, h int, mode Mode) (*Net, error) { return topology.Grid(w, h, mode) }

// Ring builds an n-node ring network.
func Ring(n int, mode Mode) (*Net, error) { return topology.Ring(n, mode) }

// Line builds an n-node linear network.
func Line(n int, mode Mode) (*Net, error) { return topology.Line(n, mode) }

// Random builds a connected random network (deterministic per seed).
func Random(n int, avgDegree float64, seed int64, mode Mode) (*Net, error) {
	return topology.Random(n, avgDegree, seed, mode)
}
