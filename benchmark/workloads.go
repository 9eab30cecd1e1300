package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"realconfig/internal/netcfg"
	"realconfig/internal/topology"
)

// kind selects the driver a workload runs under.
type kind uint8

const (
	kindFlap   kind = iota // library verifier, link down/up rounds
	kindEdits              // library verifier, ACL and static-route rounds
	kindLoad               // each op is a from-scratch core.Bootstrap
	kindWrites             // served mix, the writer's POSTs are the op
	kindReads              // served mix, the reader's GETs are the op
)

func (k kind) served() bool { return k == kindWrites || k == kindReads }

// spec is one workload of record. Every workload runs the defaults:
// core.Options{}, bdd backend, unsharded.
type spec struct {
	name string
	why  string // one line, repeated in BENCHMARK.json
	kind kind
	k    int // fat-tree arity
	mode topology.Mode
	// perPrefix is the number of reachability policies per host /24 on
	// top of the sparse suite's single one.
	perPrefix int
}

var workloads = []spec{
	{
		name: "ospf-linkflap", kind: kindFlap, k: 6, mode: topology.OSPF,
		why: "FatTree(6,OSPF), sparse policies, one caller flaps seeded links: incremental dd work is largest here (generate about half of an apply, policy a third)",
	},
	{
		name: "bgp-dense-policy", kind: kindFlap, k: 6, mode: topology.BGP, perPrefix: 64,
		why: "FatTree(6,BGP), 64 reachability policies per host /24, same link flaps: the checker does most of each apply and generate little, so it is the dd bypass",
	},
	{
		name: "acl-static-edits", kind: kindEdits, k: 6, mode: topology.BGP,
		why: "FatTree(6,BGP), sparse policies, rounds of 16-line ACL bind/unbind and 32 drop statics add/remove: filter updates and EC split/merge, no routing fixpoint",
	},
	{
		name: "cold-load", kind: kindLoad, k: 8, mode: topology.OSPF,
		why: "each op is a from-scratch Bootstrap of FatTree(8,OSPF): the cost of restart, replay, snapshot restore and fork rebuild, dd full evaluation dominating",
	},
	{
		name: "served-mix", kind: kindWrites, k: 4, mode: topology.BGP, perPrefix: 16,
		why: "rcserved engine on loopback HTTP with a journal: a closed-loop writer posts link flaps while a 10 ms open-loop reader polls; the op is the write",
	},
	{
		name: "served-mix-reads", kind: kindReads, k: 4, mode: topology.BGP, perPrefix: 16,
		why: "the same served mix, but the op is the reader's GET /v1/verdicts timed from its due instant, so a write-side gain that costs reads shows",
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// build makes the workload's base network.
func (s spec) build() (*topology.Net, error) { return topology.FatTree(s.k, s.mode) }

// policyText renders the workload's policy suite in the daemon's policy
// grammar (core.ParsePolicies). The sparse suite is two network-wide
// invariants, one reachability per host /24, and one waypoint per edge
// switch through its pod's first aggregation switch; the waypoints are
// what a single link failure in a fat-tree can flip, so the flap
// workloads are not vacuous. perPrefix > 0 adds that many reachability
// policies per host /24 with modes cycling all/some/none.
func (s spec) policyText(net *topology.Net) string {
	owners := append([]string(nil), net.NodeNames...)
	sort.Strings(owners)
	var edges []string
	for _, dev := range owners {
		if strings.HasPrefix(dev, "edge") {
			edges = append(edges, dev)
		}
	}
	var b strings.Builder
	b.WriteString("loopfree no-loops any\n")
	b.WriteString("blackholefree no-blackholes 10.0.0.0/16\n")
	other := func(n int, dev string) string {
		if src := edges[n%len(edges)]; src != dev {
			return src
		}
		return edges[(n+1)%len(edges)]
	}
	for i, dev := range owners {
		fmt.Fprintf(&b, "reach reach-%s %s %s %s all\n", dev, other(i*7+1, dev), dev, net.HostPrefix[dev])
	}
	for pod := 0; pod < s.k; pod++ {
		for idx := 0; idx < s.k/2; idx++ {
			e := fmt.Sprintf("edge%02d-%02d", pod, idx)
			dst := fmt.Sprintf("edge%02d-%02d", (pod+1)%s.k, idx)
			fmt.Fprintf(&b, "waypoint via-%s %s %s agg%02d-00 %s\n", e, e, dst, pod, net.HostPrefix[dst])
		}
	}
	modes := []string{"all", "some", "none"}
	for i, dev := range owners {
		for j := 0; j < s.perPrefix; j++ {
			fmt.Fprintf(&b, "reach dense-%s-%d %s %s %s %s\n",
				dev, j, other(i*s.perPrefix+j*7, dev), dev, net.HostPrefix[dev], modes[(i+j)%len(modes)])
		}
	}
	return b.String()
}

// round is a sequence of change batches, one apply each, whose last
// batch returns the network to its base state.
type round [][]netcfg.Change

// rounds returns the workload's seeded, endless round sequence. It reads
// what it needs from net up front, so net may be handed to the program
// under test afterwards; the program sees only the generated changes.
func (s spec) rounds(net *topology.Net, seed int64) func() round {
	rng := rand.New(rand.NewSource(seed))
	if s.kind == kindEdits {
		return editRounds(net, rng)
	}
	links := append([]netcfg.Link(nil), net.Topology.Links...)
	perm := rng.Perm(len(links))
	i := 0
	return func() round {
		l := links[perm[i%len(perm)]]
		i++
		return round{
			{netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: true}},
			{netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: false}},
		}
	}
}

const (
	aclName     = "bench-acl"
	aclDenies   = 16
	staticCount = 32
)

// editRounds yields four applies per round on seeded devices: define an
// ACL of 16 tcp dst-port denies towards one other host /24 (plus the
// final permit the implicit trailing deny requires) and bind it outbound,
// unbind and remove it, add 32 /28 drop statics that fill two other
// devices' host /24s, remove them.
func editRounds(net *topology.Net, rng *rand.Rand) func() round {
	devs := append([]string(nil), net.NodeNames...)
	prefixes := make([]netcfg.Prefix, len(devs))
	uplinks := make([][]string, len(devs))
	for i, d := range devs {
		prefixes[i] = net.HostPrefix[d]
		for _, intf := range net.Devices[d].Interfaces {
			if strings.HasPrefix(intf.Name, "eth") {
				uplinks[i] = append(uplinks[i], intf.Name)
			}
		}
	}
	return func() round {
		a := rng.Intn(len(devs))
		intf := uplinks[a][rng.Intn(len(uplinks[a]))]
		dst := prefixes[(a+1+rng.Intn(len(devs)-1))%len(devs)]
		port := uint16(1024 + rng.Intn(30000))
		lines := make([]netcfg.ACLLine, 0, aclDenies+1)
		for i := 0; i < aclDenies; i++ {
			p := port + uint16(i)*16
			lines = append(lines, netcfg.ACLLine{Seq: 10 * (i + 1), Action: netcfg.Deny, Proto: netcfg.ProtoTCP, Dst: dst, DstPortLo: p, DstPortHi: p})
		}
		lines = append(lines, netcfg.ACLLine{Seq: 10 * (aclDenies + 1), Action: netcfg.Permit})

		d := rng.Intn(len(devs))
		var add, remove []netcfg.Change
		for i := 0; i < staticCount; i++ {
			// Sixteen /28s fill one host /24, so the statics cover the
			// prefixes of the next staticCount/16 devices after d.
			host := prefixes[(d+1+i/16)%len(devs)]
			r := netcfg.StaticRoute{Prefix: netcfg.Prefix{Addr: host.Addr + netcfg.Addr(i%16)<<4, Len: 28}, Drop: true}
			add = append(add, netcfg.AddStaticRoute{Device: devs[d], Route: r})
			remove = append(remove, netcfg.RemoveStaticRoute{Device: devs[d], Route: r})
		}
		return round{
			{
				netcfg.SetACL{Device: devs[a], Name: aclName, Lines: lines},
				netcfg.BindACL{Device: devs[a], Intf: intf, Name: aclName},
			},
			{
				netcfg.BindACL{Device: devs[a], Intf: intf},
				netcfg.SetACL{Device: devs[a], Name: aclName},
			},
			add,
			remove,
		}
	}
}
