package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/routing"
	"realconfig/internal/shard"
	"realconfig/internal/topology"
)

// ShardRow is one shard count's measurement of the Table 3 apply
// workload (link failure and LP change, each with its revert) on a
// policy-heavy fat-tree.
type ShardRow struct {
	Shards   int
	Policies int
	Applies  int
	// Model and Check sum the wall times of the Set.UpdateModel and
	// Set.Check fan-outs over the applies; Wall sums both.
	Model time.Duration
	Check time.Duration
	Wall  time.Duration
	// Speedup is apply throughput relative to the first row (shards=1
	// when RunShard is called with the standard sweep).
	Speedup float64
}

// shardPolicies builds the policy suite that makes the workload
// recheck-bound: perPrefix reachability policies per host /24 — each
// confined to one destination block, so it registers on exactly one
// shard — plus two topology-wide invariants that register everywhere.
// With P confined policies and A affected ECs per apply, the
// monolithic checker pays P*A relevance tests where an n-way set pays
// about P*A/n, which is the speedup this benchmark measures.
func shardPolicies(net *topology.Net, perPrefix int) []policy.Policy {
	owners := make([]string, 0, len(net.HostPrefix))
	for dev := range net.HostPrefix {
		owners = append(owners, dev)
	}
	sort.Strings(owners)
	var edges []string
	for _, dev := range owners {
		if strings.HasPrefix(dev, "edge") {
			edges = append(edges, dev)
		}
	}
	if len(edges) == 0 {
		edges = owners
	}
	ps := []policy.Policy{
		policy.LoopFree{PolicyName: "no-loops", Scope: dataplane.MatchAll},
		policy.BlackholeFree{PolicyName: "no-blackholes", Scope: dataplane.Match{Dst: netcfg.MustPrefix("10.0.0.0/16")}},
	}
	modes := []policy.ReachMode{policy.ReachAll, policy.ReachSome, policy.ReachNone}
	for i, dev := range owners {
		hdr := dataplane.Match{Dst: net.HostPrefix[dev]}
		for j := 0; j < perPrefix; j++ {
			src := edges[(i*perPrefix+j*7)%len(edges)]
			if src == dev {
				src = edges[(i*perPrefix+j*7+1)%len(edges)]
			}
			ps = append(ps, policy.Reachability{
				PolicyName: fmt.Sprintf("reach-%s-%d", dev, j),
				Src:        src,
				Dst:        dev,
				Hdr:        hdr,
				Mode:       modes[(i+j)%len(modes)],
			})
		}
	}
	return ps
}

// RunShard measures the Table 3 apply workload against shard sets of
// each given count, all fed identical rule deltas and an identical
// per-prefix policy suite (perPrefix reachability policies per host
// /24). Each repeat applies the link failure, its revert, the LP
// change and its revert, so state returns to base between repeats.
// Speedups are relative to the first count, which should be 1.
func RunShard(k int, counts []int, repeat, perPrefix int) ([]ShardRow, error) {
	net, err := topology.FatTree(k, topology.BGP)
	if err != nil {
		return nil, err
	}
	gen := routing.New(routing.Options{})
	gen.SetNetwork(net.Network)
	if _, err := gen.Step(); err != nil {
		return nil, err
	}
	baseRules := make([]dd.Entry[dataplane.Rule], 0)
	for r, d := range gen.FIB() {
		if d > 0 {
			baseRules = append(baseRules, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
		}
	}

	// The Table 3 changes, but with the revert deltas captured too so
	// the timed sequence is state-neutral.
	link := net.Topology.Links[len(net.Topology.Links)/2]
	peer := net.Devices[link.DevB].Intf(link.IntfB).Addr.Addr
	changes := []netcfg.Change{
		netcfg.ShutdownInterface{Device: link.DevA, Intf: link.IntfA, Shutdown: true},
		netcfg.ShutdownInterface{Device: link.DevA, Intf: link.IntfA, Shutdown: false},
		netcfg.SetLocalPref{Device: link.DevA, Neighbor: peer, LocalPref: 150},
		netcfg.SetLocalPref{Device: link.DevA, Neighbor: peer, LocalPref: 0},
	}
	deltas := make([][]dd.Entry[dataplane.Rule], 0, len(changes))
	for _, ch := range changes {
		if err := ch.Apply(net.Network); err != nil {
			return nil, err
		}
		gen.SetNetwork(net.Network)
		if _, err := gen.Step(); err != nil {
			return nil, err
		}
		deltas = append(deltas, append([]dd.Entry[dataplane.Rule](nil), gen.FIBChanges()...))
	}
	devices := net.DeviceNames()
	adjs := dataplane.Adjacencies(net.Network)

	var rows []ShardRow
	for _, n := range counts {
		set := shard.NewSet(n, 0)
		// Warm exactly like an engine: load the base FIB, then register
		// the policies (untimed).
		batch, err := set.UpdateModel(baseRules, nil, apkeep.InsertFirst)
		if err != nil {
			return nil, err
		}
		set.Check(batch, devices, adjs)
		suite := shardPolicies(net, perPrefix)
		for _, p := range suite {
			set.AddPolicy(p)
		}
		row := ShardRow{Shards: n, Policies: len(suite)}
		for r := 0; r < repeat; r++ {
			for _, delta := range deltas {
				t0 := time.Now()
				batch, err := set.UpdateModel(delta, nil, apkeep.InsertFirst)
				if err != nil {
					return nil, err
				}
				t1 := time.Now()
				set.Check(batch, devices, adjs)
				t2 := time.Now()
				row.Wall += t2.Sub(t0)
				row.Model += t1.Sub(t0)
				row.Check += t2.Sub(t1)
				row.Applies++
			}
		}
		rows = append(rows, row)
	}
	for i := range rows {
		if rows[i].Wall > 0 {
			rows[i].Speedup = float64(rows[0].Wall) / float64(rows[i].Wall)
		}
	}
	return rows, nil
}

// FormatShard renders the shard sweep in the Table 3 style.
func FormatShard(rows []ShardRow) string {
	s := fmt.Sprintf("%-7s %-9s %-8s %12s %12s %12s %9s\n",
		"Shards", "Policies", "Applies", "Model", "Check", "Apply", "Speedup")
	for _, r := range rows {
		s += fmt.Sprintf("%-7d %-9d %-8d %12s %12s %12s %8.2fx\n",
			r.Shards, r.Policies, r.Applies,
			r.Model.Round(time.Microsecond*100),
			r.Check.Round(time.Microsecond*100),
			r.Wall.Round(time.Microsecond*100),
			r.Speedup)
	}
	return s
}
