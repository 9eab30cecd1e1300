package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/topology"
)

// backendPolicies builds a policy suite over a generated topology's host
// prefixes covering every policy type and reach mode. Headers are
// destination-only so both backends can evaluate them.
func backendPolicies(net *topology.Net) []policy.Policy {
	devs := net.NodeNames
	ps := []policy.Policy{
		policy.LoopFree{PolicyName: "no-loops", Scope: dataplane.MatchAll},
		policy.BlackholeFree{PolicyName: "no-blackholes", Scope: dataplane.Match{Dst: netcfg.MustPrefix("10.0.0.0/16")}},
	}
	if len(devs) >= 4 {
		ps = append(ps, policy.Waypoint{
			PolicyName: "via-mid", Src: devs[0], Dst: devs[3], Via: devs[1],
			Hdr: dataplane.Match{Dst: net.HostPrefix[devs[3]]},
		})
	}
	modes := []policy.ReachMode{policy.ReachAll, policy.ReachSome, policy.ReachNone}
	for i, dst := range devs {
		ps = append(ps, policy.Reachability{
			PolicyName: fmt.Sprintf("reach-%s", dst),
			Src:        devs[(i+1)%len(devs)],
			Dst:        dst,
			Hdr:        dataplane.Match{Dst: net.HostPrefix[dst]},
			Mode:       modes[i%len(modes)],
		})
	}
	return ps
}

// backendChangePool enumerates the candidate change/undo pairs for a
// topology: link flaps, OSPF cost moves, static drop routes, and
// dst-only ACLs (the atom backend's filter fragment).
type changePair struct {
	do, undo netcfg.Change
}

func backendChangePool(net *topology.Net) []changePair {
	var pool []changePair
	for _, l := range net.Topology.Links {
		l := l
		pool = append(pool, changePair{
			do:   netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: true},
			undo: netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: false},
		})
	}
	if net.Mode == topology.OSPF {
		for i, l := range net.Topology.Links {
			pool = append(pool, changePair{
				do:   netcfg.SetOSPFCost{Device: l.DevA, Intf: l.IntfA, Cost: uint32(10 + i*7)},
				undo: netcfg.SetOSPFCost{Device: l.DevA, Intf: l.IntfA, Cost: 1},
			})
		}
	}
	for i, dev := range net.NodeNames {
		r := netcfg.StaticRoute{Prefix: netcfg.MustPrefix(fmt.Sprintf("10.9.%d.0/24", i)), Drop: true}
		pool = append(pool, changePair{
			do:   netcfg.AddStaticRoute{Device: dev, Route: r},
			undo: netcfg.RemoveStaticRoute{Device: dev, Route: r},
		})
	}
	for i, dev := range net.NodeNames {
		if len(net.Devices[dev].Interfaces) == 0 {
			continue
		}
		intf := net.Devices[dev].Interfaces[0].Name
		name := fmt.Sprintf("dfx-%d", i)
		lines := []netcfg.ACLLine{
			{Seq: 10, Action: netcfg.Deny, Dst: netcfg.MustPrefix(fmt.Sprintf("10.0.%d.0/24", (i+1)%len(net.NodeNames)))},
			{Seq: 20, Action: netcfg.Permit},
		}
		pool = append(pool, changePair{
			do:   aclBind{dev: dev, intf: intf, name: name, lines: lines},
			undo: aclUnbind{dev: dev, intf: intf, name: name},
		})
	}
	return pool
}

// aclBind/aclUnbind compose SetACL+BindACL into one change so the
// trajectory toggles cleanly.
type aclBind struct {
	dev, intf, name string
	lines           []netcfg.ACLLine
}

func (c aclBind) Apply(n *netcfg.Network) error {
	if err := (netcfg.SetACL{Device: c.dev, Name: c.name, Lines: c.lines}).Apply(n); err != nil {
		return err
	}
	return netcfg.BindACL{Device: c.dev, Intf: c.intf, Name: c.name, In: true}.Apply(n)
}
func (c aclBind) String() string { return fmt.Sprintf("%s: bind acl %s on %s", c.dev, c.name, c.intf) }

func (c aclBind) Touches() ([]string, bool) { return []string{c.dev}, false }

type aclUnbind struct{ dev, intf, name string }

func (c aclUnbind) Apply(n *netcfg.Network) error {
	if err := (netcfg.BindACL{Device: c.dev, Intf: c.intf, Name: "", In: true}).Apply(n); err != nil {
		return err
	}
	return netcfg.SetACL{Device: c.dev, Name: c.name, Lines: nil}.Apply(n)
}
func (c aclUnbind) String() string { return fmt.Sprintf("%s: unbind acl %s", c.dev, c.name) }

func (c aclUnbind) Touches() ([]string, bool) { return []string{c.dev}, false }

// compareBackendReports checks the two backends produced the same
// verdict deltas and final verdicts for one apply.
func compareBackendReports(t *testing.T, step int, bddRep, atomRep *Report, bddV, atomV *Verifier) {
	t.Helper()
	bv, av := bddRep.Violations(), atomRep.Violations()
	sort.Strings(bv)
	sort.Strings(av)
	if !reflect.DeepEqual(bv, av) {
		t.Fatalf("step %d: violations diverge: bdd=%v atom=%v", step, bv, av)
	}
	br, ar := bddRep.Repaired(), atomRep.Repaired()
	sort.Strings(br)
	sort.Strings(ar)
	if !reflect.DeepEqual(br, ar) {
		t.Fatalf("step %d: repairs diverge: bdd=%v atom=%v", step, br, ar)
	}
	if got, want := atomV.Verdicts(), bddV.Verdicts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: verdicts diverge: atom=%v bdd=%v", step, got, want)
	}
	if got, want := atomV.FIB(), bddV.FIB(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: FIBs diverge (%d vs %d rules)", step, len(got), len(want))
	}
}

// TestBackendDifferential drives the bdd and atom backends through
// identical random change trajectories across seeds and topologies and
// requires identical policy verdicts, violation/repair events, and FIB
// contents after every apply. EC counts may differ (atoms never merge);
// packet fates may not.
func TestBackendDifferential(t *testing.T) {
	type topo struct {
		name  string
		build func() (*topology.Net, error)
	}
	topos := []topo{
		{"line4-ospf", func() (*topology.Net, error) { return topology.Line(4, topology.OSPF) }},
		{"ring5-ospf", func() (*topology.Net, error) { return topology.Ring(5, topology.OSPF) }},
		{"fattree4-bgp", func() (*topology.Net, error) { return topology.FatTree(4, topology.BGP) }},
	}
	for _, tp := range topos {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", tp.name, seed), func(t *testing.T) {
				net, err := tp.build()
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))

				bddV := New(Options{Backend: BackendBDD, DetectOscillation: true})
				atomV := New(Options{Backend: BackendAtom, DetectOscillation: true})
				if _, err := bddV.Load(net.Network.Clone()); err != nil {
					t.Fatal(err)
				}
				if _, err := atomV.Load(net.Network.Clone()); err != nil {
					t.Fatal(err)
				}
				for _, p := range backendPolicies(net) {
					if bddV.AddPolicy(p) != atomV.AddPolicy(p) {
						t.Fatalf("AddPolicy(%s) verdicts differ at load", p.Name())
					}
				}
				if got, want := atomV.Verdicts(), bddV.Verdicts(); !reflect.DeepEqual(got, want) {
					t.Fatalf("initial verdicts diverge: atom=%v bdd=%v", got, want)
				}

				pool := backendChangePool(net)
				applied := make([]bool, len(pool))
				for step := 0; step < 40; step++ {
					i := rng.Intn(len(pool))
					ch := pool[i].do
					if applied[i] {
						ch = pool[i].undo
					}
					applied[i] = !applied[i]

					bddRep, errB := bddV.Apply(ch)
					atomRep, errA := atomV.Apply(ch)
					if (errB == nil) != (errA == nil) {
						t.Fatalf("step %d (%s): apply errors diverge: bdd=%v atom=%v", step, ch, errB, errA)
					}
					if errB != nil {
						t.Fatalf("step %d (%s): %v", step, ch, errB)
					}
					compareBackendReports(t, step, bddRep, atomRep, bddV, atomV)
					if err := atomV.Model().CheckPartition(); err != nil {
						t.Fatalf("step %d (%s): %v", step, ch, err)
					}
				}
			})
		}
	}
}
