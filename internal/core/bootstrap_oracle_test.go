package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/topology"
)

// backendPolicies builds a policy suite over a generated topology's host
// prefixes covering every policy type and reach mode.
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
// dst-only ACLs. A pair whose do half may form a BGP dispute wheel is
// marked mayReject (see joinBadGadget).
type changePair struct {
	do, undo  netcfg.Change
	mayReject bool
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

// bootstrapOracle is a from-scratch reference for an incremental
// verifier: after every apply it loads the verifier's network into a
// fresh verifier with the same policies and requires the same verdicts,
// FIB and EC count (AutoMerge keeps the partition minimal, and the
// minimal partition is unique), a sound partition, and a report whose
// violations and repairs are exactly the verdict flips between
// consecutive fresh loads. With collect set, each step first collects
// the model's BDD table and checks the root invariant.
type bootstrapOracle struct {
	opts     Options
	policies []policy.Policy
	verdicts map[string]bool // the previous fresh load's verdicts
	collect  bool
}

// newBootstrapOracle registers ps on v and checks the loaded state.
func newBootstrapOracle(t *testing.T, v *Verifier, ps []policy.Policy) *bootstrapOracle {
	t.Helper()
	for _, p := range ps {
		v.AddPolicy(p)
	}
	o := &bootstrapOracle{opts: v.Options(), policies: ps}
	o.verdicts = o.check(t, "load", v)
	return o
}

// step checks v after an apply that returned rep, or that was rejected
// (rep nil), after which no verdict may have moved.
func (o *bootstrapOracle) step(t *testing.T, where string, v *Verifier, rep *Report) {
	t.Helper()
	if o.collect {
		v.Model().Collect()
		if err := errors.Join(v.Model().CheckRoots(), v.Checker().CheckRoots()); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	prev := o.verdicts
	o.verdicts = o.check(t, where, v)
	var violated, repaired []string
	for name, was := range prev {
		if now := o.verdicts[name]; was && !now {
			violated = append(violated, name)
		} else if !was && now {
			repaired = append(repaired, name)
		}
	}
	sort.Strings(violated)
	sort.Strings(repaired)
	var gotViolated, gotRepaired []string
	if rep != nil {
		gotViolated, gotRepaired = rep.Violations(), rep.Repaired()
	}
	if !reflect.DeepEqual(gotViolated, violated) {
		t.Fatalf("%s: violations %v, verdict flips %v", where, gotViolated, violated)
	}
	if !reflect.DeepEqual(gotRepaired, repaired) {
		t.Fatalf("%s: repairs %v, verdict flips %v", where, gotRepaired, repaired)
	}
}

// check compares v with a fresh bootstrap of its network and returns
// the fresh verdicts.
func (o *bootstrapOracle) check(t *testing.T, where string, v *Verifier) map[string]bool {
	t.Helper()
	fresh := New(o.opts)
	if _, err := fresh.Load(v.Network()); err != nil {
		t.Fatalf("%s: fresh load: %v", where, err)
	}
	for _, p := range o.policies {
		fresh.AddPolicy(p)
	}
	want := fresh.Verdicts()
	if got := v.Verdicts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: verdicts diverge: incremental=%v fresh=%v", where, got, want)
	}
	if got, want := v.FIB(), fresh.FIB(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: FIBs diverge (%d vs %d rules)", where, len(got), len(want))
	}
	if got, want := v.NumECs(), fresh.NumECs(); got != want {
		t.Fatalf("%s: %d ECs, fresh load %d", where, got, want)
	}
	if err := v.Model().CheckPartition(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	return want
}

// walkPool applies the pool entry each pick selects, toggling between
// its do and undo halves, and checks every step against o. A mayReject
// pair's do half may fail with ErrRecurringState; the pair then stays
// undone, and o checks that the rejection left no trace. Any other
// error fails the walk. It returns the number of rejected applies.
func walkPool(t *testing.T, v *Verifier, o *bootstrapOracle, pool []changePair, picks []int) (rejected int) {
	t.Helper()
	applied := make([]bool, len(pool))
	for step, i := range picks {
		ch := pool[i].do
		if applied[i] {
			ch = pool[i].undo
		}
		where := fmt.Sprintf("step %d (%s)", step, ch)
		rep, err := v.Apply(ch)
		switch {
		case err != nil && pool[i].mayReject && !applied[i] && errors.Is(err, dd.ErrRecurringState):
			rejected++
		case err != nil:
			t.Fatalf("%s: %v", where, err)
		default:
			applied[i] = !applied[i]
		}
		o.step(t, where, v, rep)
	}
	return rejected
}

// TestIncrementalEqualsBootstrap drives a verifier through seeded random
// change trajectories across topologies and, after every apply,
// requires it to equal a from-scratch load of the same network: the
// same verdicts, FIB and EC count, and violation/repair events that are
// exactly the verdict flips between consecutive fresh loads.
func TestIncrementalEqualsBootstrap(t *testing.T) {
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
				v := New(Options{DetectOscillation: true})
				if _, err := v.Load(net.Network.Clone()); err != nil {
					t.Fatal(err)
				}
				o := newBootstrapOracle(t, v, backendPolicies(net))
				pool := backendChangePool(net)
				rng := rand.New(rand.NewSource(seed))
				picks := make([]int, 40)
				for i := range picks {
					picks[i] = rng.Intn(len(pool))
				}
				walkPool(t, v, o, pool, picks)
			})
		}
	}
}

// FuzzIncrementalEqualsBootstrap interprets the fuzz input as a change
// trajectory over a fixed topology — each byte selects the next
// change/undo pair from the pool — and requires the incremental
// verifier to equal a from-scratch load after every step. The topology
// carries a stable BAD GADGET beside the line, and the pool the toggle
// that forms its dispute wheel, so rejected applies join the
// trajectories.
func FuzzIncrementalEqualsBootstrap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0})                  // do then undo the same change
	f.Add([]byte{1, 3, 5, 7, 9, 11, 13}) // spread across the pool
	f.Add([]byte{2, 2, 2, 2})            // rapid flapping
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0})
	f.Add([]byte{14, 3, 14, 14, 9, 3}) // 14 is the dispute, rejected between benign changes

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 24 {
			data = data[:24] // bound trajectory length per exec
		}
		net, err := topology.Line(4, topology.OSPF)
		if err != nil {
			t.Fatal(err)
		}
		pool := append(backendChangePool(net), joinBadGadget(net))
		v := New(Options{DetectOscillation: true})
		if _, err := v.Load(net.Network.Clone()); err != nil {
			t.Fatal(err)
		}
		o := newBootstrapOracle(t, v, backendPolicies(net))
		picks := make([]int, len(data))
		for i, b := range data {
			picks[i] = int(b) % len(pool)
		}
		walkPool(t, v, o, pool, picks)
	})
}
