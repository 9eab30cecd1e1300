package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/topology"
)

// loopPrefix is the external prefix staticLoop's routes bounce.
var loopPrefix = netcfg.MustPrefix("203.0.113.0/24")

// staticRoutes adds (or, with remove, removes) routes as one change, so
// a trajectory toggles them together.
type staticRoutes struct {
	adds   []netcfg.AddStaticRoute
	remove bool
}

func (c staticRoutes) Apply(n *netcfg.Network) error {
	for _, a := range c.adds {
		var err error
		if c.remove {
			err = netcfg.RemoveStaticRoute{Device: a.Device, Route: a.Route}.Apply(n)
		} else {
			err = a.Apply(n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (c staticRoutes) Touches() ([]string, bool) {
	var devs []string
	for _, a := range c.adds {
		devs = append(devs, a.Device)
	}
	return devs, false
}

func (c staticRoutes) String() string {
	verb := "add"
	if c.remove {
		verb = "remove"
	}
	return fmt.Sprintf("%s static loop %v", verb, c.adds)
}

// crossLink returns a link between the two halves of the network's
// name-sorted devices, first-half end first.
func crossLink(net *netcfg.Network) (a, aIntf, b, bIntf string) {
	names := net.DeviceNames()
	second := make(map[string]bool)
	for _, n := range names[len(names)/2:] {
		second[n] = true
	}
	for _, l := range net.Topology.Links {
		switch {
		case !second[l.DevA] && second[l.DevB]:
			return l.DevA, l.IntfA, l.DevB, l.IntfB
		case second[l.DevA] && !second[l.DevB]:
			return l.DevB, l.IntfB, l.DevA, l.IntfA
		}
	}
	panic("no link joins the two halves")
}

// staticLoop is TestVerifierLoopPolicyOnStaticLoop's loop as a change
// pair: crossLink's two ends route loopPrefix at each other.
func staticLoop(net *topology.Net) changePair {
	a, aIntf, b, bIntf := crossLink(net.Network)
	adds := []netcfg.AddStaticRoute{
		{Device: a, Route: netcfg.StaticRoute{Prefix: loopPrefix, NextHop: net.Devices[b].Intf(bIntf).Addr.Addr}},
		{Device: b, Route: netcfg.StaticRoute{Prefix: loopPrefix, NextHop: net.Devices[a].Intf(aIntf).Addr.Addr}},
	}
	return changePair{do: staticRoutes{adds: adds}, undo: staticRoutes{adds: adds, remove: true}}
}

// subNetwork keeps the named devices of net and the links among them.
func subNetwork(net *netcfg.Network, keep []string) *netcfg.Network {
	out := netcfg.NewNetwork()
	for _, name := range keep {
		out.Devices[name] = net.Devices[name].Clone()
	}
	for _, l := range net.Topology.Links {
		if out.Devices[l.DevA] != nil && out.Devices[l.DevB] != nil {
			out.Topology.Links = append(out.Topology.Links, l)
		}
	}
	return out
}

// TestDeviceIDsOnlyIdentify loads one network through two histories
// that give its devices different model ids: a loads it at once, b first
// loads only the second half of its devices by name and then the whole.
// Both then take the same seeded applies, among them a static-route
// loop across the two halves, and after every step must agree on the
// verdicts, the affected pairs, every policy's explanation and the
// traces of seeded packets. Device ids only identify: every order that
// reaches an output, such as the device a walk starts from, and so
// where a loop is reported, is by name.
func TestDeviceIDsOnlyIdentify(t *testing.T) {
	for _, tp := range []struct {
		name  string
		build func() (*topology.Net, error)
	}{
		{"fattree4-ospf", func() (*topology.Net, error) { return topology.FatTree(4, topology.OSPF) }},
		{"fattree4-bgp", func() (*topology.Net, error) { return topology.FatTree(4, topology.BGP) }},
		{"campus", campusNet},
	} {
		t.Run(tp.name, func(t *testing.T) {
			net, err := tp.build()
			if err != nil {
				t.Fatal(err)
			}
			names := net.DeviceNames()
			a := New(Options{})
			if _, err := a.Load(net.Network.Clone()); err != nil {
				t.Fatal(err)
			}
			b := New(Options{})
			if _, err := b.Load(subNetwork(net.Network, names[len(names)/2:])); err != nil {
				t.Fatal(err)
			}
			if _, err := b.SetNetwork(net.Network.Clone()); err != nil {
				t.Fatal(err)
			}
			from, _, to, _ := crossLink(net.Network)
			if a.Model().DevOf(from) < a.Model().DevOf(to) == (b.Model().DevOf(from) < b.Model().DevOf(to)) {
				t.Fatalf("%s and %s have ids in the same order in both histories; the test needs them apart", from, to)
			}
			ps := append(backendPolicies(net),
				policy.Reachability{PolicyName: "loop-out", Src: from, Dst: to, Hdr: dataplane.Match{Dst: loopPrefix}},
				policy.Reachability{PolicyName: "loop-back", Src: to, Dst: from, Hdr: dataplane.Match{Dst: loopPrefix}})
			for _, p := range ps {
				a.AddPolicy(p)
				b.AddPolicy(p)
			}
			rng := rand.New(rand.NewSource(3))
			same := func(where string, ra, rb *Report) {
				t.Helper()
				if got, want := b.Verdicts(), a.Verdicts(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: verdicts %v, one-step load %v", where, got, want)
				}
				if ra != nil && !reflect.DeepEqual(rb.Check.AffectedPairs, ra.Check.AffectedPairs) {
					t.Fatalf("%s: affected pairs %v, one-step load %v", where, rb.Check.AffectedPairs, ra.Check.AffectedPairs)
				}
				for _, p := range ps {
					var src, dst string
					switch p := p.(type) {
					case policy.Reachability:
						src, dst = p.Src, p.Dst
					case policy.Waypoint:
						src, dst = p.Src, p.Dst
					default:
						continue
					}
					if got, want := b.Checker().Explain(src, dst, p.Header()), a.Checker().Explain(src, dst, p.Header()); got != want {
						t.Fatalf("%s: %s explained %q, one-step load %q", where, p.Name(), got, want)
					}
				}
				pkts := []bdd.Packet{{Dst: loopPrefix.Addr + 1}}
				for _, n := range names {
					pkts = append(pkts, bdd.Packet{Dst: net.Devices[n].Interfaces[0].Addr.Addr, Proto: netcfg.ProtoTCP, DstPort: 80})
				}
				for range 16 {
					src := names[rng.Intn(len(names))]
					pkt := pkts[rng.Intn(len(pkts))]
					if got, want := b.Trace(src, pkt).String(), a.Trace(src, pkt).String(); got != want {
						t.Fatalf("%s: trace from %s:\n%sone-step load:\n%s", where, src, got, want)
					}
				}
			}
			same("load", nil, nil)
			pool := append(backendChangePool(net), staticLoop(net))
			loop := len(pool) - 1
			applied := make([]bool, len(pool))
			looped := 0
			for step := 0; step < 32; step++ {
				i := rng.Intn(len(pool))
				if step%4 == 0 {
					i = loop
				}
				ch := pool[i].do
				if applied[i] {
					ch = pool[i].undo
				}
				where := fmt.Sprintf("step %d (%s)", step, ch)
				ra, err := a.Apply(ch)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				rb, err := b.Apply(ch)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				applied[i] = !applied[i]
				same(where, ra, rb)
				if !a.Verdicts()["no-loops"] {
					looped++
				}
			}
			if looped == 0 {
				t.Fatal("the walk never formed the static loop")
			}
		})
	}
}
