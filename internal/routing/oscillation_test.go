package routing

import (
	"errors"
	"fmt"
	"testing"

	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/simulate"
)

// badGadget builds the classic BAD GADGET (Griffin/Wilfong): a center AS
// originating a prefix and three ring ASes, each preferring the route
// via its clockwise ring neighbor (local-pref 200) over its direct route
// to the center (default 100). The configuration has no stable solution,
// so BGP oscillates forever — exactly the non-termination the paper's
// section 6 wants detected as a recurring state.
func badGadget() *netcfg.Network {
	net := netcfg.NewNetwork()
	mk := func(name string, asn uint32) *netcfg.Config {
		c := &netcfg.Config{Hostname: name, BGP: &netcfg.BGP{ASN: asn}}
		net.Devices[name] = c
		return c
	}
	center := mk("c", 100)
	center.BGP.Networks = []netcfg.Prefix{netcfg.MustPrefix("10.99.0.0/24")}
	rings := []*netcfg.Config{mk("r1", 101), mk("r2", 102), mk("r3", 103)}

	subnet := 0
	addLink := func(a, b *netcfg.Config) (netcfg.Addr, netcfg.Addr) {
		base := netcfg.MustAddr("172.16.0.0") + netcfg.Addr(subnet*4)
		subnet++
		ia := &netcfg.Interface{Name: fmt.Sprintf("eth%d", len(a.Interfaces)), Addr: netcfg.InterfaceAddr{Addr: base + 1, Len: 30}}
		ib := &netcfg.Interface{Name: fmt.Sprintf("eth%d", len(b.Interfaces)), Addr: netcfg.InterfaceAddr{Addr: base + 2, Len: 30}}
		a.Interfaces = append(a.Interfaces, ia)
		b.Interfaces = append(b.Interfaces, ib)
		a.BGP.Neighbors = append(a.BGP.Neighbors, &netcfg.Neighbor{Addr: ib.Addr.Addr, RemoteAS: b.BGP.ASN})
		b.BGP.Neighbors = append(b.BGP.Neighbors, &netcfg.Neighbor{Addr: ia.Addr.Addr, RemoteAS: a.BGP.ASN})
		net.Topology.Add(a.Hostname, ia.Name, b.Hostname, ib.Name)
		return ia.Addr.Addr, ib.Addr.Addr
	}
	// Spokes.
	for _, r := range rings {
		addLink(center, r)
	}
	// Ring links; each ring node prefers routes from its clockwise
	// successor.
	for i, r := range rings {
		next := rings[(i+1)%3]
		rAddr, nextAddr := addLink(r, next)
		_ = rAddr
		r.Neighbor(nextAddr).LocalPref = 200
	}
	return net
}

func TestBadGadgetSimulatorDiverges(t *testing.T) {
	if _, err := simulate.Run(badGadget()); !errors.Is(err, simulate.ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

func TestBadGadgetGeneratorDetectsRecurringState(t *testing.T) {
	gen := New(Options{DetectOscillation: true})
	gen.SetNetwork(badGadget())
	_, err := gen.Step()
	if !errors.Is(err, dd.ErrRecurringState) {
		t.Fatalf("err = %v, want ErrRecurringState", err)
	}
}

func TestBadGadgetGeneratorWithoutDetectionHitsIterationBound(t *testing.T) {
	gen := New(Options{})
	gen.g.MaxIter = 200
	gen.SetNetwork(badGadget())
	_, err := gen.Step()
	if !errors.Is(err, dd.ErrNonTermination) {
		t.Fatalf("err = %v, want ErrNonTermination", err)
	}
}

// TestGoodGadgetConverges flips the preferences so each ring node
// prefers its direct route: a stable solution exists and both engines
// find the same one.
func TestGoodGadgetConverges(t *testing.T) {
	net := badGadget()
	for _, name := range []string{"r1", "r2", "r3"} {
		for _, nb := range net.Devices[name].BGP.Neighbors {
			nb.LocalPref = 0 // default everywhere
		}
	}
	gen := New(Options{DetectOscillation: true})
	loadAndStep(t, gen, net)
	checkAgainstSimulator(t, gen, net)
}
