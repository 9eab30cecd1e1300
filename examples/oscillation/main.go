// Oscillation detection (paper section 6): some BGP configurations have
// no stable solution — evaluation would loop forever. The paper lists
// "detecting the recurring state" as future work; this reproduction
// implements it. The demo builds the classic BAD GADGET (Griffin &
// Wilfong): a center AS originating a prefix and three ring ASes, each
// preferring the route via its clockwise neighbor over its direct route.
// The verifier detects the recurring evaluation state and reports the
// configuration as unstable instead of hanging.
//
//	go run ./examples/oscillation
package main

import (
	"errors"
	"fmt"
	"log"

	"realconfig"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

func main() {
	net := badGadget()
	fmt.Println("BAD GADGET: center AS 100 originates 10.99.0.0/24;")
	fmt.Println("r1, r2, r3 each prefer the route via their clockwise neighbor (local-pref 200).")

	v := realconfig.New(realconfig.Options{})
	_, err := v.Load(net)
	switch {
	case errors.Is(err, dd.ErrRecurringState):
		fmt.Println("\nverifier: recurring state detected -> configuration is UNSTABLE:")
		fmt.Println("  ", err)
	case err != nil:
		log.Fatal(err)
	default:
		log.Fatal("expected the dispute wheel to be detected")
	}

	// Fix the dispute: make one ring node prefer its direct route. The
	// configuration becomes stable and verifies normally.
	fixed := badGadget()
	for _, nb := range fixed.Devices["r1"].BGP.Neighbors {
		nb.LocalPref = 0
	}
	v2 := realconfig.New(realconfig.Options{})
	rep, err := v2.Load(fixed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter lowering r1's ring preference: stable, %d rules computed in %s\n",
		rep.RulesInserted, rep.Timing.Total.Round(100_000))
	for rule, d := range v2.FIB() {
		if d > 0 && rule.Prefix == netcfg.MustPrefix("10.99.0.0/24") {
			fmt.Println("  ", rule)
		}
	}
}

// badGadget wires the four-node dispute wheel.
func badGadget() *realconfig.Network {
	net := realconfig.NewNetwork()
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
	for _, r := range rings {
		addLink(center, r)
	}
	for i, r := range rings {
		next := rings[(i+1)%3]
		_, nextAddr := addLink(r, next)
		r.Neighbor(nextAddr).LocalPref = 200 // prefer the clockwise route
	}
	return net
}
