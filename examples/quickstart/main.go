// Quickstart: verify a small BGP fat-tree, register policies, apply the
// paper's change types incrementally, and watch policy verdicts flip.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"realconfig"
)

func main() {
	// A k=4 fat-tree running BGP: 20 switches, 32 links, one AS per
	// switch — the shape of the paper's evaluation network, scaled down.
	net, err := realconfig.FatTree(4, realconfig.BGP)
	if err != nil {
		log.Fatal(err)
	}

	v := realconfig.New(realconfig.Options{})
	rep, err := v.Load(net.Network)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial verification: %d rules, %d ECs, %s total\n",
		rep.RulesInserted, v.Model().NumECs(), rep.Timing.Total.Round(100_000))

	// Policies: traffic from edge00-00 must reach edge01-00's hosts, and
	// host traffic must never loop.
	src, dst := "edge00-00", "edge01-00"
	hostPfx := net.HostPrefix[dst]
	v.AddPolicy(realconfig.Reachability{
		PolicyName: "edge-to-edge", Src: src, Dst: dst,
		Hdr: realconfig.Match{Dst: hostPfx}, Mode: realconfig.ReachAll,
	})
	v.AddPolicy(realconfig.LoopFree{PolicyName: "no-loops", Scope: realconfig.Match{Dst: mustPrefix("10.0.0.0/8")}})
	fmt.Println("policies registered:", v.Verdicts())

	// The paper's LP change: prefer routes from one neighbor. Traffic
	// shifts, but reachability holds - verified in milliseconds.
	link := net.Topology.Links[0]
	peerAddr := net.Devices[link.DevB].Intf(link.IntfB).Addr.Addr
	rep, err = v.Apply(realconfig.SetLocalPref{Device: link.DevA, Neighbor: peerAddr, LocalPref: 150})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LP change: %d lines changed, rules +%d/-%d, %d ECs moved, verified in %s\n",
		rep.Diff().LineCount(), rep.RulesInserted, rep.RulesDeleted,
		rep.Model.AffectedECs(), rep.Timing.Total.Round(100_000))

	// Now break the destination: shut down every uplink of edge01-00
	// (the paper's LinkFailure change, times two).
	var changes []realconfig.Change
	for intf, peer := range net.Topology.Neighbors(dst) {
		_ = peer
		changes = append(changes, realconfig.ShutdownInterface{Device: dst, Intf: intf, Shutdown: true})
	}
	rep, err = v.Apply(changes...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("link failures: violations = %v\n", rep.Violations())
	fmt.Println("explanation:", v.Checker().Explain(src, dst, realconfig.Match{Dst: hostPfx}))

	// Repair and confirm the verifier reports the policy as satisfied
	// again (the paper: this is how operators test a repair plan).
	for i := range changes {
		sd := changes[i].(realconfig.ShutdownInterface)
		sd.Shutdown = false
		changes[i] = sd
	}
	rep, err = v.Apply(changes...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repair: now satisfied = %v, verified in %s\n",
		rep.Repaired(), rep.Timing.Total.Round(100_000))
}

func mustPrefix(s string) realconfig.Prefix {
	p, err := realconfig.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}
