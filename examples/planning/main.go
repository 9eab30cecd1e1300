// Planning large-scale changes (paper section 2): execute an upgrade
// plan in small steps, verifying incrementally after each one — the
// continuous-integration style of network operations. The plan migrates
// an SSH-blocking ACL from a core router to the edge gateway (the
// Alibaba-style ACL migration the paper cites); a naive step ordering
// opens a window where the security policy is violated, which the
// verifier flags immediately so the operator can fix the plan before
// deployment.
//
//	go run ./examples/planning
package main

import (
	"fmt"
	"log"

	"realconfig"
	"realconfig/internal/netcfg"
)

func main() {
	// A 4-router OSPF chain: client edge r00, core r01, core r02,
	// server gateway r03.
	net, err := realconfig.Line(4, realconfig.OSPF)
	if err != nil {
		log.Fatal(err)
	}
	client, core, server := "r00", "r01", "r03"
	serverPfx := net.HostPrefix[server]

	// Current state: the core router blocks SSH toward the server subnet
	// on its egress toward r02.
	blockLines := []netcfg.ACLLine{
		{Seq: 10, Action: netcfg.Deny, Proto: netcfg.ProtoTCP, Dst: serverPfx, DstPortLo: 22, DstPortHi: 22},
		{Seq: 20, Action: netcfg.Permit},
	}
	coreCfg := net.Devices[core]
	coreCfg.ACLs = append(coreCfg.ACLs, &netcfg.ACL{Name: "no-ssh", Lines: blockLines})
	var coreEgress string
	for intf, peer := range net.Topology.Neighbors(core) {
		if peer[0] == "r02" {
			coreEgress = intf
		}
	}
	coreCfg.Intf(coreEgress).ACLOut = "no-ssh"

	v := realconfig.New(realconfig.Options{})
	if _, err := v.Load(net.Network); err != nil {
		log.Fatal(err)
	}

	// The intent, as policies: no SSH from the client edge to the
	// server, but web traffic must flow.
	ssh := realconfig.Match{Dst: serverPfx, Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22}
	web := realconfig.Match{Dst: serverPfx, Proto: netcfg.ProtoTCP, DstPortLo: 80, DstPortHi: 80}
	v.AddPolicy(realconfig.Reachability{PolicyName: "ssh-blocked", Src: client, Dst: server, Hdr: ssh, Mode: realconfig.ReachNone})
	v.AddPolicy(realconfig.Reachability{PolicyName: "web-allowed", Src: client, Dst: server, Hdr: web, Mode: realconfig.ReachAll})
	fmt.Println("baseline verdicts:", v.Verdicts())

	step := func(name string, changes ...realconfig.Change) *realconfig.Report {
		rep, err := v.Apply(changes...)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		status := "ok"
		if len(rep.Violations()) > 0 {
			status = fmt.Sprintf("VIOLATED %v", rep.Violations())
		}
		if len(rep.Repaired()) > 0 {
			status += fmt.Sprintf(", repaired %v", rep.Repaired())
		}
		fmt.Printf("%-36s lines=%2d filters=%d t=%8s  %s\n",
			name, rep.Diff().LineCount(), rep.FilterChanges, rep.Timing.Total.Round(100_000), status)
		return rep
	}

	// Step 1 (buggy ordering): unbind the core ACL FIRST. The verifier
	// immediately reports ssh-blocked violated: the plan, executed this
	// way, would leave an unprotected window.
	rep := step("step 1: unbind core ACL (buggy!)",
		realconfig.BindACL{Device: core, Intf: coreEgress, Name: "", In: false})
	if len(rep.Violations()) == 0 {
		log.Fatal("expected the buggy ordering to be caught")
	}
	fmt.Println("  -> caught before deployment; operator revises the plan:")

	// Revised plan: first roll BACK step 1...
	step("step 2: roll back step 1",
		realconfig.BindACL{Device: core, Intf: coreEgress, Name: "no-ssh", In: false})

	// ... install the ACL at the gateway FIRST ...
	var gwIngress string
	for intf, peer := range net.Topology.Neighbors(server) {
		if peer[0] == "r02" {
			gwIngress = intf
		}
	}
	step("step 3: install ACL at the gateway",
		realconfig.SetACL{Device: server, Name: "no-ssh", Lines: blockLines},
		realconfig.BindACL{Device: server, Intf: gwIngress, Name: "no-ssh", In: true})

	// ... and only then remove it from the core. No window: every
	// intermediate state satisfies the intent.
	step("step 4: unbind + remove core ACL",
		realconfig.BindACL{Device: core, Intf: coreEgress, Name: "", In: false},
		realconfig.SetACL{Device: core, Name: "no-ssh", Lines: nil})

	fmt.Println("final verdicts:", v.Verdicts())
	if sat := v.Verdicts(); sat["ssh-blocked"] && sat["web-allowed"] {
		fmt.Println("plan verified: the revised migration preserves the security intent at every step")
	}
}
