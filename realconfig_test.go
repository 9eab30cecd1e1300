// Tests of the public API facade: everything a downstream user touches
// must work through the realconfig package alone.
package realconfig_test

import (
	"strings"
	"testing"

	"realconfig"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	net, err := realconfig.FatTree(4, realconfig.BGP)
	if err != nil {
		t.Fatal(err)
	}
	v := realconfig.New(realconfig.Options{})
	rep, err := v.Load(net.Network)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RulesInserted == 0 {
		t.Fatal("no rules computed")
	}

	src, dst := "edge00-00", "edge01-00"
	if !v.AddPolicy(realconfig.Reachability{
		PolicyName: "e2e", Src: src, Dst: dst,
		Hdr: realconfig.Match{Dst: net.HostPrefix[dst]}, Mode: realconfig.ReachAll,
	}) {
		t.Fatal("reachability should hold")
	}

	// Incremental change through the facade.
	link := net.Topology.Links[0]
	rep, err = v.Apply(realconfig.SetOSPFCost{Device: link.DevA, Intf: link.IntfA, Cost: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diff().LineCount() != 1 {
		t.Errorf("diff lines = %d", rep.Diff().LineCount())
	}

	// Packet trace through the facade.
	pkt := realconfig.Packet{Dst: net.HostPrefix[dst].Addr + 1}
	tr := v.Trace(src, pkt)
	if len(tr.Hops) == 0 || !strings.Contains(tr.String(), "delivered") {
		t.Errorf("trace: %s", tr)
	}
}

func TestPublicAPIParsing(t *testing.T) {
	cfg, err := realconfig.ParseConfig("hostname x\ninterface eth0\n ip address 10.0.0.1/24\n")
	if err != nil || cfg.Hostname != "x" {
		t.Fatalf("cfg=%+v err=%v", cfg, err)
	}
	topo, err := realconfig.ParseTopology("link a e0 b e0\n")
	if err != nil || len(topo.Links) != 1 {
		t.Fatalf("topo=%+v err=%v", topo, err)
	}
	p, err := realconfig.ParsePrefix("10.0.0.0/8")
	if err != nil || p.Len != 8 {
		t.Fatalf("p=%v err=%v", p, err)
	}
	a, err := realconfig.ParseAddr("1.2.3.4")
	if err != nil || a.String() != "1.2.3.4" {
		t.Fatalf("a=%v err=%v", a, err)
	}
	if _, err := realconfig.ParseConfig("zorp"); err == nil {
		t.Error("bad config accepted")
	}
}

func TestPublicAPITopologies(t *testing.T) {
	for name, build := range map[string]func() (*realconfig.Net, error){
		"fattree": func() (*realconfig.Net, error) { return realconfig.FatTree(4, realconfig.OSPF) },
		"grid":    func() (*realconfig.Net, error) { return realconfig.Grid(2, 2, realconfig.BGP) },
		"ring":    func() (*realconfig.Net, error) { return realconfig.Ring(4, realconfig.OSPF) },
		"line":    func() (*realconfig.Net, error) { return realconfig.Line(3, realconfig.BGP) },
		"random":  func() (*realconfig.Net, error) { return realconfig.Random(10, 2.5, 3, realconfig.OSPF) },
	} {
		net, err := build()
		if err != nil || len(net.Devices) == 0 {
			t.Errorf("%s: err=%v", name, err)
		}
	}
}

func TestPublicAPIMining(t *testing.T) {
	net, err := realconfig.Ring(4, realconfig.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	res, err := realconfig.Mine(net.Network,
		func(v *realconfig.Verifier) []realconfig.Policy {
			return realconfig.ReachabilityCandidates(v, net.HostPrefix, net.NodeNames)
		},
		realconfig.FailureModel{MaxLinkFailures: 1},
		realconfig.Options{},
	)
	if err != nil {
		t.Fatal(err)
	}
	// A ring survives any single link failure.
	if len(res.Mined()) != 12 {
		t.Errorf("mined %d specs, want 12 (all pairs)", len(res.Mined()))
	}
}

func TestPublicAPIPolicyTypes(t *testing.T) {
	net, err := realconfig.Line(3, realconfig.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := realconfig.New(realconfig.Options{Order: realconfig.DeleteFirst})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	hdr := realconfig.Match{Dst: net.HostPrefix["r02"]}
	v.AddPolicy(realconfig.Waypoint{PolicyName: "wp", Src: "r00", Dst: "r02", Via: "r01", Hdr: hdr})
	v.AddPolicy(realconfig.LoopFree{PolicyName: "lf", Scope: hdr})
	v.AddPolicy(realconfig.BlackholeFree{PolicyName: "bh", Scope: hdr})
	for name, sat := range v.Verdicts() {
		if !sat {
			t.Errorf("policy %s violated on healthy line", name)
		}
	}
	v.RemovePolicy("wp")
	if len(v.Verdicts()) != 2 {
		t.Errorf("verdicts = %v", v.Verdicts())
	}
}
