package core

import (
	"strings"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/policy"
	"realconfig/internal/topology"
	"realconfig/internal/trace"
)

func TestTraceDeliveredPath(t *testing.T) {
	net, err := topology.Line(4, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	dst := net.HostPrefix["r03"]
	pkt := bdd.Packet{Dst: dst.Addr + 7, Proto: netcfg.ProtoTCP, DstPort: 443}
	tr := v.Trace("r00", pkt)
	if tr.Outcome.Kind != policy.Delivered || tr.Outcome.At != "r03" {
		t.Fatalf("outcome = %+v\n%s", tr.Outcome, tr)
	}
	wantPath := []string{"r00", "r01", "r02", "r03"}
	if len(tr.Hops) != len(wantPath) {
		t.Fatalf("hops = %v", tr.Hops)
	}
	for i, h := range tr.Hops {
		if h.Device != wantPath[i] {
			t.Errorf("hop %d = %s, want %s", i, h.Device, wantPath[i])
		}
		if h.Rule == nil {
			t.Errorf("hop %d has no rule", i)
			continue
		}
		if !h.Rule.Prefix.Contains(pkt.Dst) {
			t.Errorf("hop %d rule %v does not match packet", i, h.Rule)
		}
	}
	// Intermediate hops forward; the final hop delivers.
	if tr.Hops[1].Rule.NextHop != "r02" {
		t.Errorf("hop 1 rule = %v", tr.Hops[1].Rule)
	}
	text := tr.String()
	if !strings.Contains(text, "delivered at r03") || !strings.Contains(text, "r01") {
		t.Errorf("trace rendering:\n%s", text)
	}
}

func TestTraceDropWithoutRoute(t *testing.T) {
	net, err := topology.Line(2, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	tr := v.Trace("r00", bdd.Packet{Dst: netcfg.MustAddr("203.0.113.9")})
	if tr.Outcome.Kind != policy.Dropped || tr.Outcome.At != "r00" {
		t.Fatalf("outcome = %+v", tr.Outcome)
	}
	if len(tr.Hops) != 1 || tr.Hops[0].Rule != nil {
		t.Errorf("hops = %+v", tr.Hops)
	}
	if !strings.Contains(tr.String(), "no matching rule") {
		t.Errorf("rendering:\n%s", tr)
	}
}

func TestTraceFilteredPacket(t *testing.T) {
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	// Deny SSH on r02's ingress from r01.
	var inIntf string
	for intf, peer := range net.Topology.Neighbors("r02") {
		if peer[0] == "r01" {
			inIntf = intf
		}
	}
	lines := []netcfg.ACLLine{
		{Seq: 10, Action: netcfg.Deny, Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22},
		{Seq: 20, Action: netcfg.Permit},
	}
	if _, err := v.Apply(
		netcfg.SetACL{Device: "r02", Name: "nossh", Lines: lines},
		netcfg.BindACL{Device: "r02", Intf: inIntf, Name: "nossh", In: true},
	); err != nil {
		t.Fatal(err)
	}
	dst := net.HostPrefix["r02"]
	ssh := bdd.Packet{Dst: dst.Addr + 1, Proto: netcfg.ProtoTCP, DstPort: 22}
	tr := v.Trace("r00", ssh)
	if tr.Outcome.Kind != policy.Filtered || tr.Outcome.At != "r02" {
		t.Fatalf("outcome = %+v\n%s", tr.Outcome, tr)
	}
	// A web packet still goes through.
	web := ssh
	web.DstPort = 80
	if tr := v.Trace("r00", web); tr.Outcome.Kind != policy.Delivered {
		t.Errorf("web outcome = %+v", tr.Outcome)
	}
}

func TestTraceLPMPicksMostSpecificRule(t *testing.T) {
	net, err := topology.Line(2, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	// Static default route next to the OSPF /24s: a packet for r01's
	// prefix must match the /24, not the /0.
	var nh netcfg.Addr
	for _, peer := range net.Topology.Neighbors("r00") {
		if peer[0] == "r01" {
			nh = net.Devices["r01"].Intf(peer[1]).Addr.Addr
		}
	}
	net.Devices["r00"].StaticRoutes = []netcfg.StaticRoute{
		{Prefix: netcfg.MustPrefix("0.0.0.0/0"), NextHop: nh},
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	pkt := bdd.Packet{Dst: net.HostPrefix["r01"].Addr + 1}
	tr := v.Trace("r00", pkt)
	if tr.Hops[0].Rule == nil || tr.Hops[0].Rule.Prefix.Len != 24 {
		t.Errorf("matched rule = %+v, want /24", tr.Hops[0].Rule)
	}
	other := v.Trace("r00", bdd.Packet{Dst: netcfg.MustAddr("8.8.8.8")})
	if other.Hops[0].Rule == nil || other.Hops[0].Rule.Prefix.Len != 0 {
		t.Errorf("matched rule = %+v, want /0", other.Hops[0].Rule)
	}
}

// TestTraceInsideSplitEC traces packets on both sides of a split: a
// drop static for a /28 inside r03's host /24 cuts that /24's EC in
// two, and the trace, which finds the packet's EC through the model's
// destination index, must follow the half the packet is in.
func TestTraceInsideSplitEC(t *testing.T) {
	net, err := topology.Line(4, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	dst := net.HostPrefix["r03"]
	cut := netcfg.Prefix{Addr: dst.Addr + 16, Len: 28}
	before := v.NumECs()
	if _, err := v.Apply(netcfg.AddStaticRoute{Device: "r01", Route: netcfg.StaticRoute{Prefix: cut, Drop: true}}); err != nil {
		t.Fatal(err)
	}
	if v.NumECs() <= before {
		t.Fatalf("the /28 split no EC (%d ECs before, %d after)", before, v.NumECs())
	}
	inside := v.Trace("r00", bdd.Packet{Dst: cut.Addr + 3, Proto: netcfg.ProtoUDP, DstPort: 53})
	if inside.Outcome.Kind != policy.Dropped || inside.Outcome.At != "r01" {
		t.Fatalf("packet inside the /28: outcome = %+v\n%s", inside.Outcome, inside)
	}
	if len(inside.Hops) != 2 || inside.Hops[1].Rule == nil || inside.Hops[1].Rule.Prefix != cut {
		t.Fatalf("packet inside the /28: hops = %+v, want r00 then r01 matching %s", inside.Hops, cut)
	}
	outside := v.Trace("r00", bdd.Packet{Dst: dst.Addr + 40, Proto: netcfg.ProtoUDP, DstPort: 53})
	if outside.Outcome.Kind != policy.Delivered || outside.Outcome.At != "r03" || len(outside.Hops) != 4 {
		t.Fatalf("packet outside the /28: outcome = %+v\n%s", outside.Outcome, outside)
	}
}

// TestGenerateSpanCountsUnits: the generate span's units_compiled says
// how far a change's compile reached, every device on a load and the
// changed device plus its link neighbours on an apply.
func TestGenerateSpanCountsUnits(t *testing.T) {
	net, err := topology.Line(4, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{TraceApplies: 4})
	units := func(rep *Report) string {
		t.Helper()
		for _, s := range v.Recorder().Get(rep.TraceID).Spans {
			if s.Name == obs.StageGenerate {
				n, _ := trace.Get(s.Attrs, "units_compiled")
				return n
			}
		}
		t.Fatal("no generate span")
		return ""
	}
	rep, err := v.Load(net.Network)
	if err != nil {
		t.Fatal(err)
	}
	if got := units(rep); got != "4" {
		t.Errorf("load compiled %s units, want 4", got)
	}
	drop := netcfg.StaticRoute{Prefix: netcfg.MustPrefix("198.18.0.0/24"), Drop: true}
	for dev, want := range map[string]string{"r01": "3", "r03": "2"} {
		rep, err := v.Apply(netcfg.AddStaticRoute{Device: dev, Route: drop})
		if err != nil {
			t.Fatal(err)
		}
		if got := units(rep); got != want {
			t.Errorf("static route on %s compiled %s units, want %s", dev, got, want)
		}
	}
}
