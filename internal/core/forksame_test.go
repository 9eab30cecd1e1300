package core

import (
	"testing"

	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/topology"
)

// forkSameFixture builds a 4-node OSPF line with one parsed policy and
// one programmatically registered policy (which no specification text
// carries).
func forkSameFixture(t *testing.T) *Verifier {
	t.Helper()
	net, err := topology.Line(4, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{DetectOscillation: true})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	ps, err := ParsePolicies("reach r0-to-r3 r00 r03 " + net.HostPrefix["r03"].String() + " all\nloopfree no-loops 10.0.0.0/8\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		v.AddPolicy(p)
	}
	// A policy no specification line produced: an isolation check over a
	// hand-built header space.
	hdr := dataplane.Match{Dst: net.HostPrefix["r00"], Proto: netcfg.ProtoTCP}
	v.AddPolicy(policy.Reachability{PolicyName: "prog-tcp-none", Src: "r03", Dst: "r00", Hdr: hdr, Mode: policy.ReachNone})
	return v
}

// TestForkSameCarriesCompiledPolicies checks the fork starts with the
// same verdict set — including the programmatic policy — without any
// policy text.
func TestForkSameCarriesCompiledPolicies(t *testing.T) {
	v := forkSameFixture(t)
	fork, err := v.ForkSameAt(v.Network(), v.Options())
	if err != nil {
		t.Fatal(err)
	}
	want := v.Verdicts()
	got := fork.Verdicts()
	if len(got) != len(want) {
		t.Fatalf("fork has %d verdicts, want %d: %v vs %v", len(got), len(want), got, want)
	}
	for name, sat := range want {
		if got[name] != sat {
			t.Fatalf("fork verdict %q = %v, want %v", name, got[name], sat)
		}
	}
	if _, ok := got["prog-tcp-none"]; !ok {
		t.Fatal("programmatically registered policy did not survive ForkSameAt")
	}
}

// TestForkSameIndependence mutates the fork and the original in turn and
// checks neither sees the other's changes.
func TestForkSameIndependence(t *testing.T) {
	v := forkSameFixture(t)
	fork, err := v.ForkSameAt(v.Network(), v.Options())
	if err != nil {
		t.Fatal(err)
	}

	// Break reachability on the fork only: shut the r02-r03 segment down.
	down := netcfg.ShutdownInterface{Device: "r03", Intf: "eth0", Shutdown: true}
	if _, err := fork.Apply(down); err != nil {
		t.Fatal(err)
	}
	if fork.Verdicts()["r0-to-r3"] {
		t.Fatal("fork still satisfies r0-to-r3 after shutting its last hop down")
	}
	if !v.Verdicts()["r0-to-r3"] {
		t.Fatal("original verifier saw the fork's change")
	}

	// Now mutate the original; the (already broken) fork must not heal.
	if _, err := v.Apply(netcfg.SetOSPFCost{Device: "r00", Intf: "eth0", Cost: 7}); err != nil {
		t.Fatal(err)
	}
	if !v.Verdicts()["r0-to-r3"] {
		t.Fatal("cost change broke reachability on the original")
	}
	if fork.Verdicts()["r0-to-r3"] {
		t.Fatal("fork saw the original's change")
	}
}

// TestForkSameAtLoadsArbitraryState positions the fork at a different
// snapshot than the parent's current one.
func TestForkSameAtLoadsArbitraryState(t *testing.T) {
	v := forkSameFixture(t)
	net := v.Network()
	if err := (netcfg.ShutdownInterface{Device: "r03", Intf: "eth0", Shutdown: true}).Apply(net); err != nil {
		t.Fatal(err)
	}
	fork, err := v.ForkSameAt(net, v.Options())
	if err != nil {
		t.Fatal(err)
	}
	if fork.Verdicts()["r0-to-r3"] {
		t.Fatal("fork at degraded snapshot still satisfies r0-to-r3")
	}
	if !v.Verdicts()["r0-to-r3"] {
		t.Fatal("parent was affected by ForkSameAt")
	}
}

// TestForkSameNotLoaded forks a verifier that never loaded: the fork
// loads the given network and carries the policies registered before
// Load, and the parent stays unloaded.
func TestForkSameNotLoaded(t *testing.T) {
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	v.AddPolicy(policy.LoopFree{PolicyName: "no-loops", Scope: dataplane.MatchAll})
	fork, err := v.ForkSameAt(net.Network, v.Options())
	if err != nil {
		t.Fatal(err)
	}
	if got := fork.Verdicts(); len(got) != 1 || !got["no-loops"] {
		t.Fatalf("fork verdicts = %v, want no-loops satisfied", got)
	}
	if _, err := v.Apply(netcfg.SetOSPFCost{Device: "r00", Intf: "eth0", Cost: 7}); err != ErrNotLoaded {
		t.Fatalf("parent Apply after ForkSameAt = %v, want ErrNotLoaded", err)
	}
}
