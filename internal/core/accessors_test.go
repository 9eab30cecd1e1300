package core

import (
	"reflect"
	"testing"

	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/topology"
)

// TestAccessorsReturnCopies proves callers cannot reach verifier state
// through the map-returning accessors: scribbling all over the maps
// Verdicts() and FIB() return must leave later reads — and the verifier
// itself — untouched.
func TestAccessorsReturnCopies(t *testing.T) {
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	if !v.AddPolicy(policy.Reachability{
		PolicyName: "r00->r02", Src: "r00", Dst: "r02",
		Hdr: dataplane.Match{Dst: net.HostPrefix["r02"]}, Mode: policy.ReachAll,
	}) {
		t.Fatal("reachability should hold initially")
	}

	verdicts := v.Verdicts()
	verdicts["r00->r02"] = false
	verdicts["forged-policy"] = true
	delete(verdicts, "r00->r02")
	if got := v.Verdicts(); !got["r00->r02"] || len(got) != 1 {
		t.Errorf("mutating Verdicts() leaked into the verifier: %v", got)
	}

	before := v.FIB()
	fib := v.FIB()
	for r := range fib {
		fib[r] = -42
	}
	fib[dataplane.Rule{Device: "intruder"}] = 1
	if got := v.FIB(); !reflect.DeepEqual(got, before) {
		t.Errorf("mutating FIB() leaked into the verifier:\n before %v\n after  %v", before, got)
	}

	// The verifier still works off its own state: an incremental apply
	// after the scribbling behaves exactly as on a pristine verifier.
	link := net.Topology.Links[len(net.Topology.Links)-1]
	rep, err := v.Apply(netcfg.ShutdownInterface{Device: link.DevA, Intf: link.IntfA, Shutdown: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations()) != 1 {
		t.Errorf("violations after link failure = %v", rep.Violations())
	}
	crossCheck(t, v, v.Network())
}

// TestDeviceAccessors checks NumDevices and HasDevice before Load and
// against the campus fixture's six devices after it.
func TestDeviceAccessors(t *testing.T) {
	v := New(Options{})
	if n, ok := v.NumDevices(), v.HasDevice("border"); n != 0 || ok {
		t.Errorf("before Load: NumDevices() = %d, HasDevice(border) = %v; want 0, false", n, ok)
	}
	v, _ = loadCampus(t)
	if n := v.NumDevices(); n != 6 {
		t.Errorf("NumDevices() = %d, want 6", n)
	}
	if !v.HasDevice("border") {
		t.Error("HasDevice(border) = false, want true")
	}
	if v.HasDevice("ghost") {
		t.Error("HasDevice(ghost) = true, want false")
	}
}
