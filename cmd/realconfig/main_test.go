package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
	"realconfig/internal/topology"
)

// writeSnapshot saves a network into dir for the CLI to load.
func writeSnapshot(t *testing.T, net *netcfg.Network, dir string) {
	t.Helper()
	if err := core.SaveNetworkDir(net, dir); err != nil {
		t.Fatal(err)
	}
}

func TestVerifySubcommand(t *testing.T) {
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeSnapshot(t, net.Network, dir)
	polFile := filepath.Join(dir, "pol.txt")
	pol := "reach r00-r02 r00 r02 " + net.HostPrefix["r02"].String() + " all\nloopfree lf any\n"
	if err := os.WriteFile(polFile, []byte(pol), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"verify", "-net", dir, "-policies", polFile, "-fib"}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSubcommandDetectsViolation(t *testing.T) {
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	writeSnapshot(t, net.Network, base)
	polFile := filepath.Join(base, "pol.txt")
	pol := "reach r00-r02 r00 r02 " + net.HostPrefix["r02"].String() + " all\n"
	if err := os.WriteFile(polFile, []byte(pol), 0o644); err != nil {
		t.Fatal(err)
	}
	// Step: shut down the r01->r02 link.
	step := t.TempDir()
	changed := net.Network.Clone()
	for intf, peer := range net.Topology.Neighbors("r01") {
		if peer[0] == "r02" {
			changed.Devices["r01"].Intf(intf).Shutdown = true
		}
	}
	writeSnapshot(t, changed, step)
	if err := run([]string{"check", "-net", base, "-policies", polFile, step}); err != nil {
		t.Fatal(err)
	}
	// Delete-first ordering flag is accepted too.
	if err := run([]string{"check", "-net", base, "-delete-first", step}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceSubcommand(t *testing.T) {
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeSnapshot(t, net.Network, dir)
	dst := net.HostPrefix["r02"]
	ok := []string{"trace", "-net", dir, "-from", "r00", "-to", (dst.Addr + 1).String(), "-proto", "tcp", "-port", "443"}
	if err := run(ok); err != nil {
		t.Fatal(err)
	}
	bad := [][]string{
		{"trace", "-net", dir}, // missing from/to
		{"trace", "-net", dir, "-from", "ghost", "-to", "1.2.3.4"},
		{"trace", "-net", dir, "-from", "r00", "-to", "banana"},
		{"trace", "-net", dir, "-from", "r00", "-to", "1.2.3.4", "-src", "x"},
		{"trace", "-net", dir, "-from", "r00", "-to", "1.2.3.4", "-proto", "gre"},
		{"trace", "-net", dir, "-from", "r00", "-to", "1.2.3.4", "-port", "70000"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

func TestDiffSubcommand(t *testing.T) {
	net, err := topology.Line(2, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	a, b := t.TempDir(), t.TempDir()
	writeSnapshot(t, net.Network, a)
	changed := net.Network.Clone()
	changed.Devices["r00"].Intf("eth0").OSPFCost = 9
	writeSnapshot(t, changed, b)
	if err := run([]string{"diff", a, b}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"diff", a, a}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"diff", a}); err == nil {
		t.Error("diff with one arg succeeded")
	}
	if err := run([]string{"diff", a, "/nonexistent"}); err == nil {
		t.Error("diff with bad dir succeeded")
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"verify"},
		{"check"},
		{"check", "-net", dir},  // no steps
		{"verify", "-net", dir}, // empty dir
		{"verify", "-net", "/nonexistent"},
		{"verify", "-bogus"},
		{"verify", "-net", dir, "-policies", "/nonexistent"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// Policies file with syntax errors.
	net, _ := topology.Line(2, topology.OSPF)
	good := t.TempDir()
	writeSnapshot(t, net.Network, good)
	bad := filepath.Join(good, "bad.txt")
	os.WriteFile(bad, []byte("zorp\n"), 0o644)
	if err := run([]string{"verify", "-net", good, "-policies", bad}); err == nil {
		t.Error("bad policy file accepted")
	}
}

// TestBackendFlagRemoved: the model is not selectable and the planner
// has no worker pool, so an old -backend or plan -workers flag fails
// startup instead of being ignored.
func TestBackendFlagRemoved(t *testing.T) {
	net, _ := topology.Line(2, topology.OSPF)
	dir := t.TempDir()
	writeSnapshot(t, net.Network, dir)
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"verify", "-net", dir, "-backend", "atom"}, "-backend"},
		{[]string{"check", "-net", dir, "-backend", "bdd", dir}, "-backend"},
		{[]string{"plan", "-net", dir, "-changes", "batch.json", "-backend", "atom"}, "-backend"},
		{[]string{"plan", "-net", dir, "-changes", "batch.json", "-workers", "2"}, "-workers"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+tc.flag) {
			t.Errorf("run(%v) = %v, want an unknown-flag error", tc.args, err)
		}
	}
}
