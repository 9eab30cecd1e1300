package mining

import (
	"strings"
	"testing"

	"realconfig/internal/core"
	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/topology"
)

func TestMineFatTreeSurvivesSingleFailures(t *testing.T) {
	// A fat-tree is single-failure tolerant between edge switches in
	// different pods (multiple disjoint paths), so edge-to-edge
	// reachability specs must survive the sweep.
	net, err := topology.FatTree(4, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := core.New(core.Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	var edges []string
	for _, name := range net.NodeNames {
		if strings.HasPrefix(name, "edge") {
			edges = append(edges, name)
		}
	}
	var nCands int
	res, err := Mine(net.Network, func(v *core.Verifier) []policy.Policy {
		c := ReachabilityCandidates(v, net.HostPrefix, edges[:3])
		nCands = len(c)
		return c
	}, FailureModel{MaxLinkFailures: 1, Limit: 10}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conditions != 11 {
		t.Errorf("conditions = %d, want 11", res.Conditions)
	}
	mined := res.Mined()
	if len(mined) != nCands {
		for _, s := range res.Specs {
			if !s.Holds {
				t.Errorf("spec %s broken by %s", s.Policy.Name(), s.BrokenBy)
			}
		}
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
}

func TestMineLineDetectsFragileSpecs(t *testing.T) {
	// On a line, EVERY edge is a cut edge: end-to-end reachability must
	// be broken by some single failure.
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := core.New(core.Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	res, err := Mine(net.Network, func(v *core.Verifier) []policy.Policy {
		return ReachabilityCandidates(v, net.HostPrefix, []string{"r00", "r02"})
	}, FailureModel{MaxLinkFailures: 1}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mined()) != 0 {
		t.Errorf("fragile specs mined as robust: %v", res.Mined())
	}
	for _, s := range res.Specs {
		if s.Holds || s.BrokenBy == "" {
			t.Errorf("spec %s: holds=%v brokenBy=%q", s.Policy.Name(), s.Holds, s.BrokenBy)
		}
	}
}

func TestMineBaseViolationsAttributed(t *testing.T) {
	// A candidate that is already false on the base network must be
	// attributed to it, not to a failure condition.
	net, err := topology.Line(2, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := core.New(core.Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	res, err := Mine(net.Network, func(v *core.Verifier) []policy.Policy {
		return []policy.Policy{policy.Reachability{
			PolicyName: "bogus", Src: "r00", Dst: "r01",
			Hdr:  dataplane.Match{Dst: netcfg.MustPrefix("203.0.113.0/24")}, // no such route
			Mode: policy.ReachAll,
		}}
	}, FailureModel{MaxLinkFailures: 1}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Specs[0].Holds || res.Specs[0].BrokenBy != "base network" {
		t.Errorf("spec = %+v", res.Specs[0])
	}
}

func TestMineDoesNotMutateInput(t *testing.T) {
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	before := net.Devices["r01"].Format()
	v := core.New(core.Options{})
	if _, err := v.Load(net.Network); err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(net.Network, func(v *core.Verifier) []policy.Policy {
		return ReachabilityCandidates(v, net.HostPrefix, []string{"r00", "r02"})
	}, FailureModel{MaxLinkFailures: 1}, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if net.Devices["r01"].Format() != before {
		t.Error("Mine mutated the input network")
	}
}

func TestReachabilityCandidatesSkipUnknownDestinations(t *testing.T) {
	// A device without a host prefix can be a source but never a
	// destination: there is no header space to ask about.
	net, err := topology.Line(3, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v := core.New(core.Options{})
	var names []string
	for _, p := range ReachabilityCandidates(v, net.HostPrefix, []string{"r02", "ghost", "r00"}) {
		names = append(names, p.Name())
	}
	want := "reach/ghost->r00 reach/ghost->r02 reach/r00->r02 reach/r02->r00"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("candidates = %s, want %s", got, want)
	}
}
