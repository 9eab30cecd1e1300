package shard

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

func campusFixture(t *testing.T) (*netcfg.Network, string) {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "campus")
	net, err := core.LoadNetworkDir(dir)
	if err != nil {
		t.Fatalf("campus fixture: %v", err)
	}
	text, err := os.ReadFile(filepath.Join(dir, "policies.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return net, string(text)
}

// TestCoordinatorEquivalence drives a change sequence through the
// monolithic verifier and through verifiers on shard sets (core.NewOn)
// at several shard counts:
// the joined verdicts, violations and repairs after every step must be
// identical, and the generator-derived report fields must match the
// monolith exactly.
func TestCoordinatorEquivalence(t *testing.T) {
	net, policyText := campusFixture(t)
	opts := core.Options{DetectOscillation: true}

	steps := []struct {
		name    string
		changes []netcfg.Change
	}{
		{"uplink down", []netcfg.Change{netcfg.ShutdownInterface{Device: "border", Intf: "eth1", Shutdown: true}}},
		{"uplink up", []netcfg.Change{netcfg.ShutdownInterface{Device: "border", Intf: "eth1", Shutdown: false}}},
		{"blackhole", []netcfg.Change{netcfg.AddStaticRoute{Device: "core1", Route: netcfg.StaticRoute{Prefix: netcfg.MustPrefix("10.10.2.0/24"), Drop: true}}}},
		{"core link down", []netcfg.Change{netcfg.ShutdownInterface{Device: "core1", Intf: "eth2", Shutdown: true}}},
		{"repair", []netcfg.Change{
			netcfg.RemoveStaticRoute{Device: "core1", Route: netcfg.StaticRoute{Prefix: netcfg.MustPrefix("10.10.2.0/24"), Drop: true}},
			netcfg.ShutdownInterface{Device: "core1", Intf: "eth2", Shutdown: false},
		}},
	}

	oracle, _, err := core.Bootstrap(opts, net.Clone(), policyText)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2, 3, 4, 7} {
		c := core.NewOn(opts, NewSet(n, 0))
		if _, err := c.Load(net.Clone()); err != nil {
			t.Fatalf("shards=%d: load: %v", n, err)
		}
		ps, err := core.ParsePolicies(policyText)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			c.AddPolicy(p)
		}
		if got, want := c.Verdicts(), oracle.Verdicts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: initial verdicts = %v, want %v", n, got, want)
		}
		if got, want := c.NumFIBRules(), oracle.NumFIBRules(); got != want {
			t.Errorf("shards=%d: fib rules = %d, want %d", n, got, want)
		}

		// Fresh oracle per shard count so both engines replay the same
		// sequence from the same base.
		ov, _, err := core.Bootstrap(opts, net.Clone(), policyText)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range steps {
			orep, err := ov.Apply(step.changes...)
			if err != nil {
				t.Fatalf("shards=%d %s: oracle: %v", n, step.name, err)
			}
			crep, err := c.Apply(step.changes...)
			if err != nil {
				t.Fatalf("shards=%d %s: coordinator: %v", n, step.name, err)
			}
			if got, want := c.Verdicts(), ov.Verdicts(); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d %s: verdicts = %v, want %v", n, step.name, got, want)
			}
			if got, want := crep.Violations(), orep.Violations(); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d %s: violations = %v, want %v", n, step.name, got, want)
			}
			if got, want := crep.Repaired(), orep.Repaired(); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d %s: repaired = %v, want %v", n, step.name, got, want)
			}
			if crep.RulesInserted != orep.RulesInserted || crep.RulesDeleted != orep.RulesDeleted {
				t.Errorf("shards=%d %s: rule deltas (%d,%d), want (%d,%d)", n, step.name,
					crep.RulesInserted, crep.RulesDeleted, orep.RulesInserted, orep.RulesDeleted)
			}
		}
	}
}

// TestCoordinatorTrace: packet traces through the owning shard must
// agree with the monolithic verifier's traces — same hops, rules and
// outcome.
func TestCoordinatorTrace(t *testing.T) {
	net, policyText := campusFixture(t)
	opts := core.Options{DetectOscillation: true}
	oracle, _, err := core.Bootstrap(opts, net.Clone(), policyText)
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewOn(opts, NewSet(4, 0))
	if _, err := c.Load(net.Clone()); err != nil {
		t.Fatal(err)
	}
	ps, err := core.ParsePolicies(policyText)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		c.AddPolicy(p)
	}
	pkt, err := core.ParsePacket("10.10.2.9", "10.10.1.5", "tcp", 80)
	if err != nil {
		t.Fatal(err)
	}
	got, want := c.Trace("edge1", pkt), oracle.Trace("edge1", pkt)
	if got.String() != want.String() {
		t.Errorf("trace diverged:\n got %s\nwant %s", got, want)
	}
}

// pipelineShape reduces an apply trace to what must not depend on the
// back half: the pipeline-track span names in order, the generate
// span's attributes, and the config_change events without timestamps.
func pipelineShape(t *testing.T, v *core.Verifier, id uint64) (spans []string, generate []trace.Attr, changes []trace.Event) {
	t.Helper()
	tr := v.Recorder().Get(id)
	if tr == nil {
		t.Fatalf("no trace %d", id)
	}
	for _, s := range tr.Spans {
		if s.Track != obs.TrackPipeline {
			continue
		}
		spans = append(spans, s.Name)
		if s.Name == obs.StageGenerate {
			generate = s.Attrs
		}
	}
	for _, e := range tr.Events {
		if e.Track == obs.TrackPipeline && e.Kind == obs.EventConfigChange {
			e.TSUS = 0
			changes = append(changes, e)
		}
	}
	return spans, generate, changes
}

// TestShardedTraceShape: a sharded verifier runs the monolith's
// pipeline, so every traced load and apply must carry the same pipeline
// spans, generate-span attributes and config_change events.
func TestShardedTraceShape(t *testing.T) {
	net, policyText := campusFixture(t)
	opts := core.Options{DetectOscillation: true, TraceApplies: 16}
	ps, err := core.ParsePolicies(policyText)
	if err != nil {
		t.Fatal(err)
	}
	steps := [][]netcfg.Change{
		{netcfg.ShutdownInterface{Device: "border", Intf: "eth1", Shutdown: true}},
		{netcfg.ShutdownInterface{Device: "border", Intf: "eth1", Shutdown: false}},
		{netcfg.AddStaticRoute{Device: "core1", Route: netcfg.StaticRoute{Prefix: netcfg.MustPrefix("10.10.2.0/24"), Drop: true}}},
		{netcfg.RemoveStaticRoute{Device: "core1", Route: netcfg.StaticRoute{Prefix: netcfg.MustPrefix("10.10.2.0/24"), Drop: true}}},
	}
	for _, n := range []int{2, 4} {
		mono, sharded := core.New(opts), core.NewOn(opts, NewSet(n, 0))
		var ids [2][]uint64
		for k, v := range []*core.Verifier{mono, sharded} {
			rep, err := v.Load(net.Clone())
			if err != nil {
				t.Fatal(err)
			}
			ids[k] = append(ids[k], rep.TraceID)
			for _, p := range ps {
				v.AddPolicy(p)
			}
			for _, chs := range steps {
				rep, err := v.Apply(chs...)
				if err != nil {
					t.Fatal(err)
				}
				ids[k] = append(ids[k], rep.TraceID)
			}
		}
		for i := range ids[0] {
			ms, mg, mc := pipelineShape(t, mono, ids[0][i])
			ss, sg, sc := pipelineShape(t, sharded, ids[1][i])
			if !reflect.DeepEqual(ss, ms) {
				t.Errorf("shards=%d verification %d: pipeline spans %v, monolith %v", n, i, ss, ms)
			}
			if !reflect.DeepEqual(sg, mg) {
				t.Errorf("shards=%d verification %d: generate attrs %v, monolith %v", n, i, sg, mg)
			}
			if !reflect.DeepEqual(sc, mc) {
				t.Errorf("shards=%d verification %d: config changes %v, monolith %v", n, i, sc, mc)
			}
			if i > 0 && len(mc) == 0 {
				t.Errorf("verification %d recorded no config_change events", i)
			}
		}
	}
}
