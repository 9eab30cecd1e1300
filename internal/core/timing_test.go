package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"realconfig/internal/obs"
	"realconfig/internal/topology"
)

func TestTimingString(t *testing.T) {
	for _, tc := range []struct {
		name   string
		timing Timing
		want   string
	}{
		{"zero", Timing{}, "netcfg=0s generate=0s model_update=0s policy_check=0s collect=0s total=0s"},
		{"small apply", Timing{
			Netcfg: 3 * time.Microsecond, Generate: 40 * time.Microsecond, ModelUpdate: 12_400 * time.Nanosecond,
			PolicyCheck: 7 * time.Microsecond, Total: 62 * time.Microsecond,
		}, "netcfg=3µs generate=40µs model_update=12µs policy_check=7µs collect=0s total=62µs"},
		{"collecting load", Timing{
			Netcfg: time.Millisecond, Generate: 250 * time.Millisecond, ModelUpdate: 40 * time.Millisecond,
			PolicyCheck: 9 * time.Millisecond, Collect: 1500 * time.Microsecond, Total: 301500 * time.Microsecond,
		}, "netcfg=1ms generate=250ms model_update=40ms policy_check=9ms collect=1.5ms total=301.5ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.timing.String()
			if got != tc.want {
				t.Fatalf("String() = %q, want %q", got, tc.want)
			}
			fields := strings.Fields(got)
			if len(fields) != len(obs.Stages()) {
				t.Fatalf("String() has %d fields, want one per stage: %q", len(fields), got)
			}
			for i, stage := range obs.Stages() {
				if !strings.HasPrefix(fields[i], stage+"=") {
					t.Errorf("field %d = %q, want stage %s", i, fields[i], stage)
				}
			}
		})
	}
}

// walkSeeded replays the seeded walks of TestIncrementalEqualsBootstrap
// (same topologies, seeds and picks over backendChangePool) on
// verifiers mk builds, handing each report, the load's included, to
// check.
func walkSeeded(t *testing.T, mk func() *Verifier, check func(t *testing.T, where string, v *Verifier, rep *Report)) {
	topos := []struct {
		name  string
		build func() (*topology.Net, error)
	}{
		{"line4-ospf", func() (*topology.Net, error) { return topology.Line(4, topology.OSPF) }},
		{"ring5-ospf", func() (*topology.Net, error) { return topology.Ring(5, topology.OSPF) }},
		{"fattree4-bgp", func() (*topology.Net, error) { return topology.FatTree(4, topology.BGP) }},
	}
	for _, tp := range topos {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", tp.name, seed), func(t *testing.T) {
				net, err := tp.build()
				if err != nil {
					t.Fatal(err)
				}
				v := mk()
				for _, p := range backendPolicies(net) {
					v.AddPolicy(p)
				}
				rep, err := v.Load(net.Network.Clone())
				if err != nil {
					t.Fatal(err)
				}
				check(t, "load", v, rep)
				pool := backendChangePool(net)
				rng := rand.New(rand.NewSource(seed))
				applied := make([]bool, len(pool))
				for step := 0; step < 40; step++ {
					i := rng.Intn(len(pool))
					ch := pool[i].do
					if applied[i] {
						ch = pool[i].undo
					}
					applied[i] = !applied[i]
					rep, err := v.Apply(ch)
					if err != nil {
						t.Fatalf("step %d (%s): %v", step, ch, err)
					}
					check(t, fmt.Sprintf("step %d (%s)", step, ch), v, rep)
				}
			})
		}
	}
}

// TestStagesTileTotal: on the monotonic clock and on a recorder's, every
// stage of every report is >= 0 and the stages before total add up to
// Timing.Total exactly.
func TestStagesTileTotal(t *testing.T) {
	for _, traced := range []int{0, 2} {
		t.Run(fmt.Sprintf("trace=%d", traced), func(t *testing.T) {
			mk := func() *Verifier { return New(Options{DetectOscillation: true, TraceApplies: traced}) }
			walkSeeded(t, mk, func(t *testing.T, where string, _ *Verifier, rep *Report) {
				stages := rep.Timing.Stages()
				var sum time.Duration
				for _, st := range stages[:len(stages)-1] {
					if st.D < 0 {
						t.Fatalf("%s: stage %s = %v < 0", where, st.Stage, st.D)
					}
					sum += st.D
				}
				if sum != rep.Timing.Total {
					t.Fatalf("%s: stages add up to %v, total %v (%s)", where, sum, rep.Timing.Total, rep.Timing)
				}
			})
		})
	}
}

// checkPipelineSpans requires rep's trace to hold one pipeline span per
// stage that ran, each as long as its Timing stage, laid end to end
// across Timing.Total. The recorder's clock must tick whole microseconds.
func checkPipelineSpans(t *testing.T, where string, v *Verifier, rep *Report) {
	t.Helper()
	stages := rep.Timing.Stages()
	var want []StageTiming
	for _, st := range stages[:len(stages)-1] {
		if st.D > 0 {
			want = append(want, st)
		}
	}
	var prevEnd, covered int64
	n := 0
	for _, s := range v.Recorder().Get(rep.TraceID).Spans {
		if s.Track != obs.TrackPipeline {
			continue
		}
		if n == len(want) || s.Name != want[n].Stage {
			t.Fatalf("%s: pipeline span %d is %s, want the stages %v", where, n, s.Name, want)
		}
		if got := time.Duration(s.DurUS) * time.Microsecond; got != want[n].D {
			t.Fatalf("%s: %s span lasts %v, Timing says %v", where, s.Name, got, want[n].D)
		}
		if n > 0 && s.StartUS != prevEnd {
			t.Fatalf("%s: %s span starts at %dµs, the previous span ended at %dµs", where, s.Name, s.StartUS, prevEnd)
		}
		prevEnd = s.StartUS + s.DurUS
		covered += s.DurUS
		n++
	}
	if n != len(want) {
		t.Fatalf("%s: %d pipeline spans, want the stages %v", where, n, want)
	}
	if got := time.Duration(covered) * time.Microsecond; got != rep.Timing.Total {
		t.Fatalf("%s: pipeline spans cover %v, Timing.Total %v", where, got, rep.Timing.Total)
	}
}

// countingVerifier returns a traced verifier whose recorder clock ticks
// one microsecond per reading.
func countingVerifier() *Verifier {
	v := New(Options{DetectOscillation: true, TraceApplies: 2})
	var tick int64
	v.Recorder().SetClock(func() int64 { tick++; return tick })
	return v
}

// TestPipelineSpansAreTiming: under a counting recorder clock, a traced
// verification's pipeline spans and its Report.Timing are one
// measurement, on the seeded walks and on an ACL soak until it collects.
func TestPipelineSpansAreTiming(t *testing.T) {
	t.Run("walk", func(t *testing.T) {
		walkSeeded(t, countingVerifier, checkPipelineSpans)
	})
	t.Run("collect", func(t *testing.T) {
		net, err := topology.FatTree(4, topology.BGP)
		if err != nil {
			t.Fatal(err)
		}
		v := countingVerifier()
		rep, err := v.Load(net.Network.Clone())
		if err != nil {
			t.Fatal(err)
		}
		checkPipelineSpans(t, "load", v, rep)
		for round := 0; rep.Timing.Collect == 0; round++ {
			if round == soakRounds {
				t.Fatalf("no apply collected in %d rounds", round)
			}
			for _, ch := range soakRound(net, round) {
				if rep, err = v.Apply(ch); err != nil {
					t.Fatalf("round %d (%s): %v", round, ch, err)
				}
				checkPipelineSpans(t, fmt.Sprintf("round %d (%s)", round, ch), v, rep)
				if rep.Timing.Collect > 0 {
					break
				}
			}
		}
	})
}
