package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkJSON is the driver's contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json and the registry
// in code from drifting: same workloads, metrics, units, directions and
// bounds, in the same order.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, default window is %d", bj.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	var got, want []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads differ:\n json %q\n code %q", got, want)
	}
	got, want = nil, nil
	for _, m := range bj.EndToEnd {
		got = append(got, fmt.Sprint(m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range endToEnd {
		want = append(want, fmt.Sprint(m.Name, m.Unit, m.Better, m.Bound))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs:\n json %q\n code %q", got, want)
	}
	got, want = nil, nil
	for _, m := range bj.PerLayer {
		got = append(got, fmt.Sprint(m.Name, m.Unit, m.Better))
	}
	for _, m := range perLayer {
		want = append(want, fmt.Sprint(m.Name, m.Unit, m.Better))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs:\n json %q\n code %q", got, want)
	}
}

// TestSmoke runs every workload at k=4 with a 200 ms window, gated and
// traced: each must pass its output checks and emit every metric declared
// for the mode, finite and with its unit (run fails otherwise).
func TestSmoke(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // runs write under ./.bench_build
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, s := range workloads {
		s.k = 4
		for _, traced := range []bool{false, true} {
			c := config{seed: 7, window: 200 * time.Millisecond, warmup: 50 * time.Millisecond, setups: 1, traced: traced}
			t.Run(fmt.Sprintf("%s/traced=%t", s.name, traced), func(t *testing.T) {
				rec, err := run(s, c)
				if err != nil {
					t.Fatal(err)
				}
				for _, ch := range rec.Checks {
					if !ch.OK {
						t.Errorf("check failed: %s (%s)", ch.Name, ch.Detail)
					}
				}
				if !rec.correct() || rec.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d", rec.correct(), rec.Attempted, rec.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					if v, ok := rec.Metrics[d.Name]; !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: got %+v present=%t, want unit %s", d.Name, v, ok, d.Unit)
					}
				}
				for _, d := range endToEnd {
					if !traced && rec.Metrics[d.Name].Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, rec.Metrics[d.Name].Value)
					}
				}
			})
		}
	}
}
