package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one metric of record. BENCHMARK.json repeats this table
// for the driver; bench_test.go fails when the two drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median it may worsen by; 0 = ungated
}

// endToEnd are the gated metrics, printed by every workload with
// --trace 0. The bounds follow the spreads measured on this box
// (README.md, "Measured"), not the issue's proposal. "op" is the workload's own operation: one change batch
// (library and served-mix), one from-scratch load (cold-load), one
// GET /v1/verdicts (served-mix-reads).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// layers are this repo's modules on the apply path, in pipeline order.
// The first five make up a core.Verifier apply; the last three exist
// only on the served workloads.
var layers = []string{"netcfg", "generate", "model", "policy", "core_other", "server", "journal", "transport"}

// counts are per-apply work counters, reported as means over a fixed
// prefix of the traced rounds so they repeat exactly for one seed.
var counts = []string{
	"dd_entries", "dd_iterations", "rules_changed", // generate
	"ecs_affected", "transfers", // model
	"pairs_affected", "policies_checked", "policy_events", // policy
	"journal_bytes", "read_bytes", // journal, transport
}

// perLayer are the ungated metrics, printed by every workload with
// --trace 1.
var perLayer = func() []metricDef {
	var out []metricDef
	// Self times for the engine's layers only: the outer three would read
	// exactly 0 ms on every library run, and the driver takes a time that
	// never varies for a fake. Their shares say the same, and the served
	// runs print their milliseconds as diagnostics.
	for _, l := range layers[:engineLayers] {
		out = append(out, metricDef{l + "_self_ms", "ms", "lower", 0})
	}
	for _, l := range layers {
		out = append(out, metricDef{l + "_share", "share", "lower", 0})
	}
	for _, c := range counts {
		unit := "count"
		if strings.HasSuffix(c, "_bytes") {
			unit = "B"
		}
		out = append(out, metricDef{c, unit, "lower", 0})
	}
	return append(out,
		metricDef{"recheck_yield", "share", "higher", 0},
		metricDef{"root_ms", "ms", "lower", 0},
		metricDef{"self_sum_share", "share", "higher", 0},
		metricDef{"trace_overhead_share", "share", "lower", 0},
	)
}()

// value is one measured metric as it appears in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// valuesFor pairs measured numbers with the units of defs; a missing or
// non-finite number is a bug in the workload, reported as an error.
func valuesFor(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s: no finite value (have %v, present=%v)", d.Name, v, ok)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
