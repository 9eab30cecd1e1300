// Command benchmark is RealConfig's benchmark of record: six named
// workloads, four gated end-to-end metrics and an ungated per-layer
// breakdown. README.md in this directory says what each number means.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	benchmark [--seed <n>] [--seconds <s>] [--out <file>]    every workload, gated and traced
//	benchmark compare <A.json[,A2.json...]> <B.json[,B2.json...]>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"realconfig/internal/trace"
)

const (
	defaultSeed    = 1
	defaultSeconds = 10
	// warmup precedes every gated window; its samples are discarded.
	warmup = 2 * time.Second
	// setupRepeats is how often a gated run sets up at least, and
	// setupBudget how long it goes on setting up; setup_s is the median.
	setupRepeats = 3
	setupBudget  = 1500 * time.Millisecond
	// workDir holds everything a run writes: journals, traces, results.
	workDir = ".bench_build"
)

// config is one run's settings, identical on every commit.
type config struct {
	seed        int64
	window      time.Duration
	warmup      time.Duration
	setups      int
	setupBudget time.Duration
	traced      bool
}

// defs are the metrics a run with these settings reports.
func (c config) defs() []metricDef {
	if c.traced {
		return perLayer
	}
	return endToEnd
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// record is everything one run of one workload measured and checked.
type record struct {
	Workload    string           `json:"workload"`
	Why         string           `json:"why"`
	Seed        int64            `json:"seed"`
	Traced      bool             `json:"traced"`
	WindowS     float64          `json:"window_s"`
	WarmupS     float64          `json:"warmup_s"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Metrics     map[string]value `json:"metrics"`
	Diagnostics map[string]value `json:"diagnostics,omitempty"`
	Samples     map[string]int   `json:"samples"`
	Checks      []checkResult    `json:"checks"`
	TraceFile   string           `json:"trace_file,omitempty"`
	Notes       []string         `json:"notes,omitempty"`

	got map[string]float64
}

func newRecord(s spec, c config) *record {
	return &record{
		Workload: s.name, Why: s.why, Seed: c.seed, Traced: c.traced,
		WindowS: c.window.Seconds(), WarmupS: c.warmup.Seconds(),
		Diagnostics: map[string]value{}, Samples: map[string]int{}, got: map[string]float64{},
	}
}

// set records a metric of record and the number of samples behind it.
func (r *record) set(name string, v float64, samples int) {
	r.got[name] = v
	r.Samples[name] = samples
}

// diag records an ungated diagnostic, printed beside the metrics.
func (r *record) diag(name, unit string, v float64, samples int) {
	r.Diagnostics[name] = value{Value: v, Unit: unit}
	r.Samples[name] = samples
}

// count adds a phase's ops to the run's attempted and failed.
func (r *record) count(p phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
}

func (r *record) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, checkResult{Name: name, OK: ok, Detail: detail})
}

func (r *record) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0 && len(r.Checks) > 0
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(s spec, c config) (*record, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	var rec *record
	var err error
	switch {
	case s.kind.served() && c.traced:
		rec, err = runServedTraced(s, c)
	case s.kind.served():
		rec, err = runServed(s, c)
	case c.traced:
		rec, err = runLibraryTraced(s, c)
	default:
		rec, err = runLibrary(s, c)
	}
	if err != nil {
		return nil, err
	}
	rec.Metrics, err = valuesFor(c.defs(), rec.got)
	return rec, err
}

// print writes the human-readable report; the result line follows it.
func (r *record) print(defs []metricDef) {
	fmt.Printf("workload %s seed %d window %.0fs warm-up %.0fs traced=%t\n", r.Workload, r.Seed, r.WindowS, r.WarmupS, r.Traced)
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, d := range defs {
		bound := "ungated"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%s is better, bound %.0f%%", d.Better, 100*d.Bound)
		}
		fmt.Printf("  %-24s %14.4f %-6s n=%-6d %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit, r.Samples[d.Name], bound)
	}
	for _, name := range sortedKeys(r.Diagnostics) {
		fmt.Printf("  %-24s %14.4f %-6s n=%-6d diagnostic\n", name, r.Diagnostics[name].Value, r.Diagnostics[name].Unit, r.Samples[name])
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("  check %s %s (%s)\n", verdict, c.Name, c.Detail)
	}
	if r.TraceFile != "" {
		fmt.Printf("  chrome trace: %s\n", r.TraceFile)
	}
}

// traceRing is how many of the most recent traced ops are kept for the
// Chrome trace; the per-layer metrics are taken from every op as it ends.
const traceRing = 512

// writeTrace writes the ring's traced ops as Chrome trace JSON.
func writeTrace(rec *record, ring *trace.Recorder) error {
	sums := ring.Applies() // newest first
	applies := make([]*trace.Apply, 0, len(sums))
	for i := len(sums) - 1; i >= 0; i-- {
		applies = append(applies, ring.Get(sums[i].ID))
	}
	path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", rec.Workload, rec.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, applies...); err != nil {
		f.Close()
		return err
	}
	rec.TraceFile = path
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run (empty = every workload, each in a child process)")
	seed := flag.Int64("seed", defaultSeed, "seed the change sequences are drawn from")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "0 = gated end-to-end run, 1 = per-layer traced run")
	out := flag.String("out", "", "also write the full record as JSON to this file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--out file] | benchmark compare A.json B.json")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *out))
	}
	s, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	c := config{seed: *seed, window: time.Duration(*seconds) * time.Second, warmup: warmup, setups: setupRepeats, setupBudget: setupBudget, traced: *traced == 1}
	rec, err := run(s, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
		os.Exit(1)
	}
	rec.print(c.defs())
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(resultLine{Correct: rec.correct(), Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.correct() {
		os.Exit(1)
	}
}
