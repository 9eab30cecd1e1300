package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// resultFile is what a run of every workload writes: where and how it
// was measured, and per workload the gated and the traced record.
type resultFile struct {
	Commit     string              `json:"commit"`
	Seed       int64               `json:"seed"`
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"nproc"`
	WindowS    int                 `json:"window_s"`
	WarmupS    float64             `json:"warmup_s"`
	Setups     int                 `json:"setups_per_run"`
	When       string              `json:"when"`
	Workloads  map[string][]record `json:"workloads"` // gated record, then traced
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// commit names the checked-out commit, for the result file only.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload, gated then traced, each in a fresh child
// process so that peak_rss_mb is the workload's own.
func runAll(seed int64, seconds int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if out == "" {
		out = filepath.Join(workDir, fmt.Sprintf("result-seed%d.json", seed))
	}
	res := resultFile{
		Commit: commit(), Seed: seed, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		WindowS: seconds, WarmupS: warmup.Seconds(), Setups: setupRepeats, When: time.Now().UTC().Format(time.RFC3339),
		Workloads: map[string][]record{},
	}
	failed := 0
	for _, s := range workloads {
		for _, traced := range []int{0, 1} {
			part := filepath.Join(workDir, fmt.Sprintf("part-%d.json", os.Getpid()))
			cmd := exec.Command(self, "--workload", s.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced), "--out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d: %v\n", s.name, traced, err)
				failed++
			}
			var rec record
			b, err := os.ReadFile(part)
			os.Remove(part)
			if err == nil {
				err = json.Unmarshal(b, &rec)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d: no record: %v\n", s.name, traced, err)
				failed++
				continue
			}
			res.Workloads[s.name] = append(res.Workloads[s.name], rec)
		}
	}
	if err := writeJSON(out, res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("result file: %s\n", out)
	if failed > 0 {
		return 1
	}
	return 0
}

// side is one side of a comparison: the median over its result files of
// every metric of every workload, and what failed.
type side struct {
	metrics   map[string]map[string]float64 // workload -> metric -> median
	incorrect map[string]int                // workload -> failed ops and failed checks, summed
}

func loadSide(list string) (side, error) {
	sd := side{metrics: map[string]map[string]float64{}, incorrect: map[string]int{}}
	all := map[string]map[string][]float64{}
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return sd, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return sd, fmt.Errorf("%s: %w", path, err)
		}
		for name, recs := range rf.Workloads {
			if all[name] == nil {
				all[name] = map[string][]float64{}
			}
			for _, rec := range recs {
				for m, v := range rec.Metrics {
					all[name][m] = append(all[name][m], v.Value)
				}
				sd.incorrect[name] += rec.Failed
				for _, c := range rec.Checks {
					if !c.OK {
						sd.incorrect[name]++
					}
				}
			}
		}
	}
	for name, ms := range all {
		sd.metrics[name] = map[string]float64{}
		for m, vs := range ms {
			sd.metrics[name][m] = median(vs)
		}
	}
	return sd, nil
}

// compareMain prints, per workload and metric, both medians, the
// relative difference and the bound. It returns 1 when a gated metric of
// B is worse than A by more than its bound, or B failed more checks.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	a, err := loadSide(args[0])
	if err == nil {
		var b side
		if b, err = loadSide(args[1]); err == nil {
			return compareSides(a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
	return 2
}

func compareSides(a, b side) int {
	regressions := 0
	fmt.Printf("%-18s %-24s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B vs A", "bound")
	for _, s := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			va, okA := a.metrics[s.name][d.Name]
			vb, okB := b.metrics[s.name][d.Name]
			if !okA || !okB {
				continue
			}
			rel := 0.0
			if va != 0 {
				rel = (vb - va) / va
			}
			worse := rel
			if d.Better == "higher" {
				worse = -rel
			}
			bound, mark := "-", ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				if worse > d.Bound {
					mark = "  REGRESSION"
					regressions++
				}
			}
			fmt.Printf("%-18s %-24s %14.4f %14.4f %+8.2f%% %7s%s\n", s.name, d.Name, va, vb, 100*rel, bound, mark)
		}
		if b.incorrect[s.name] > a.incorrect[s.name] {
			fmt.Printf("%-18s failed ops and checks rose from %d to %d  REGRESSION\n", s.name, a.incorrect[s.name], b.incorrect[s.name])
			regressions++
		}
	}
	if regressions > 0 {
		fmt.Printf("%d regression(s)\n", regressions)
		return 1
	}
	fmt.Println("no gated metric is worse than its bound")
	return 0
}
