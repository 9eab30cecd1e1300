package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// parseMetrics extracts the sample lines of a Prometheus text scrape
// into name{labels} -> value.
func parseMetrics(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndex(line, " ")
		if i < 0 {
			t.Fatalf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndpoint checks that /v1/metrics serves well-formed
// Prometheus text covering all four pipeline stages plus the serving
// layer, and that the counters move when a change is applied.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newCampusServer(t, "")

	status, body := get(t, ts, "/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d: %s", status, body)
	}
	m := parseMetrics(t, body)

	// One representative metric per pipeline stage, plus the server's.
	stages := []string{
		"realconfig_dd_epochs_total",                    // stage 1: data plane generation engine
		"realconfig_apkeep_split_calls_total",           // stage 2: data plane model
		"realconfig_policy_checks_total",                // stage 3: policy checker
		`realconfig_stage_seconds_count{stage="total"}`, // core: per-stage timings
		"realconfig_server_snapshot_publishes_total",    // serving layer
	}
	for _, name := range stages {
		if _, ok := m[name]; !ok {
			t.Errorf("metrics missing %s", name)
		}
	}
	// The initial load already verified once.
	if m["realconfig_verifications_total"] < 1 {
		t.Fatalf("verifications_total = %v, want >= 1", m["realconfig_verifications_total"])
	}
	if m["realconfig_apkeep_ecs"] <= 0 {
		t.Fatalf("apkeep_ecs gauge = %v, want > 0", m["realconfig_apkeep_ecs"])
	}

	if status, body := post(t, ts, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("apply: status %d: %s", status, body)
	}
	_, body = get(t, ts, "/v1/metrics")
	m2 := parseMetrics(t, body)
	if m2["realconfig_verifications_total"] != m["realconfig_verifications_total"]+1 {
		t.Fatalf("verifications_total did not advance: %v -> %v",
			m["realconfig_verifications_total"], m2["realconfig_verifications_total"])
	}
	if m2["realconfig_server_applies_total"] != 1 {
		t.Fatalf("server_applies_total = %v, want 1", m2["realconfig_server_applies_total"])
	}
	if m2[`realconfig_stage_seconds_count{stage="model_update"}`] < 2 {
		t.Fatalf("stage histogram not observed: %v", m2)
	}
	if m2[`realconfig_stage_seconds_count{stage="netcfg"}`] < 2 {
		t.Fatalf("netcfg stage histogram not observed: %v", m2)
	}
}

// TestMetricsChangeProportionality is the paper's claim made visible in
// the live metrics: one incremental change examines far fewer candidate
// ECs than the initial full verification did — the per-request work is
// proportional to the change, not the network.
func TestMetricsChangeProportionality(t *testing.T) {
	_, ts := newCampusServer(t, "")

	_, body := get(t, ts, "/v1/metrics")
	load := parseMetrics(t, body)
	loadCands := load["realconfig_apkeep_split_candidates_total"]
	if loadCands <= 0 {
		t.Fatalf("initial load examined no split candidates: %v", loadCands)
	}

	// A destination-bounded change: one new static drop route for a
	// prefix nothing else uses. The interval index must narrow the split
	// to the handful of ECs intersecting 10.99.0.0/24, regardless of how
	// much state the network holds.
	addRoute := `{"changes":[{"kind":"add_static_route","Device":"core1",` +
		`"Route":{"Prefix":"10.99.0.0/24","NextHop":"0.0.0.0","Drop":true}}]}`
	if status, body := post(t, ts, "/v1/changes", addRoute); status != http.StatusOK {
		t.Fatalf("apply: status %d: %s", status, body)
	}
	_, body = get(t, ts, "/v1/metrics")
	after := parseMetrics(t, body)

	applyCands := after["realconfig_apkeep_split_candidates_total"] - loadCands
	applyTransfers := after["realconfig_apkeep_transfers_total"] - load["realconfig_apkeep_transfers_total"]
	ecs := after["realconfig_apkeep_ecs"]
	if applyCands <= 0 {
		t.Fatalf("apply examined no candidates; counters not wired")
	}
	// Change-proportionality, visible in the metrics: the single-change
	// apply examined far fewer candidates than the full load and far
	// fewer than the partition size.
	if applyCands*4 > loadCands {
		t.Errorf("apply examined %v candidates, want << full load's %v", applyCands, loadCands)
	}
	if applyCands >= ecs {
		t.Errorf("apply candidates %v not below partition size %v", applyCands, ecs)
	}
	if applyTransfers <= 0 {
		t.Errorf("static route produced no EC transfers")
	}
	t.Logf("load candidates=%v apply candidates=%v transfers=%v ecs=%v",
		loadCands, applyCands, applyTransfers, ecs)
}

// TestPprofOptIn: /debug/pprof/ must 404 by default and serve when
// enabled.
func TestPprofOptIn(t *testing.T) {
	_, ts := newCampusServer(t, "")
	if status, _ := get(t, ts, "/debug/pprof/"); status != http.StatusNotFound {
		t.Fatalf("pprof served without opt-in: status %d", status)
	}

	net, policyText := campusConfig(t)
	srv, err := New(Config{Net: net, PolicyText: policyText, EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	if status, body := get(t, ts2, "/debug/pprof/"); status != http.StatusOK {
		t.Fatalf("pprof with opt-in: status %d: %s", status, body)
	}
}
