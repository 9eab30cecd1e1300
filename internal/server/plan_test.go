package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
	"realconfig/internal/plan"
	"realconfig/internal/topology"
)

// ringServer boots a daemon on the planner's demo workload: a 6-node
// OSPF ring whose change batch has exactly one safe ordering shape
// (the cost raise before the static route).
func ringServer(t *testing.T, journalPath string) (*Server, *httptest.Server, []netcfg.Change) {
	t.Helper()
	net, err := topology.Ring(6, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := plan.RingBatch(net, 6)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Net:         net.Network,
		PolicyText:  plan.RingPolicies(net),
		Options:     core.Options{},
		JournalPath: journalPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, batch
}

func batchBody(t *testing.T, batch []netcfg.Change) string {
	t.Helper()
	raws, err := netcfg.EncodeChanges(batch)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(struct {
		Changes []json.RawMessage `json:"changes"`
	}{raws})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func waveIndices(waves [][]planStepJSON) string {
	var b strings.Builder
	for _, wave := range waves {
		b.WriteString("[")
		for i, st := range wave {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%d", st.Index)
		}
		b.WriteString("]")
	}
	return b.String()
}

// TestPlanEndpoint: POST /v1/plan finds the ring batch's safe wave
// ordering, leaves live state untouched, journals the decision as an
// audit record, and the bumped sequence survives a restart.
func TestPlanEndpoint(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j")
	_, ts, batch := ringServer(t, journal)
	_, baseline := get(t, ts, "/v1/verdicts")

	status, body := post(t, ts, "/v1/plan", batchBody(t, batch))
	if status != http.StatusOK {
		t.Fatalf("plan: status %d: %s", status, body)
	}
	var pr planResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Planned || pr.Plan == nil || pr.Counterexample != nil {
		t.Fatalf("plan response: %s", body)
	}
	if got := waveIndices(pr.Plan.Waves); got != "[1][0 2 3 4 5]" {
		t.Errorf("waves = %s, want [1][0 2 3 4 5]", got)
	}
	if len(pr.Plan.Steps) != 6 {
		t.Fatalf("steps = %d, want 6", len(pr.Plan.Steps))
	}
	for i, st := range pr.Plan.Steps {
		if st.Report == nil {
			t.Errorf("step %d has no validation report", i)
		}
		if st.Change == "" {
			t.Errorf("step %d has no change rendering", i)
		}
	}
	if pr.Stats.Probes != 21 {
		t.Errorf("probes = %d, want 21 (deterministic search)", pr.Stats.Probes)
	}
	if pr.Stats.Rebuilds != 20 {
		t.Errorf("rebuilds = %d, want 20 (one fork, probed in index order)", pr.Stats.Rebuilds)
	}
	if pr.Seq != 1 {
		t.Errorf("seq after planning = %d, want 1", pr.Seq)
	}

	// Planning bumps the sequence (the audit record) but must not alter
	// live verdicts.
	_, after := get(t, ts, "/v1/verdicts")
	var vb, va verdictsResponse
	if err := json.Unmarshal(baseline, &vb); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after, &va); err != nil {
		t.Fatal(err)
	}
	if va.Seq != 1 || fmt.Sprint(va.Verdicts) != fmt.Sprint(vb.Verdicts) {
		t.Fatalf("planning mutated live verdicts:\n before %s\n after  %s", baseline, after)
	}

	// The journal holds the audit record with the wave grouping.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var e Entry
	if err := json.Unmarshal(bytes.TrimSpace(data), &e); err != nil {
		t.Fatalf("journal entry %s: %v", data, err)
	}
	if e.Op != opPlan || len(e.Changes) != 6 || len(e.Waves) != 2 {
		t.Fatalf("journal entry: op=%q changes=%d waves=%v", e.Op, len(e.Changes), e.Waves)
	}

	// Restart over the journal: the plan entry replays as a no-op but
	// still counts toward the sequence.
	_, ts2, _ := ringServer(t, journal)
	_, body2 := get(t, ts2, "/v1/verdicts")
	var vr verdictsResponse
	if err := json.Unmarshal(body2, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Seq != 1 {
		t.Errorf("seq after replay = %d, want 1", vr.Seq)
	}

	// Metrics from both the planner and the serving layer are exported.
	_, metrics := get(t, ts, "/v1/metrics")
	for _, name := range []string{
		"realconfig_plan_searches_total 1",
		"realconfig_plan_probes_total 21",
		"realconfig_plan_fork_rebuilds_total 20",
		"realconfig_server_plan_seconds_count 1",
	} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("metrics missing %q", name)
		}
	}
}

// TestPlanEndpointCounterexample: a batch with no safe ordering answers
// 200 with a counterexample, is not journaled, and does not bump seq.
func TestPlanEndpointCounterexample(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j")
	_, ts, batch := ringServer(t, journal)

	// The looping static alone has no safe ordering.
	status, body := post(t, ts, "/v1/plan", batchBody(t, batch[:1]))
	if status != http.StatusOK {
		t.Fatalf("plan: status %d: %s", status, body)
	}
	var pr planResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Planned || pr.Plan != nil || pr.Counterexample == nil {
		t.Fatalf("expected counterexample: %s", body)
	}
	ce := pr.Counterexample
	if ce.Failing.Index != 0 || len(ce.Prefix) != 0 {
		t.Errorf("counterexample failing=%d prefix=%d", ce.Failing.Index, len(ce.Prefix))
	}
	if len(ce.Violated) == 0 {
		t.Errorf("counterexample names no violated policies: %s", body)
	}
	if !strings.Contains(ce.Text, "no violation-free ordering") {
		t.Errorf("counterexample text: %q", ce.Text)
	}
	if pr.Seq != 0 {
		t.Errorf("seq = %d, want 0 (counterexamples are not journaled)", pr.Seq)
	}
	if data, err := os.ReadFile(journal); err != nil || len(data) != 0 {
		t.Fatalf("counterexample journaled: %s (%v)", data, err)
	}
}

// TestPlanEndpointErrors: malformed plan requests map to the shared
// error statuses.
func TestPlanEndpointErrors(t *testing.T) {
	_, ts, batch := ringServer(t, "")
	for _, c := range []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"changes":[]}`, http.StatusBadRequest},
		{`{"changes":[{"kind":"reboot"}]}`, http.StatusBadRequest},
	} {
		if status, body := post(t, ts, "/v1/plan", c.body); status != c.want {
			t.Errorf("POST /v1/plan %q: status %d (want %d): %s", c.body, status, c.want, body)
		}
	}
	if status, _ := get(t, ts, "/v1/plan"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", status)
	}
	// A search error (exhausted probe budget) surfaces as 422.
	body := strings.TrimSuffix(batchBody(t, batch), "}") + `,"maxProbes":2}`
	if status, out := post(t, ts, "/v1/plan", body); status != http.StatusUnprocessableEntity {
		t.Errorf("budget exhaustion: status %d: %s", status, out)
	}
}
