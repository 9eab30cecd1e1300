package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

// TestRequestTelemetry: every request lands in the per-route duration
// histogram and latency summary, in-flight and queue-wait series exist,
// and the Go runtime gauges are exposed.
func TestRequestTelemetry(t *testing.T) {
	_, ts := newCampusServer(t, "")

	if status, _ := get(t, ts, "/v1/verdicts"); status != http.StatusOK {
		t.Fatalf("verdicts: status %d", status)
	}
	if status, body := post(t, ts, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("apply: status %d: %s", status, body)
	}
	if status, _ := get(t, ts, "/no/such/route"); status != http.StatusNotFound {
		t.Fatal("unmatched route must 404")
	}

	_, body := get(t, ts, "/v1/metrics")
	m := parseMetrics(t, body)

	for _, name := range []string{
		`realconfig_server_request_duration_seconds_count{code="200",method="GET",route="/v1/verdicts"}`,
		`realconfig_server_request_duration_seconds_count{code="200",method="POST",route="/v1/changes"}`,
		`realconfig_server_request_duration_seconds_count{code="404",method="GET",route="unmatched"}`,
		`realconfig_server_request_latency_seconds_count{route="/v1/verdicts"}`,
		`realconfig_server_request_latency_seconds{route="/v1/changes",quantile="0.99"}`,
		"realconfig_server_queue_wait_seconds_count",
		"go_goroutines",
		"go_memstats_heap_alloc_bytes",
		"go_memstats_gc_cycles_total",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("metrics missing %s", name)
		}
	}
	// The scrape itself is the one request in flight while rendering.
	if got := m["realconfig_server_requests_in_flight"]; got != 1 {
		t.Errorf("requests_in_flight during scrape = %v, want 1", got)
	}
	if got := m[`realconfig_server_request_duration_seconds_count{code="200",method="GET",route="/v1/verdicts"}`]; got != 1 {
		t.Errorf("verdicts request count = %v, want 1", got)
	}
	// The apply queued exactly one job; its wait was recorded.
	if got := m["realconfig_server_queue_wait_seconds_count"]; got < 1 {
		t.Errorf("queue_wait count = %v, want >= 1", got)
	}
}

// TestRequestTelemetryTenantLabels: a named tenant's requests carry its
// tenant label next to route/method/code, folded onto the same
// tenant-neutral route pattern as the default tenant's.
func TestRequestTelemetryTenantLabels(t *testing.T) {
	net1, pol := campusConfig(t)
	net2, _ := campusConfig(t)
	srv, err := New(Config{
		Net: net1, PolicyText: pol,
		Tenants: []TenantConfig{{ID: "acme", Net: net2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := get(t, ts, "/v1/tenants/acme/verdicts"); status != http.StatusOK {
		t.Fatal("tenant verdicts failed")
	}
	_, body := get(t, ts, "/v1/metrics")
	m := parseMetrics(t, body)
	want := `realconfig_server_request_duration_seconds_count{code="200",method="GET",route="/v1/verdicts",tenant="acme"}`
	if got := m[want]; got != 1 {
		t.Errorf("%s = %v, want 1", want, got)
	}
	if _, ok := m[`realconfig_server_request_latency_seconds_count{route="/v1/verdicts",tenant="acme"}`]; !ok {
		t.Error("tenant-labeled latency summary missing")
	}
}

// TestReadyzLeader: a leader is ready the moment it serves (journal
// replay happens before the listener), and healthz carries the same
// readiness alongside liveness.
func TestReadyzLeader(t *testing.T) {
	_, ts := newCampusServer(t, "")
	status, body := get(t, ts, "/v1/readyz")
	if status != http.StatusOK {
		t.Fatalf("readyz: status %d: %s", status, body)
	}
	if string(body) == "" || !containsJSON(body, `"ready":true`) {
		t.Fatalf("readyz body missing ready:true: %s", body)
	}
	_, hb := get(t, ts, "/v1/healthz")
	if !containsJSON(hb, `"ready":true`) {
		t.Fatalf("healthz body missing ready:true: %s", hb)
	}
}

// TestReadyzFollower: a follower that cannot reach its leader stays
// not-ready (503 + "ready":false) — liveness keeps answering 200 — and
// a follower that catches up becomes ready and stays ready.
func TestReadyzFollower(t *testing.T) {
	// No leader at this address: the follower can never catch up.
	net1, pol := campusConfig(t)
	orphan, err := New(Config{
		Net: net1, PolicyText: pol,
		FollowURL:      "http://127.0.0.1:9",
		replBackoff:    10 * time.Millisecond,
		replMaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer orphan.Close()
	tsO := httptest.NewServer(orphan.Handler())
	defer tsO.Close()
	status, body := get(t, tsO, "/v1/readyz")
	if status != http.StatusServiceUnavailable || !containsJSON(body, `"ready":false`) {
		t.Fatalf("warming follower readyz: status %d body %s, want 503 ready:false", status, body)
	}
	if status, _ := get(t, tsO, "/v1/healthz"); status != http.StatusOK {
		t.Error("healthz (liveness) must stay 200 on a warming follower")
	}

	// A real leader: the follower catches up and flips ready.
	srvL, tsL := newCampusServer(t, filepath.Join(t.TempDir(), "leader.journal"))
	if status, body := post(t, tsL, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("leader write: status %d: %s", status, body)
	}
	srvF, tsF := newReplicaServer(t, tsL.URL, "")
	replWait(t, "follower readiness", func() bool {
		status, _ := get(t, tsF, "/v1/readyz")
		return status == http.StatusOK
	})
	_, body = get(t, tsF, "/v1/readyz")
	for _, want := range []string{`"ready":true`, `"role":"follower"`} {
		if !containsJSON(body, want) {
			t.Errorf("caught-up follower readyz missing %s: %s", want, body)
		}
	}
	if !srvF.Tenant(DefaultTenant).Ready() {
		t.Error("Tenant.Ready() must latch true after catch-up")
	}
	_ = srvL
}

// containsJSON reports whether a response body contains the literal
// fragment (the bodies here are small, flat JSON objects).
func containsJSON(body []byte, fragment string) bool {
	return bytes.Contains(body, []byte(fragment))
}
