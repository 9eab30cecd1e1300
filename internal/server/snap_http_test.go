package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"realconfig/internal/core"
)

// TestSnapshotBytesTrigger: the journal-growth trigger fires a capture
// once appended bytes since the last snapshot cross the threshold, even
// with the entry-count trigger disabled.
func TestSnapshotBytesTrigger(t *testing.T) {
	net, policyText := campusConfig(t)
	srv, err := New(Config{
		Net:                 net,
		PolicyText:          policyText,
		Options:             core.Options{},
		JournalPath:         filepath.Join(t.TempDir(), "leader.journal"),
		JournalSegmentBytes: 150,
		SnapshotBytes:       100, // every write is larger than this
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	for _, w := range replicaWrites[:2] {
		if status, body := post(t, ts, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	if got := srv.Metrics().Snapshot()["realconfig_snap_last_seq"]; got != 2 {
		t.Errorf("snap_last_seq = %v, want 2 (byte trigger should fire per write)", got)
	}
}

// TestSnapshotHTTPMethodsAndEmpty: wrong verbs answer 405 with Allow,
// and a journaled leader that never captured answers 404 on the
// download endpoint.
func TestSnapshotHTTPMethodsAndEmpty(t *testing.T) {
	_, ts := newSnapServer(t, filepath.Join(t.TempDir(), "leader.journal"), 2, 0)

	for _, c := range []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/snapshot", http.MethodPost},
		{http.MethodDelete, "/v1/promote", http.MethodPost},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
	}

	// Journal present, but nothing captured yet.
	if status, body := get(t, ts, "/v1/snapshot/latest"); status != http.StatusNotFound {
		t.Errorf("latest before any capture: status %d: %s", status, body)
	}
}

// TestTenantDetailEndpoint: GET /v1/tenants/{id} serves the headline
// summary; other verbs answer 405.
func TestTenantDetailEndpoint(t *testing.T) {
	net1, pol := campusConfig(t)
	net2, _ := campusConfig(t)
	srv, err := New(Config{
		Net: net1, PolicyText: pol,
		Tenants: []TenantConfig{{ID: "acme", Net: net2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	status, body := get(t, ts, "/v1/tenants/acme")
	if status != http.StatusOK {
		t.Fatalf("tenant detail: status %d: %s", status, body)
	}
	var sum tenantSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("bad detail body %s: %v", body, err)
	}
	if sum.ID != "acme" || sum.Devices == 0 {
		t.Errorf("detail = %+v, want id acme with devices", sum)
	}

	if status, _ := post(t, ts, "/v1/tenants/acme", ""); status != http.StatusMethodNotAllowed {
		t.Errorf("POST tenant detail: status %d, want 405", status)
	}

	if v := srv.tenants["acme"].Verifier(); v == nil {
		t.Error("tenant verifier accessor returned nil")
	}
}

// TestWriteMethodGuards: every verb-restricted route refuses the wrong
// method with 405 + Allow rather than falling through to its handler.
func TestWriteMethodGuards(t *testing.T) {
	_, ts := newSnapServer(t, filepath.Join(t.TempDir(), "leader.journal"), 2, 0)
	for _, c := range []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/v1/healthz", http.MethodGet},
		{http.MethodPost, "/v1/readyz", http.MethodGet},
		{http.MethodPost, "/v1/report", http.MethodGet},
		{http.MethodGet, "/v1/whatif", http.MethodPost},
		{http.MethodGet, "/v1/policies", http.MethodPost},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
	}

	// Malformed JSON on the policy route exercises the decode guard.
	if status, _ := post(t, ts, "/v1/policies", "{not json"); status != http.StatusBadRequest {
		t.Errorf("bad policy body: status %d, want 400", status)
	}
	// A what-if against a device that does not exist fails in the fork,
	// never touching live state.
	bogus := `{"changes":[{"kind":"shutdown_interface","device":"no-such-device","intf":"eth9","shutdown":true}]}`
	if status, _ := post(t, ts, "/v1/whatif", bogus); status != http.StatusUnprocessableEntity {
		t.Errorf("what-if on unknown device: status %d, want 422", status)
	}
}

// TestPromoteGuards: promotion is refused on a leader tenant (no
// follower) and on a replica whose stream never connected.
func TestPromoteGuards(t *testing.T) {
	srvL, _ := newSnapServer(t, filepath.Join(t.TempDir(), "leader.journal"), 2, 0)
	if _, err := srvL.tenants[DefaultTenant].promote(); err == nil {
		t.Error("promoting a leader tenant succeeded; want 'not a follower'")
	}

	// A "leader" that 404s everything: the bootstrap probe falls back and
	// the stream never establishes, so the replica stays disconnected.
	dead := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(dead.Close)
	_, tsF := newReplicaServer(t, dead.URL, "")
	if status, body := post(t, tsF, "/v1/promote", ""); status != http.StatusConflict {
		t.Errorf("promoting a disconnected replica: status %d: %s", status, body)
	}
}

// TestFollowerLocalCheckpoint: POST /v1/snapshot on a journaled replica
// checkpoints locally under the leader's epoch (a follower must never
// mint its own).
func TestFollowerLocalCheckpoint(t *testing.T) {
	srvL, tsL := newSnapServer(t, filepath.Join(t.TempDir(), "leader.journal"), 2, 0)
	for _, w := range replicaWrites {
		if status, body := post(t, tsL, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	srvF, tsF := newReplicaServer(t, tsL.URL, filepath.Join(t.TempDir(), "replica.journal"))
	want := srvL.Snapshot().Seq
	replWait(t, "catch-up", func() bool { return srvF.Snapshot().Seq == want })

	status, body := post(t, tsF, "/v1/snapshot", "")
	if status != http.StatusOK {
		t.Fatalf("follower checkpoint: status %d: %s", status, body)
	}
	res := snapResult(t, body)
	if res.Seq != want {
		t.Errorf("checkpoint seq = %d, want %d", res.Seq, want)
	}
	leaderEpoch, err := srvL.tenants[DefaultTenant].journal.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != leaderEpoch {
		t.Errorf("checkpoint epoch = %d, want the leader's %d (followers must not mint)", res.Epoch, leaderEpoch)
	}
}

// TestTakeSnapshotWithoutJournal: the capture itself (not just its HTTP
// guard) refuses to run without a journal to anchor the chain.
func TestTakeSnapshotWithoutJournal(t *testing.T) {
	net, policyText := campusConfig(t)
	srv, err := New(Config{Net: net, PolicyText: policyText, Options: core.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	tn := srv.tenants[DefaultTenant]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := tn.do(ctx, func() (any, error) { return tn.takeSnapshot() }); err == nil {
		t.Error("takeSnapshot without a journal succeeded")
	}
}
