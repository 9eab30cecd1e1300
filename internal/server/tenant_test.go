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
	"sync"
	"testing"

	"realconfig/internal/core"
)

func TestSplitTenantPath(t *testing.T) {
	cases := []struct {
		path, id, rest string
		ok             bool
	}{
		{"/v1/tenants/acme/changes", "acme", "/v1/changes", true},
		{"/v1/tenants/acme/applies/7/trace", "acme", "/v1/applies/7/trace", true},
		{"/v1/tenants/acme", "acme", "", true},
		{"/v1/tenants/a-b.c_9", "a-b.c_9", "", true},
		{"/v1/changes", "", "", false},
		{"/v1/tenants", "", "", false},
		{"/v1/tenants/", "", "", false},
		{"/v1/tenants//changes", "", "", false},
		{"/v1/tenants/UPPER/changes", "", "", false},
		{"/v1/tenants/.dot/changes", "", "", false},
		{"/v1/tenants/sp ace", "", "", false},
		{"/v1/tenants/" + strings.Repeat("x", 65), "", "", false},
	}
	for _, c := range cases {
		id, rest, ok := SplitTenantPath(c.path)
		if id != c.id || rest != c.rest || ok != c.ok {
			t.Errorf("SplitTenantPath(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.path, id, rest, ok, c.id, c.rest, c.ok)
		}
	}
}

// newTwoTenantServer runs a default campus tenant plus a named "acme"
// tenant over its own campus clone, each with its own journal.
func newTwoTenantServer(t *testing.T, dir string, segBytes int64) (*Server, *httptest.Server) {
	t.Helper()
	net, policyText := campusConfig(t)
	srv, err := New(Config{
		Net:                 net,
		PolicyText:          policyText,
		Options:             core.Options{},
		JournalPath:         filepath.Join(dir, "default.journal"),
		JournalSegmentBytes: segBytes,
		Tenants: []TenantConfig{{
			ID:          "acme",
			Net:         net.Clone(),
			PolicyText:  policyText,
			JournalPath: filepath.Join(dir, "acme.journal"),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestTenantIsolation: concurrent writers hammer two tenants; each
// tenant's verdicts, sequence numbers, journal and metric series must
// reflect only its own writes. Run under -race this also proves the
// tenants' apply goroutines share no unsynchronized state.
func TestTenantIsolation(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTwoTenantServer(t, dir, 0)

	flap := func(down bool) string {
		return fmt.Sprintf(`{"changes":[{"kind":"shutdown_interface","device":"core1","intf":"eth2","shutdown":%v}]}`, down)
	}
	// Default tenant: 4 flaps, ending up (healthy). Acme: 4 flaps then
	// a blackhole route (violating its policies). Concurrently.
	blackhole := `{"changes":[{"kind":"add_static_route","Device":"core1","Route":{"Prefix":"10.10.2.0/24","NextHop":"0.0.0.0","Drop":true}}]}`
	write := func(path, body string) error {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := write("/v1/changes", flap(i%2 == 0)); err != nil {
				errs <- fmt.Errorf("default flap %d: %w", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := write("/v1/tenants/acme/changes", flap(i%2 == 0)); err != nil {
				errs <- fmt.Errorf("acme flap %d: %w", i, err)
				return
			}
		}
		if err := write("/v1/tenants/acme/changes", blackhole); err != nil {
			errs <- fmt.Errorf("acme blackhole: %w", err)
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Verdicts: default healthy (link back up), acme violated (down).
	var defVR, acmeVR verdictsResponse
	_, body := get(t, ts, "/v1/verdicts")
	if err := json.Unmarshal(body, &defVR); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, ts, "/v1/tenants/acme/verdicts")
	if err := json.Unmarshal(body, &acmeVR); err != nil {
		t.Fatal(err)
	}
	if defVR.Seq != 4 || acmeVR.Seq != 5 {
		t.Errorf("seqs = (%d, %d), want (4, 5)", defVR.Seq, acmeVR.Seq)
	}
	unsat := func(vr verdictsResponse) (n int) {
		for _, v := range vr.Verdicts {
			if !v.Satisfied {
				n++
			}
		}
		return
	}
	if n := unsat(defVR); n != 0 {
		t.Errorf("default tenant has %d violations, want 0 (its link is up)", n)
	}
	if n := unsat(acmeVR); n == 0 {
		t.Errorf("acme tenant has no violations, want some (it blackholed 10.10.2.0/24)")
	}

	// Journals: each tenant persisted exactly its own writes.
	countLines := func(path string) int {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(b, []byte("\n"))
	}
	if n := countLines(filepath.Join(dir, "default.journal")); n != 4 {
		t.Errorf("default journal has %d entries, want 4", n)
	}
	if n := countLines(filepath.Join(dir, "acme.journal")); n != 5 {
		t.Errorf("acme journal has %d entries, want 5", n)
	}

	// Metrics: acme's serving-layer series carry the tenant label, the
	// default tenant's stay unlabeled, and each counts its own applies.
	m, err := scrapeMetrics(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`realconfig_server_applies_total`]; got != 4 {
		t.Errorf(`unlabeled applies_total = %v, want 4`, got)
	}
	if got := m[`realconfig_server_applies_total{tenant="acme"}`]; got != 5 {
		t.Errorf(`applies_total{tenant="acme"} = %v, want 5`, got)
	}

	// Listing and detail endpoints.
	_, body = get(t, ts, "/v1/tenants")
	var listing struct {
		Tenants []tenantSummary `json:"tenants"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Tenants) != 2 || listing.Tenants[0].ID != "acme" || listing.Tenants[1].ID != "default" {
		t.Errorf("tenant listing = %+v, want [acme default]", listing.Tenants)
	}
	if status, _ := get(t, ts, "/v1/tenants/acme"); status != http.StatusOK {
		t.Errorf("tenant detail status = %d", status)
	}
	if status, _ := get(t, ts, "/v1/tenants/nosuch/verdicts"); status != http.StatusNotFound {
		t.Errorf("unknown tenant status = %d, want 404", status)
	}
	if status, _ := get(t, ts, "/v1/tenants/NOT%20VALID/verdicts"); status != http.StatusBadRequest {
		t.Errorf("invalid tenant id status = %d, want 400", status)
	}

	// The unprefixed routes and the explicit default-tenant prefix serve
	// the same snapshot.
	_, direct := get(t, ts, "/v1/verdicts")
	_, prefixed := get(t, ts, "/v1/tenants/default/verdicts")
	if !bytes.Equal(direct, prefixed) {
		t.Errorf("default-tenant alias diverged:\n %s\n %s", direct, prefixed)
	}
	_ = srv
}

// TestTenantReplayIsolation: restarting a two-tenant daemon over its
// journals recovers each tenant's exact state independently.
func TestTenantReplayIsolation(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTwoTenantServer(t, dir, 0)
	if status, body := post(t, ts, "/v1/tenants/acme/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("acme apply: status %d: %s", status, body)
	}
	_, acmeBefore := get(t, ts, "/v1/tenants/acme/report")
	_, defBefore := get(t, ts, "/v1/report")

	_, ts2 := newTwoTenantServer(t, dir, 0)
	_, acmeAfter := get(t, ts2, "/v1/tenants/acme/report")
	_, defAfter := get(t, ts2, "/v1/report")
	if a, b := canonicalReport(t, acmeBefore), canonicalReport(t, acmeAfter); !bytes.Equal(a, b) {
		t.Errorf("acme replay diverged:\n live   %s\n replay %s", a, b)
	}
	if a, b := canonicalReport(t, defBefore), canonicalReport(t, defAfter); !bytes.Equal(a, b) {
		t.Errorf("default replay diverged:\n live   %s\n replay %s", a, b)
	}
}
