package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"realconfig/internal/core"
	"realconfig/internal/topology"
)

// ringFixture builds a small OSPF ring whose ACL workload stays inside
// the atom backend's dst-only filter fragment, with a policy suite
// whose verdicts both backends must agree on.
func ringFixture(t *testing.T) (*topology.Net, string) {
	t.Helper()
	net, err := topology.Ring(5, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	policyText := `
reach ring-0-2 r00 r02 10.0.2.0/24 all
reach ring-3-1 r03 r01 10.0.1.0/24 all
reach ring-none r01 r04 10.0.9.0/24 none
loopfree no-loops any
blackholefree no-blackholes 10.0.0.0/16
`
	return net, policyText
}

// newBackendServer starts a ring-fixture server on the given model
// backend and journal path.
func newBackendServer(t *testing.T, journal, backend string) (*Server, *httptest.Server) {
	t.Helper()
	net, policyText := ringFixture(t)
	srv, err := New(Config{
		Net:         net.Network.Clone(),
		PolicyText:  policyText,
		Options:     core.Options{DetectOscillation: true, Backend: backend},
		JournalPath: journal,
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

// backendWrites drives one fixed write sequence: policy churn, a link
// flap, a static drop route, and a dst-only ACL bind/unbind.
func backendWrites(t *testing.T, ts *httptest.Server, net *topology.Net) {
	t.Helper()
	link := net.Topology.Links[0]
	writes := []struct{ path, body string }{
		{"/v1/policies", `{"add":["reach probe r00 r03 10.0.3.0/24 some"]}`},
		{"/v1/policies", `{"remove":["probe"]}`},
		{"/v1/changes", fmt.Sprintf(`{"changes":[{"kind":"shutdown_interface","device":%q,"intf":%q,"shutdown":true}]}`, link.DevA, link.IntfA)},
		{"/v1/changes", `{"changes":[{"kind":"add_static_route","Device":"r02","Route":{"Prefix":"10.9.0.0/24","NextHop":"0.0.0.0","Drop":true}}]}`},
		{"/v1/changes", `{"changes":[
			{"kind":"set_acl","Device":"r01","Name":"guard","Lines":[{"Seq":10,"Action":"deny","Proto":"ip","Src":"0.0.0.0/0","Dst":"10.0.3.0/24"},{"Seq":20,"Action":"permit","Proto":"ip","Src":"0.0.0.0/0","Dst":"0.0.0.0/0"}]},
			{"kind":"bind_acl","Device":"r01","Intf":"eth0","Name":"guard","In":true}]}`},
		{"/v1/changes", fmt.Sprintf(`{"changes":[{"kind":"shutdown_interface","device":%q,"intf":%q,"shutdown":false}]}`, link.DevA, link.IntfA)},
	}
	for _, w := range writes {
		if status, body := post(t, ts, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
}

// backendNeutralReport strips the report fields whose values are
// relative to the model backend's EC partition (atom never merges, so
// EC and per-EC-derived counts legitimately differ) plus timing and
// trace identity, leaving the verdict-bearing surface both backends
// must agree on byte-for-byte.
func backendNeutralReport(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad report body %s: %v", body, err)
	}
	if rep, ok := m["report"].(map[string]any); ok {
		for _, k := range []string{"affectedECs", "affectedPairs", "policiesChecked", "timing", "traceId"} {
			delete(rep, k)
		}
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// backendNeutralCounters restricts a metrics snapshot to series whose
// values do not depend on the EC partition: verification and rule/filter
// ingestion counts and the dataflow engine's counters. EC-relative
// series (apkeep_*, atom_*, policy_*) are excluded by construction.
var backendNeutralSeries = []string{
	"realconfig_verifications_total",
	"realconfig_rules_inserted_total",
	"realconfig_rules_deleted_total",
	"realconfig_filter_changes_total",
	"realconfig_dd_entries_total",
	"realconfig_dd_epochs_total",
	"realconfig_dd_node_runs_total",
}

func backendNeutralCounters(srv *Server) map[string]float64 {
	snap := srv.Metrics().Snapshot()
	out := make(map[string]float64, len(backendNeutralSeries))
	for _, name := range backendNeutralSeries {
		out[name] = snap[name]
	}
	return out
}

// TestBackendGoldenParity records a journal under the bdd backend, then
// replays it under the atom backend. The replay must (a) byte-match a
// live atom run of the same writes on the full canonical report, and
// (b) byte-match the recorded bdd run on the backend-neutral report
// surface and counter values. The journal .meta sidecar must track the
// backend each daemon ran.
func TestBackendGoldenParity(t *testing.T) {
	net, _ := ringFixture(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "changes.journal")

	// Live bdd run, recording the journal.
	srvBDD, tsBDD := newBackendServer(t, journal, core.BackendBDD)
	backendWrites(t, tsBDD, net)
	_, reportBDD := get(t, tsBDD, "/v1/report")
	countersBDD := backendNeutralCounters(srvBDD)
	if meta, ok, err := readMetaFile(metaPath(journal)); err != nil || !ok || meta.Backend != core.BackendBDD {
		t.Fatalf("meta after bdd run = %+v, %v, %v", meta, ok, err)
	}

	// Replay the bdd-recorded journal under the atom backend: journal
	// entries are backend-neutral changes, so this must succeed and the
	// sidecar must be restamped.
	srvReplay, tsReplay := newBackendServer(t, journal, core.BackendAtom)
	_, reportReplay := get(t, tsReplay, "/v1/report")
	countersReplay := backendNeutralCounters(srvReplay)
	if meta, ok, err := readMetaFile(metaPath(journal)); err != nil || !ok || meta.Backend != core.BackendAtom {
		t.Fatalf("meta after atom replay = %+v, %v, %v", meta, ok, err)
	}

	// Live atom run of the same writes on a fresh journal.
	srvAtom, tsAtom := newBackendServer(t, filepath.Join(dir, "atom.journal"), core.BackendAtom)
	backendWrites(t, tsAtom, net)
	_, reportAtom := get(t, tsAtom, "/v1/report")
	countersAtom := backendNeutralCounters(srvAtom)

	// (a) Atom replay == atom live: full canonical parity (timing only
	// excluded — EC counts, pair counts, verdicts all replay exactly).
	if a, b := canonicalReport(t, reportReplay), canonicalReport(t, reportAtom); !bytes.Equal(a, b) {
		t.Errorf("atom replay diverged from atom live:\n replay %s\n live   %s", a, b)
	}

	// (b) Atom vs bdd: backend-neutral surfaces are byte-identical.
	if a, b := backendNeutralReport(t, reportReplay), backendNeutralReport(t, reportBDD); !bytes.Equal(a, b) {
		t.Errorf("atom replay diverged from recorded bdd run:\n atom %s\n bdd  %s", a, b)
	}
	for _, name := range backendNeutralSeries {
		if countersReplay[name] != countersBDD[name] {
			t.Errorf("%s: atom replay %v, bdd %v", name, countersReplay[name], countersBDD[name])
		}
		if countersAtom[name] != countersBDD[name] {
			t.Errorf("%s: atom live %v, bdd %v", name, countersAtom[name], countersBDD[name])
		}
	}
}

// TestBackendMetaSidecar exercises the .meta read/write primitives:
// absent file, round-trip, and rejection of corrupt contents.
func TestBackendMetaSidecar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal.meta")
	if _, ok, err := readMetaFile(path); ok || err != nil {
		t.Fatalf("absent meta = ok=%v err=%v", ok, err)
	}
	if err := writeMetaFile(path, journalMeta{Backend: "atom"}); err != nil {
		t.Fatal(err)
	}
	if meta, ok, err := readMetaFile(path); err != nil || !ok || meta.Backend != "atom" {
		t.Fatalf("round-trip = %+v, %v, %v", meta, ok, err)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readMetaFile(path); err == nil {
		t.Error("corrupt meta accepted")
	}
	if err := os.WriteFile(path, []byte(`{"backend":""}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readMetaFile(path); err == nil {
		t.Error("empty backend accepted")
	}
}

// TestTenantBackendSelection covers the per-tenant backend override:
// a valid atom tenant runs alongside the bdd default, an unknown
// backend name fails startup, and an atom default runs alongside a
// journaled bdd tenant.
func TestTenantBackendSelection(t *testing.T) {
	net, policyText := ringFixture(t)
	srv, err := New(Config{
		Net:        net.Network.Clone(),
		PolicyText: policyText,
		Options:    core.Options{DetectOscillation: true},
		Tenants: []TenantConfig{{
			ID:         "fastlane",
			Net:        net.Network.Clone(),
			PolicyText: policyText,
			Backend:    core.BackendAtom,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, body := get(t, ts, "/v1/tenants/fastlane/verdicts")
	if status != http.StatusOK {
		t.Fatalf("atom tenant verdicts: status %d: %s", status, body)
	}

	if _, err := New(Config{
		Net: net.Network.Clone(),
		Tenants: []TenantConfig{{
			ID: "bad", Net: net.Network.Clone(), Backend: "quantum",
		}},
	}); err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Errorf("unknown tenant backend accepted: %v", err)
	}

	// The reverse: an atom default tenant starts next to a journaled bdd
	// tenant, and both reach the same verdicts.
	dir := t.TempDir()
	mixed, err := New(Config{
		Net:         net.Network.Clone(),
		PolicyText:  policyText,
		Options:     core.Options{DetectOscillation: true, Backend: core.BackendAtom},
		JournalPath: filepath.Join(dir, "default.journal"),
		Tenants: []TenantConfig{{
			ID:          "classic",
			Net:         net.Network.Clone(),
			PolicyText:  policyText,
			JournalPath: filepath.Join(dir, "classic.journal"),
			Backend:     core.BackendBDD,
		}},
	})
	if err != nil {
		t.Fatalf("atom tenant beside a bdd tenant: %v", err)
	}
	defer mixed.Close()
	tsMixed := httptest.NewServer(mixed.Handler())
	defer tsMixed.Close()
	_, atomBody := get(t, tsMixed, "/v1/verdicts")
	_, bddBody := get(t, tsMixed, "/v1/tenants/classic/verdicts")
	var atomVR, bddVR verdictsResponse
	if err := json.Unmarshal(atomBody, &atomVR); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bddBody, &bddVR); err != nil {
		t.Fatal(err)
	}
	if len(atomVR.Verdicts) == 0 || !reflect.DeepEqual(atomVR.Verdicts, bddVR.Verdicts) {
		t.Errorf("atom default verdicts %+v, bdd tenant %+v", atomVR.Verdicts, bddVR.Verdicts)
	}
}

// TestAtomBackendWhatIfRaceStress hammers /v1/whatif (which forks a
// fresh atom verifier per request) from concurrent goroutines while a
// writer applies real changes. Under -race this proves the atom
// backend's fork path shares no mutable state with the live verifier.
func TestAtomBackendWhatIfRaceStress(t *testing.T) {
	net, _ := ringFixture(t)
	_, ts := newBackendServer(t, "", core.BackendAtom)
	link := net.Topology.Links[1]
	whatif := fmt.Sprintf(`{"changes":[{"kind":"shutdown_interface","device":%q,"intf":%q,"shutdown":true}]}`, link.DevB, link.IntfB)

	const readers = 4
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/whatif", "application/json", strings.NewReader(whatif))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("whatif status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	flapLink := net.Topology.Links[0]
	for flap := 0; flap < 8; flap++ {
		body := fmt.Sprintf(`{"changes":[{"kind":"shutdown_interface","device":%q,"intf":%q,"shutdown":%v}]}`,
			flapLink.DevA, flapLink.IntfA, flap%2 == 0)
		if status, out := post(t, ts, "/v1/changes", body); status != http.StatusOK {
			t.Fatalf("flap %d: status %d: %s", flap, status, out)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
