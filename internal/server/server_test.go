package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
)

func campusConfig(t *testing.T) (base *netcfg.Network, policyText string) {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "campus")
	net, err := core.LoadNetworkDir(dir)
	if err != nil {
		t.Fatalf("loading campus fixture: %v", err)
	}
	text, err := os.ReadFile(filepath.Join(dir, "policies.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return net, string(text)
}

func newCampusServer(t *testing.T, journalPath string) (*Server, *httptest.Server) {
	t.Helper()
	net, policyText := campusConfig(t)
	srv, err := New(Config{
		Net:         net,
		PolicyText:  policyText,
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
	return srv, ts
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

const shutdownBorderUplink = `{"changes":[{"kind":"shutdown_interface","device":"border","intf":"eth2","shutdown":true}]}`

// verdictOf extracts one policy's satisfaction from a verdicts response.
func verdictOf(t *testing.T, body []byte, name string) bool {
	t.Helper()
	var vr verdictsResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatalf("bad verdicts body %s: %v", body, err)
	}
	for _, v := range vr.Verdicts {
		if v.Policy == name {
			return v.Satisfied
		}
	}
	t.Fatalf("no verdict for %q in %s", name, body)
	return false
}

// TestEndToEnd drives the full operator workflow the ISSUE describes:
// load the campus, trace a packet, run a what-if (which must not alter
// live state), manage policies at runtime, fail the ISP uplink via
// POST /v1/changes and watch the verdict flip, then restart from the
// journal and require byte-identical verdicts.
func TestEndToEnd(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "changes.journal")
	_, ts := newCampusServer(t, journal)

	// Initial state: six policies, all satisfied, seq 0.
	status, body := get(t, ts, "/v1/verdicts")
	if status != http.StatusOK {
		t.Fatalf("verdicts: status %d: %s", status, body)
	}
	var vr verdictsResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Seq != 0 || len(vr.Verdicts) != 6 {
		t.Fatalf("initial verdicts: seq=%d n=%d", vr.Seq, len(vr.Verdicts))
	}
	for _, v := range vr.Verdicts {
		if !v.Satisfied {
			t.Errorf("policy %s violated on the golden network", v.Policy)
		}
	}
	baselineVerdicts := body

	// Trace: web traffic from the ISP is delivered at edge1.
	status, body = get(t, ts, "/v1/trace?src=isp&dst=10.10.1.5&proto=tcp&port=80")
	if status != http.StatusOK {
		t.Fatalf("trace: status %d: %s", status, body)
	}
	var tr traceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Outcome != "delivered" || tr.At != "edge1" || len(tr.Hops) != 4 {
		t.Fatalf("trace: %s", body)
	}

	// What-if: failing the ISP uplink would violate campus-to-isp...
	status, body = post(t, ts, "/v1/whatif", shutdownBorderUplink)
	if status != http.StatusOK {
		t.Fatalf("whatif: status %d: %s", status, body)
	}
	var wr applyResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if !wr.WhatIf {
		t.Error("whatif response not marked whatIf")
	}
	sawViolated := false
	for _, v := range wr.Verdicts {
		if v.Policy == "campus-to-isp" && !v.Satisfied {
			sawViolated = true
		}
	}
	if !sawViolated {
		t.Fatalf("whatif did not predict campus-to-isp violation: %s", body)
	}
	// ...but live state is untouched, byte for byte.
	if _, after := get(t, ts, "/v1/verdicts"); !bytes.Equal(after, baselineVerdicts) {
		t.Fatalf("whatif mutated live verdicts:\n before %s\n after  %s", baselineVerdicts, after)
	}

	// Runtime policy add and remove, both journaled.
	status, body = post(t, ts, "/v1/policies", `{"add":["reach tmp-probe edge2 isp 203.0.113.0/24 some"]}`)
	if status != http.StatusOK {
		t.Fatalf("policy add: status %d: %s", status, body)
	}
	_, body = get(t, ts, "/v1/verdicts")
	if !verdictOf(t, body, "tmp-probe") {
		t.Fatalf("tmp-probe should hold on the intact network: %s", body)
	}
	if status, body = post(t, ts, "/v1/policies", `{"remove":["tmp-probe"]}`); status != http.StatusOK {
		t.Fatalf("policy remove: status %d: %s", status, body)
	}

	// Apply the uplink failure for real: the verdict flips.
	status, body = post(t, ts, "/v1/changes", shutdownBorderUplink)
	if status != http.StatusOK {
		t.Fatalf("changes: status %d: %s", status, body)
	}
	var ar applyResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Seq != 3 { // policy add + policy remove + change batch
		t.Errorf("seq after three writes = %d", ar.Seq)
	}
	if ar.Report == nil || len(ar.Report.Violated) == 0 {
		t.Fatalf("apply report missing violations: %s", body)
	}
	_, body = get(t, ts, "/v1/verdicts")
	if verdictOf(t, body, "campus-to-isp") {
		t.Fatalf("campus-to-isp still satisfied after uplink failure: %s", body)
	}
	finalVerdicts := body

	// Report endpoint reflects the applied change.
	if status, body = get(t, ts, "/v1/report"); status != http.StatusOK {
		t.Fatalf("report: status %d: %s", status, body)
	} else if !strings.Contains(string(body), "campus-to-isp") {
		t.Fatalf("report does not mention the violation: %s", body)
	}

	// Restart: a fresh daemon over the same base snapshot replays the
	// journal and must serve byte-identical verdicts.
	_, ts2 := newCampusServer(t, journal)
	if _, body2 := get(t, ts2, "/v1/verdicts"); !bytes.Equal(body2, finalVerdicts) {
		t.Fatalf("journal replay diverged:\n live    %s\n replay  %s", finalVerdicts, body2)
	}
}

// TestConcurrentReadersDuringApply hammers the lock-free read endpoints
// while the writer applies a stream of link flaps. Under -race this
// proves readers never block behind, or tear, an in-progress apply:
// every observed snapshot is complete (all six verdicts, sorted).
func TestConcurrentReadersDuringApply(t *testing.T) {
	_, ts := newCampusServer(t, "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/verdicts")
				if err != nil {
					errs <- err
					return
				}
				var vr verdictsResponse
				err = json.NewDecoder(resp.Body).Decode(&vr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if len(vr.Verdicts) != 6 {
					errs <- fmt.Errorf("torn snapshot: %d verdicts", len(vr.Verdicts))
					return
				}
				for j := 1; j < len(vr.Verdicts); j++ {
					if vr.Verdicts[j-1].Policy >= vr.Verdicts[j].Policy {
						errs <- fmt.Errorf("verdicts unsorted: %v", vr.Verdicts)
						return
					}
				}
			}
		}()
	}
	for flap := 0; flap < 6; flap++ {
		down := flap%2 == 0
		body := fmt.Sprintf(`{"changes":[{"kind":"shutdown_interface","device":"core1","intf":"eth2","shutdown":%v}]}`, down)
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

// TestQueueBackpressure: a full apply queue rejects writes fast with
// errQueueFull (503) instead of queueing without bound.
func TestQueueBackpressure(t *testing.T) {
	net, policyText := campusConfig(t)
	srv, err := New(Config{Net: net, PolicyText: policyText, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Occupy the worker with a job that blocks until released.
	release := make(chan struct{})
	running := make(chan struct{})
	go srv.def.do(context.Background(), func() (any, error) {
		close(running)
		<-release
		return nil, nil
	})
	<-running
	// Fill the depth-1 queue with a pre-cancelled job: do enqueues it,
	// then returns on the dead context while the entry keeps its slot.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.def.do(cctx, func() (any, error) { return nil, nil }); err != context.Canceled {
		t.Fatalf("pre-cancelled job: err = %v", err)
	}
	// The next submission must fail fast instead of queueing.
	if _, err := srv.def.do(context.Background(), func() (any, error) { return nil, nil }); err != errQueueFull {
		t.Fatalf("overflow submission: err = %v, want errQueueFull", err)
	}
	close(release)
}

// TestErrorMapping: API failures map to distinct, correct status codes.
func TestErrorMapping(t *testing.T) {
	srv, ts := newCampusServer(t, "")
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/changes", `{"changes":[{"kind":"shutdown_interface","device":"ghost","intf":"x"}]}`, http.StatusUnprocessableEntity},
		{"POST", "/v1/changes", `{"changes":[{"kind":"reboot"}]}`, http.StatusBadRequest},
		{"POST", "/v1/changes", `{"changes":[]}`, http.StatusBadRequest},
		{"POST", "/v1/changes", `not json`, http.StatusBadRequest},
		{"POST", "/v1/policies", `{"remove":["nope"]}`, http.StatusUnprocessableEntity},
		{"POST", "/v1/policies", `{"add":["reach edge1-edge2 edge1 edge2 10.10.2.0/24 all"]}`, http.StatusUnprocessableEntity},
		{"POST", "/v1/policies", `{"remove":["no-loops","no-loops"]}`, http.StatusUnprocessableEntity},
		{"POST", "/v1/policies", `{"add":["loopfree twice any","loopfree twice any"]}`, http.StatusUnprocessableEntity},
		{"POST", "/v1/policies", `{}`, http.StatusBadRequest},
		{"GET", "/v1/trace", "", http.StatusBadRequest},
		{"GET", "/v1/trace?src=ghost&dst=10.10.1.5", "", http.StatusUnprocessableEntity},
		{"GET", "/v1/trace?src=isp&dst=10.10.1.5&port=99999", "", http.StatusBadRequest},
		{"POST", "/v1/verdicts", "", http.StatusMethodNotAllowed},
		{"GET", "/v1/changes", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		var status int
		var body []byte
		if c.method == "GET" {
			status, body = get(t, ts, c.path)
		} else {
			status, body = post(t, ts, c.path, c.body)
		}
		if status != c.want {
			t.Errorf("%s %s: status %d (want %d): %s", c.method, c.path, status, c.want, body)
		}
	}
	// A rejected write is rejected whole: nothing moved.
	if snap := srv.Snapshot(); snap.Seq != 0 || snap.Policies != 6 {
		t.Errorf("after rejected writes: seq %d, %d policies; want 0 and 6", snap.Seq, snap.Policies)
	}
}

// TestApplyErrorLeavesStateAndJournalClean: a failed apply neither
// changes live verdicts nor appends to the journal, so a restart
// replays only successful writes.
func TestApplyErrorLeavesStateAndJournalClean(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j")
	_, ts := newCampusServer(t, journal)
	_, before := get(t, ts, "/v1/verdicts")
	if status, _ := post(t, ts, "/v1/changes", `{"changes":[{"kind":"shutdown_interface","device":"ghost","intf":"x"}]}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d", status)
	}
	if _, after := get(t, ts, "/v1/verdicts"); !bytes.Equal(before, after) {
		t.Fatal("failed apply changed verdicts")
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("failed apply was journaled: %s", data)
	}
}

// TestHealthz sanity-checks the liveness payload.
func TestHealthz(t *testing.T) {
	_, ts := newCampusServer(t, "")
	status, body := get(t, ts, "/v1/healthz")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["ok"] != true || h["devices"] != float64(6) || h["policies"] != float64(6) {
		t.Fatalf("healthz: %s", body)
	}
}

// TestJournalCorruptionRejected: a garbled record in the middle of the
// journal fails startup loudly instead of silently recovering partial
// state. (A garbled *final* record is different — that is the
// crash-torn-tail case, recovered by truncation; see journal tests.)
func TestJournalCorruptionRejected(t *testing.T) {
	net, policyText := campusConfig(t)
	path := filepath.Join(t.TempDir(), "j")
	corrupt := "{\"op\":\"changes\"\n" + `{"op":"policies","policyText":""}` + "\n"
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Net: net, PolicyText: policyText, JournalPath: path})
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("corrupt journal: got %v", err)
	}
}
