package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"realconfig/internal/core"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// newTracedServer builds a campus daemon with an 8-deep provenance ring
// and, when deterministic is set, a counter clock so trace exports are
// byte-stable across runs.
func newTracedServer(t *testing.T, deterministic bool) (*Server, *httptest.Server) {
	t.Helper()
	net, policyText := campusConfig(t)
	srv, err := New(Config{
		Net:        net,
		PolicyText: policyText,
		Options:    core.Options{TraceApplies: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if deterministic {
		var tick int64
		srv.Recorder().SetClock(func() int64 { tick++; return tick })
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// fixedScenario is the golden 3-change sequence: fail the ISP uplink
// (verdict flips), restore it (flips back), then add a drop route.
var fixedScenario = []string{
	shutdownBorderUplink,
	`{"changes":[{"kind":"shutdown_interface","device":"border","intf":"eth2","shutdown":false}]}`,
	`{"changes":[{"kind":"add_static_route","Device":"core1","Route":{"Prefix":"10.99.0.0/24","NextHop":"0.0.0.0","Drop":true}}]}`,
}

// runFixedScenario applies the 3 golden changes and returns each apply's
// trace id.
func runFixedScenario(t *testing.T, ts *httptest.Server) []uint64 {
	t.Helper()
	var ids []uint64
	for i, body := range fixedScenario {
		status, out := post(t, ts, "/v1/changes", body)
		if status != http.StatusOK {
			t.Fatalf("change %d: status %d: %s", i, status, out)
		}
		var ar applyResponse
		if err := json.Unmarshal(out, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.Report == nil || ar.Report.TraceID == 0 {
			t.Fatalf("change %d: apply response carries no trace id: %s", i, out)
		}
		ids = append(ids, ar.Report.TraceID)
	}
	return ids
}

// chromeExport fetches one apply's Chrome trace-event export.
func chromeExport(t *testing.T, ts *httptest.Server, id uint64) []byte {
	t.Helper()
	status, body := get(t, ts, fmt.Sprintf("/v1/applies/%d/trace?format=chrome", id))
	if status != http.StatusOK {
		t.Fatalf("chrome export of apply %d: status %d: %s", id, status, body)
	}
	return body
}

// TestChromeTraceGolden: the Chrome trace export of a fixed 3-change
// scenario under a deterministic clock is byte-stable across daemon
// instances, and structurally valid trace-event JSON.
func TestChromeTraceGolden(t *testing.T) {
	_, tsA := newTracedServer(t, true)
	idsA := runFixedScenario(t, tsA)
	_, tsB := newTracedServer(t, true)
	idsB := runFixedScenario(t, tsB)

	for i := range idsA {
		a, b := chromeExport(t, tsA, idsA[i]), chromeExport(t, tsB, idsB[i])
		if !bytes.Equal(a, b) {
			t.Errorf("change %d: chrome export not byte-stable:\n run A %s\n run B %s", i, a, b)
		}
	}

	// Structural validity of the flip apply's export.
	var file struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			PID  uint64         `json:"pid"`
			TID  int            `json:"tid"`
			TS   *int64         `json:"ts"`
			Dur  *int64         `json:"dur"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	flip := chromeExport(t, tsA, idsA[0])
	if err := json.Unmarshal(flip, &file); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, flip)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	kinds := map[string]int{}
	for _, ev := range file.TraceEvents {
		kinds[ev.Ph]++
		switch ev.Ph {
		case "X":
			if ev.TS == nil || ev.Dur == nil || ev.TID == 0 {
				t.Errorf("span event missing ts/dur/tid: %+v", ev)
			}
		case "i":
			if ev.S != "t" || ev.TS == nil {
				t.Errorf("instant event malformed: %+v", ev)
			}
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				t.Errorf("unexpected metadata event %q", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.PID != idsA[0] {
			t.Errorf("event pid %d, want apply id %d", ev.PID, idsA[0])
		}
	}
	if kinds["X"] == 0 || kinds["i"] == 0 || kinds["M"] == 0 {
		t.Fatalf("export missing spans, instants or metadata: %v", kinds)
	}
	// The flip apply must record the causal chain end to end.
	for _, want := range []string{"config_change", "ec_transfer", "policy_recheck", obs.StageModelUpdate} {
		if !strings.Contains(string(flip), want) {
			t.Errorf("chrome export missing %q:\n%s", want, flip)
		}
	}
}

// TestAppliesEndpoints covers the ring index, id lookup, "latest", the
// JSON format, and the error paths.
func TestAppliesEndpoints(t *testing.T) {
	_, ts := newTracedServer(t, false)
	ids := runFixedScenario(t, ts)

	status, body := get(t, ts, "/v1/applies")
	if status != http.StatusOK {
		t.Fatalf("applies: status %d: %s", status, body)
	}
	var index struct{ Applies []trace.Summary }
	if err := json.Unmarshal(body, &index); err != nil {
		t.Fatal(err)
	}
	// load + 3 applies, newest first.
	if len(index.Applies) != 4 {
		t.Fatalf("applies index has %d entries, want 4: %s", len(index.Applies), body)
	}
	if index.Applies[0].ID != ids[2] || index.Applies[0].Label != "apply" {
		t.Fatalf("newest entry %+v, want apply %d", index.Applies[0], ids[2])
	}
	if last := index.Applies[3]; last.Label != "load" {
		t.Fatalf("oldest entry should be the load, got %+v", last)
	}
	// Applies triggered over HTTP carry the request id of their POST.
	if index.Applies[0].ReqID == "" {
		t.Error("apply trace missing the originating req_id")
	}

	var full trace.Apply
	if status, body = get(t, ts, fmt.Sprintf("/v1/applies/%d/trace", ids[0])); status != http.StatusOK {
		t.Fatalf("trace by id: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.ID != ids[0] || len(full.Spans) == 0 || len(full.Events) == 0 {
		t.Fatalf("trace by id: %s", body)
	}
	if status, body = get(t, ts, "/v1/applies/latest/trace"); status != http.StatusOK {
		t.Fatalf("latest trace: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.ID != ids[2] {
		t.Fatalf("latest trace is apply %d, want %d", full.ID, ids[2])
	}

	if status, _ = get(t, ts, "/v1/applies/9999/trace"); status != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", status)
	}
	if status, _ = get(t, ts, "/v1/applies/bogus/trace"); status != http.StatusBadRequest {
		t.Errorf("bad id: status %d, want 400", status)
	}
	if status, _ = get(t, ts, fmt.Sprintf("/v1/applies/%d/trace?format=svg", ids[0])); status != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", status)
	}

	// Tracing disabled: both endpoints 404 with a pointed error.
	_, tsOff := newCampusServer(t, "")
	if status, body = get(t, tsOff, "/v1/applies"); status != http.StatusNotFound || !strings.Contains(string(body), "tracing disabled") {
		t.Errorf("applies with tracing off: status %d: %s", status, body)
	}
	if status, _ = get(t, tsOff, "/v1/applies/latest/trace"); status != http.StatusNotFound {
		t.Errorf("trace with tracing off: status %d, want 404", status)
	}
}

// TestReqIDPropagation: the middleware assigns an X-Request-Id, and the
// same id lands in error response bodies.
func TestReqIDPropagation(t *testing.T) {
	_, ts := newTracedServer(t, false)
	resp, err := http.Post(ts.URL+"/v1/changes", "application/json", strings.NewReader(`{"changes":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	hdr := resp.Header.Get("X-Request-Id")
	if hdr == "" {
		t.Fatal("no X-Request-Id header")
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.ReqID != hdr {
		t.Fatalf("error body req_id %q, header %q", er.ReqID, hdr)
	}
}

// TestTraceScrapeRaceStress hammers the provenance endpoints from
// concurrent readers while a writer applies a stream of flaps. Under
// -race this proves finished traces are immutable and ring reads never
// tear against in-progress applies.
func TestTraceScrapeRaceStress(t *testing.T) {
	_, ts := newTracedServer(t, false)
	const readers = 3
	stop := make(chan struct{})
	errs := make(chan error, 2*readers)
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
				resp, err := http.Get(ts.URL + "/v1/applies")
				if err != nil {
					errs <- err
					return
				}
				var index struct{ Applies []trace.Summary }
				err = json.NewDecoder(resp.Body).Decode(&index)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				for j := 1; j < len(index.Applies); j++ {
					if index.Applies[j-1].ID <= index.Applies[j].ID {
						errs <- fmt.Errorf("ring index not newest-first: %+v", index.Applies)
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/applies/latest/trace?format=chrome")
				if err != nil {
					errs <- err
					return
				}
				var file map[string]any
				err = json.NewDecoder(resp.Body).Decode(&file)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if _, ok := file["traceEvents"]; !ok {
					errs <- fmt.Errorf("chrome export missing traceEvents: %v", file)
					return
				}
			}
		}()
	}
	for flap := 0; flap < 10; flap++ {
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
