package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// pipelineCounters returns the registry snapshot restricted to the
// deterministic pipeline metrics: serving-layer series (prefix
// realconfig_server_) vary between an original run and its replay
// (journal appends, queue gauges, uptime), Go runtime series (prefix
// go_) track the process rather than the pipeline, and histograms are
// excluded by Snapshot() already because timings never replay
// identically.
func pipelineCounters(srv *Server) map[string]float64 {
	out := make(map[string]float64)
	for name, v := range srv.Metrics().Snapshot() {
		if strings.HasPrefix(name, "realconfig_server_") || strings.HasPrefix(name, "go_") ||
			strings.HasPrefix(name, "realconfig_snap_") {
			continue
		}
		out[name] = v
	}
	return out
}

// canonicalReport re-marshals a /v1/report body with the timing block
// removed: everything else a verification reports (rule deltas, EC and
// pair counts, verdict flips) must replay exactly.
func canonicalReport(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad report body %s: %v", body, err)
	}
	if rep, ok := m["report"].(map[string]any); ok {
		delete(rep, "timing")
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJournalReplayGolden: a daemon restarted over its journal must
// converge to the same observable state — byte-identical /v1/report
// (timings excluded) and identical pipeline counter values, because
// replay drives the same changes through the same instrumented stages.
func TestJournalReplayGolden(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "changes.journal")
	srvA, tsA := newCampusServer(t, journal)

	writes := []struct{ path, body string }{
		{"/v1/policies", `{"add":["reach golden-probe edge2 isp 203.0.113.0/24 some"]}`},
		{"/v1/policies", `{"remove":["golden-probe"]}`},
		{"/v1/changes", shutdownBorderUplink},
		{"/v1/changes", `{"changes":[{"kind":"add_static_route","Device":"core1","Route":{"Prefix":"10.99.0.0/24","NextHop":"0.0.0.0","Drop":true}}]}`},
	}
	for _, w := range writes {
		if status, body := post(t, tsA, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	_, reportA := get(t, tsA, "/v1/report")
	countersA := pipelineCounters(srvA)

	srvB, tsB := newCampusServer(t, journal)
	_, reportB := get(t, tsB, "/v1/report")
	countersB := pipelineCounters(srvB)

	if a, b := canonicalReport(t, reportA), canonicalReport(t, reportB); !bytes.Equal(a, b) {
		t.Errorf("replayed report diverged:\n live   %s\n replay %s", a, b)
	}
	if len(countersB) != len(countersA) {
		t.Errorf("replay registered %d pipeline series, original %d", len(countersB), len(countersA))
	}
	for name, va := range countersA {
		if vb, ok := countersB[name]; !ok {
			t.Errorf("replay missing series %s", name)
		} else if va != vb {
			t.Errorf("%s: original %v, replay %v", name, va, vb)
		}
	}
	// Both daemons replayed/applied the same four writes after one load.
	if v := countersA["realconfig_verifications_total"]; v != 3 { // load + 2 change batches
		t.Errorf("verifications_total = %v, want 3 (load + two change batches)", v)
	}
}

// TestMetricsRaceStress hammers /v1/verdicts and /v1/metrics from
// concurrent readers while a writer flaps an interface through
// /v1/changes. Under -race this proves the registry and the snapshot
// pointer tolerate scrapes mid-apply; the assertions prove no reader
// ever sees counters move backwards or a torn snapshot.
func TestMetricsRaceStress(t *testing.T) {
	_, ts := newCampusServer(t, "")
	const readers = 3
	stop := make(chan struct{})
	errs := make(chan error, 2*readers)
	var wg sync.WaitGroup

	// Metric readers: verification and apply counters are monotone.
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastVerif, lastApplies := -1.0, -1.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				m, err := scrapeMetrics(ts.URL + "/v1/metrics")
				if err != nil {
					errs <- err
					return
				}
				verif, applies := m["realconfig_verifications_total"], m["realconfig_server_applies_total"]
				if verif < lastVerif || applies < lastApplies {
					errs <- fmt.Errorf("counters went backwards: verifications %v->%v applies %v->%v",
						lastVerif, verif, lastApplies, applies)
					return
				}
				lastVerif, lastApplies = verif, applies
			}
		}()
	}
	// Snapshot readers: every scrape sees a complete sorted verdict set
	// and a monotone sequence number.
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
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
					errs <- fmt.Errorf("torn snapshot: %d verdicts at seq %d", len(vr.Verdicts), vr.Seq)
					return
				}
				if vr.Seq < lastSeq {
					errs <- fmt.Errorf("seq went backwards: %d -> %d", lastSeq, vr.Seq)
					return
				}
				lastSeq = vr.Seq
			}
		}()
	}

	var applied atomic.Uint64
	for flap := 0; flap < 10; flap++ {
		down := flap%2 == 0
		body := fmt.Sprintf(`{"changes":[{"kind":"shutdown_interface","device":"core1","intf":"eth2","shutdown":%v}]}`, down)
		if status, out := post(t, ts, "/v1/changes", body); status != http.StatusOK {
			t.Fatalf("flap %d: status %d: %s", flap, status, out)
		}
		applied.Add(1)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// End state: exactly the writes we made, each verified once.
	m, err := scrapeMetrics(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if got := m["realconfig_server_applies_total"]; got != float64(applied.Load()) {
		t.Errorf("applies_total = %v, want %d", got, applied.Load())
	}
	if got := m["realconfig_verifications_total"]; got != float64(applied.Load()+1) {
		t.Errorf("verifications_total = %v, want %d (load + applies)", got, applied.Load()+1)
	}
}

// scrapeMetrics fetches and parses /v1/metrics without testing.T, so
// reader goroutines can report failures over a channel instead of
// calling Fatal off the test goroutine.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndex(line, " ")
		if i < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// TestEveryWriteKindReplaysAndReplicates: each kind of live write — a
// change batch, one policies request that both removes and adds, and a
// plan's audit record — goes through the one write door, so a restart
// over the journal and a follower started from seq 0 reach the leader's
// exact state: the same report (timing excluded), verdicts and seq, and
// the follower's journal holds the leader's bytes.
func TestEveryWriteKindReplaysAndReplicates(t *testing.T) {
	leaderJournal := filepath.Join(t.TempDir(), "leader.journal")
	srvL, tsL := newCampusServer(t, leaderJournal)
	writes := []struct{ path, body string }{
		{"/v1/changes", shutdownBorderUplink},
		{"/v1/policies", `{"remove":["isp-web-in"],"add":["reach golden-probe edge2 isp 203.0.113.0/24 some","reach isp-web-in isp edge1 10.10.1.0/24 some tcp 80"]}`},
		{"/v1/plan", `{"changes":[{"kind":"add_static_route","Device":"core1","Route":{"Prefix":"10.99.0.0/24","NextHop":"0.0.0.0","Drop":true}}]}`},
	}
	for _, w := range writes {
		status, body := post(t, tsL, w.path, w.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
		if w.path == "/v1/plan" && !bytes.Contains(body, []byte(`"planned":true`)) {
			t.Fatalf("plan found no ordering, so wrote no audit record: %s", body)
		}
	}
	want := srvL.Snapshot().Seq
	if want != 5 { // one batch, one removal, two additions, one plan record
		t.Fatalf("leader seq = %d, want 5", want)
	}
	leaderBytes, err := os.ReadFile(leaderJournal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(leaderBytes, []byte(`"op":"plan"`)) {
		t.Fatalf("leader journal holds no plan record:\n%s", leaderBytes)
	}
	_, reportL := get(t, tsL, "/v1/report")
	_, verdictsL := get(t, tsL, "/v1/verdicts")

	srvR, tsR := newCampusServer(t, leaderJournal)
	followerJournal := filepath.Join(t.TempDir(), "follower.journal")
	srvF, tsF := newReplicaServer(t, tsL.URL, followerJournal)
	replWait(t, "follower catch-up", func() bool { return srvF.Snapshot().Seq == want })

	for _, c := range []struct {
		name string
		srv  *Server
		ts   *httptest.Server
	}{{"restart", srvR, tsR}, {"follower", srvF, tsF}} {
		if got := c.srv.Snapshot().Seq; got != want {
			t.Errorf("%s: seq = %d, want %d", c.name, got, want)
		}
		_, report := get(t, c.ts, "/v1/report")
		if a, b := canonicalReport(t, reportL), canonicalReport(t, report); !bytes.Equal(a, b) {
			t.Errorf("%s: report diverged:\n leader %s\n %s %s", c.name, a, c.name, b)
		}
		if _, verdicts := get(t, c.ts, "/v1/verdicts"); !bytes.Equal(verdictsL, verdicts) {
			t.Errorf("%s: verdicts diverged:\n leader %s\n %s %s", c.name, verdictsL, c.name, verdicts)
		}
	}
	followerBytes, err := os.ReadFile(followerJournal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leaderBytes, followerBytes) {
		t.Errorf("follower journal differs from the leader's:\n leader   %s\n follower %s", leaderBytes, followerBytes)
	}
}
