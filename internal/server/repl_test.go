package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"realconfig/internal/core"
)

// newReplicaServer builds a campus read replica following the leader at
// leaderURL, with test-friendly reconnect timing.
func newReplicaServer(t *testing.T, leaderURL, journalPath string) (*Server, *httptest.Server) {
	t.Helper()
	net, policyText := campusConfig(t)
	srv, err := New(Config{
		Net:            net,
		PolicyText:     policyText,
		Options:        core.Options{},
		JournalPath:    journalPath,
		FollowURL:      leaderURL,
		ReplHeartbeat:  20 * time.Millisecond,
		ReplBackoff:    5 * time.Millisecond,
		ReplMaxBackoff: 50 * time.Millisecond,
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

// replWait polls until cond holds or the deadline passes.
func replWait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// replicaWrites is the leader write sequence the replication tests
// drive: policy churn plus change batches, sized so a 150-byte rotation
// threshold seals multiple segments (same idiom as the segment tests).
var replicaWrites = []struct{ path, body string }{
	{"/v1/policies", `{"add":["reach repl-probe edge2 isp 203.0.113.0/24 some"]}`},
	{"/v1/changes", shutdownBorderUplink},
	{"/v1/changes", `{"changes":[{"kind":"shutdown_interface","device":"border","intf":"eth2","shutdown":false}]}`},
	{"/v1/policies", `{"remove":["repl-probe"]}`},
	{"/v1/changes", `{"changes":[{"kind":"add_static_route","Device":"core1","Route":{"Prefix":"10.99.0.0/24","NextHop":"0.0.0.0","Drop":true}}]}`},
}

// TestFollowerParityGolden: a replica started from an empty directory
// catches up from the leader's rotated segment chain, tails live
// applies, and reproduces the leader's /v1/report byte-identically
// (timings excluded) — replication is replay, and replay is golden.
func TestFollowerParityGolden(t *testing.T) {
	leaderJournal := filepath.Join(t.TempDir(), "leader.journal")
	// 150-byte threshold: the catch-up backlog spans sealed segments.
	srvL, tsL := newSegmentedServer(t, leaderJournal, 150)
	for _, w := range replicaWrites {
		if status, body := post(t, tsL, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	if segs, _, err := journalSegments(leaderJournal); err != nil || len(segs) < 2 {
		t.Fatalf("want a rotated chain on the leader, got %d segments (err %v)", len(segs), err)
	}

	srvF, tsF := newReplicaServer(t, tsL.URL, filepath.Join(t.TempDir(), "replica.journal"))
	want := srvL.Snapshot().Seq
	replWait(t, "catch-up", func() bool { return srvF.Snapshot().Seq == want })

	_, reportL := get(t, tsL, "/v1/report")
	_, reportF := get(t, tsF, "/v1/report")
	if a, b := canonicalReport(t, reportL), canonicalReport(t, reportF); !bytes.Equal(a, b) {
		t.Errorf("replica report diverged after catch-up:\n leader  %s\n replica %s", a, b)
	}

	// Live tail: apply on the leader, the replica converges again.
	if status, body := post(t, tsL, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("live apply: status %d: %s", status, body)
	}
	want = srvL.Snapshot().Seq
	replWait(t, "live tail", func() bool { return srvF.Snapshot().Seq == want })
	_, reportL = get(t, tsL, "/v1/report")
	_, reportF = get(t, tsF, "/v1/report")
	if a, b := canonicalReport(t, reportL), canonicalReport(t, reportF); !bytes.Equal(a, b) {
		t.Errorf("replica report diverged after live tail:\n leader  %s\n replica %s", a, b)
	}
	// The pipeline did the same work on both sides. Replication-layer
	// series (realconfig_repl_) differ by construction: the leader
	// counts streams served, the replica counts entries received.
	cl, cf := pipelineCounters(srvL), pipelineCounters(srvF)
	for name, vl := range cl {
		if strings.HasPrefix(name, "realconfig_repl_") {
			continue
		}
		if vf, ok := cf[name]; !ok || vf != vl {
			t.Errorf("%s: leader %v, replica %v", name, vl, vf)
		}
	}
}

// TestReplicaRejectsWrites: every write endpoint on a replica answers
// 503 with a Leader hint; reads and speculative endpoints stay open.
func TestReplicaRejectsWrites(t *testing.T) {
	srvL, tsL := newCampusServer(t, filepath.Join(t.TempDir(), "leader.journal"))
	_, tsF := newReplicaServer(t, tsL.URL, "")
	_ = srvL

	for _, path := range []string{"/v1/changes", "/v1/policies", "/v1/plan"} {
		resp, err := http.Post(tsF.URL+path, "application/json", strings.NewReader(shutdownBorderUplink))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s on replica: status %d, want 503", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Leader"); got != tsL.URL {
			t.Errorf("POST %s on replica: Leader header %q, want %q", path, got, tsL.URL)
		}
	}
	// Reads and what-if remain local.
	if status, body := get(t, tsF, "/v1/verdicts"); status != http.StatusOK {
		t.Errorf("GET /v1/verdicts on replica: status %d: %s", status, body)
	}
	if status, body := post(t, tsF, "/v1/whatif", shutdownBorderUplink); status != http.StatusOK {
		t.Errorf("POST /v1/whatif on replica: status %d: %s", status, body)
	}
	// The leader still accepts writes, and the replica follows them.
	if status, body := post(t, tsL, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Errorf("POST /v1/changes on leader: status %d: %s", status, body)
	}
}

// TestReplicaHealthz: the healthz role flips to follower and reports
// replication position; the leader stays "leader".
func TestReplicaHealthz(t *testing.T) {
	srvL, tsL := newCampusServer(t, filepath.Join(t.TempDir(), "leader.journal"))
	if status, body := post(t, tsL, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("leader write: status %d: %s", status, body)
	}
	srvF, tsF := newReplicaServer(t, tsL.URL, "")
	replWait(t, "catch-up", func() bool { return srvF.Snapshot().Seq == srvL.Snapshot().Seq })

	_, body := get(t, tsL, "/v1/healthz")
	if !bytes.Contains(body, []byte(`"role":"leader"`)) {
		t.Errorf("leader healthz lacks role: %s", body)
	}
	_, body = get(t, tsF, "/v1/healthz")
	for _, want := range []string{`"role":"follower"`, `"leader":"` + tsL.URL + `"`, `"leaderSeq":1`, `"replLagSeq":0`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("replica healthz lacks %s: %s", want, body)
		}
	}
}

// TestReplicaRestartResumes: a replica restarted over its own journal
// recovers its sequence locally and asks the leader only for what it is
// missing — the acceptance criterion that already-applied entries are
// never re-fetched.
func TestReplicaRestartResumes(t *testing.T) {
	dir := t.TempDir()
	srvL, tsL := newCampusServer(t, filepath.Join(dir, "leader.journal"))
	for _, w := range replicaWrites[:3] {
		if status, body := post(t, tsL, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	replicaJournal := filepath.Join(dir, "replica.journal")
	srvF, tsF := newReplicaServer(t, tsL.URL, replicaJournal)
	replWait(t, "first sync", func() bool { return srvF.Snapshot().Seq == 3 })
	tsF.Close()
	srvF.Close()

	// Two more leader writes while the replica is down.
	for _, w := range replicaWrites[3:] {
		if status, body := post(t, tsL, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	srvF2, _ := newReplicaServer(t, tsL.URL, replicaJournal)
	// The applied-entries counter ticks just after the apply publishes
	// the new snapshot, so wait for the counter, not only the seq.
	replWait(t, "resume", func() bool {
		return srvF2.Snapshot().Seq == 5 &&
			srvF2.Metrics().Snapshot()["realconfig_repl_entries_applied_total"] >= 2
	})

	m := srvF2.Metrics().Snapshot()
	if got := m["realconfig_server_journal_replayed_total"]; got != 3 {
		t.Errorf("restart replayed %v entries locally, want 3", got)
	}
	if got := m["realconfig_repl_entries_applied_total"]; got != 2 {
		t.Errorf("restart streamed %v entries from the leader, want 2 (resume, not re-fetch)", got)
	}
	_, reportL := get(t, tsL, "/v1/report")
	snapF := srvF2.Snapshot()
	if snapF.Seq != srvL.Snapshot().Seq {
		t.Errorf("replica seq %d != leader %d", snapF.Seq, srvL.Snapshot().Seq)
	}
	_ = reportL
}

// TestJournalStreamRequiresJournal: a leader without a journal cannot
// serve replication and says so, rather than hanging or panicking.
func TestJournalStreamRequiresJournal(t *testing.T) {
	_, ts := newCampusServer(t, "")
	status, body := get(t, ts, "/v1/journal/stream?from=0")
	if status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("journal")) {
		t.Fatalf("streaming without a journal: status %d: %s", status, body)
	}
}

// TestValidateLeaderURL: the -follow flag grammar.
func TestValidateLeaderURL(t *testing.T) {
	for _, ok := range []string{"http://leader:8080", "https://leader.example.com", "http://127.0.0.1:9999"} {
		if err := ValidateLeaderURL(ok); err != nil {
			t.Errorf("ValidateLeaderURL(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{
		"", "leader:8080", "ftp://leader", "http://", "/v1/journal/stream",
		"http://leader:8080/v1", "http://leader:8080?x=1", "http://leader:8080#frag",
		"not a url at all",
	} {
		if err := ValidateLeaderURL(bad); err == nil {
			t.Errorf("ValidateLeaderURL(%q) accepted", bad)
		}
	}
}

// corruptTail appends partial garbage (an unterminated half-record) to
// path, simulating a crash mid-append.
func corruptTail(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"changes","chan`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTailRecovered: a crash-torn final record on the active
// file of a rotated segment chain is truncated away at startup; the
// daemon recovers every acknowledged write and keeps appending cleanly.
func TestJournalTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "changes.journal")
	srvA, tsA := newSegmentedServer(t, path, 150)
	for _, w := range replicaWrites {
		if status, body := post(t, tsA, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	if segs, _, err := journalSegments(path); err != nil || len(segs) < 2 {
		t.Fatalf("want a rotated chain, got %d segments (err %v)", len(segs), err)
	}
	_, reportA := get(t, tsA, "/v1/report")
	tsA.Close()
	srvA.Close()

	sizeBefore, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptTail(t, path)

	srvB, tsB := newSegmentedServer(t, path, 150)
	if got := srvB.Snapshot().Seq; got != uint64(len(replicaWrites)) {
		t.Fatalf("recovered seq = %d, want %d (torn tail must not eat acknowledged writes)", got, len(replicaWrites))
	}
	_, reportB := get(t, tsB, "/v1/report")
	if a, b := canonicalReport(t, reportA), canonicalReport(t, reportB); !bytes.Equal(a, b) {
		t.Errorf("state diverged after torn-tail recovery:\n before %s\n after  %s", a, b)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != sizeBefore.Size() {
		t.Errorf("active file is %d bytes, want %d (garbage truncated)", st.Size(), sizeBefore.Size())
	}
	// The journal keeps appending where the truncation left it.
	if status, body := post(t, tsB, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("post-recovery write: status %d: %s", status, body)
	}
	tsB.Close()
	srvB.Close()
	srvC, _ := newSegmentedServer(t, path, 150)
	if got := srvC.Snapshot().Seq; got != uint64(len(replicaWrites))+1 {
		t.Errorf("third-generation seq = %d, want %d", got, len(replicaWrites)+1)
	}
}

// TestJournalTornUnterminatedValidJSON: an unterminated final line is
// torn even when its bytes happen to be a valid JSON prefix of a
// record — the missing newline means the append never finished.
func TestJournalTornUnterminatedValidJSON(t *testing.T) {
	net, policyText := campusConfig(t)
	path := filepath.Join(t.TempDir(), "j")
	content := `{"op":"policy_add","line":"reach torn-probe edge2 isp 203.0.113.0/24 some"}` + "\n" +
		`{"op":"policy_remove","name":"torn-probe"}` // no trailing newline
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Net: net, PolicyText: policyText, JournalPath: path})
	if err != nil {
		t.Fatalf("torn unterminated tail should recover: %v", err)
	}
	defer srv.Close()
	if got := srv.Snapshot().Seq; got != 1 {
		t.Errorf("recovered seq = %d, want 1 (only the terminated record)", got)
	}
}

// TestJournalTornSealedSegmentFails: a torn tail on a sealed mid-chain
// segment is corruption, not crash recovery — entries after it would be
// silently renumbered — so startup must fail loudly.
func TestJournalTornSealedSegmentFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "changes.journal")
	srvA, tsA := newSegmentedServer(t, path, 150)
	for _, w := range replicaWrites {
		if status, body := post(t, tsA, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	segs, _, err := journalSegments(path)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want a rotated chain, got %d segments (err %v)", len(segs), err)
	}
	tsA.Close()
	srvA.Close()

	// Chop the last bytes off the first sealed segment: its final record
	// loses the newline and becomes a torn tail mid-chain.
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], st.Size()-2); err != nil {
		t.Fatal(err)
	}
	net, policyText := campusConfig(t)
	_, err = New(Config{Net: net, PolicyText: policyText, JournalPath: path, JournalSegmentBytes: 150})
	if err == nil || !strings.Contains(err.Error(), "torn tail") {
		t.Fatalf("mid-chain torn segment: got %v, want a torn-tail error", err)
	}
}

// TestConfigValidation: nonsense replication/journal knobs are rejected
// at construction with clear errors.
func TestConfigValidation(t *testing.T) {
	net, policyText := campusConfig(t)
	if _, err := New(Config{Net: net, PolicyText: policyText, JournalSegmentBytes: -1}); err == nil {
		t.Error("negative JournalSegmentBytes accepted")
	}
	if _, err := New(Config{Net: net, PolicyText: policyText, FollowURL: "not a url"}); err == nil {
		t.Error("bad FollowURL accepted")
	}
	if _, err := New(Config{Net: net, PolicyText: policyText, FollowURL: "http://leader:8080/api"}); err == nil {
		t.Error("FollowURL with path accepted")
	}
}
