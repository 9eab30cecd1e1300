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
	"time"

	"realconfig/internal/core"
	"realconfig/internal/snap"
)

// newSnapServer boots a campus server with a small rotation threshold
// and explicit snapshot knobs.
func newSnapServer(t *testing.T, path string, retain, snapEvery int) (*Server, *httptest.Server) {
	t.Helper()
	net, policyText := campusConfig(t)
	srv, err := New(Config{
		Net:                 net,
		PolicyText:          policyText,
		Options:             core.Options{},
		JournalPath:         path,
		JournalSegmentBytes: 150,
		JournalRetain:       retain,
		SnapshotEvery:       snapEvery,
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

// copyDir copies every regular file of src into dst (the journal
// directory layout is flat).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// snapResult decodes a POST /v1/snapshot body.
func snapResult(t *testing.T, body []byte) snapshotResult {
	t.Helper()
	var res snapshotResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad snapshot body %s: %v", body, err)
	}
	return res
}

// TestSnapshotRestoreGolden: POST /v1/snapshot captures the state,
// compacts every sealed segment behind it, and a restarted daemon
// restores the snapshot plus the journal tail to the exact observable
// state — same canonical report, shorter replay.
func TestSnapshotRestoreGolden(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "changes.journal")
	srvA, tsA := newSnapServer(t, path, 0, 0)
	for _, w := range replicaWrites {
		if status, body := post(t, tsA, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	if segs, _, err := journalSegments(path); err != nil || len(segs) < 2 {
		t.Fatalf("want a rotated chain, got %d segments (err %v)", len(segs), err)
	}
	status, body := post(t, tsA, "/v1/snapshot", "")
	if status != http.StatusOK {
		t.Fatalf("POST /v1/snapshot: status %d: %s", status, body)
	}
	res := snapResult(t, body)
	if res.Seq != uint64(len(replicaWrites)) {
		t.Errorf("snapshot seq = %d, want %d", res.Seq, len(replicaWrites))
	}
	if res.CompactedThrough == 0 || res.SegmentsRemoved == 0 {
		t.Errorf("snapshot did not compact: %+v", res)
	}
	if segs, _, err := journalSegments(path); err != nil || len(segs) != 0 {
		t.Errorf("sealed segments survived retain=0 compaction: %v (err %v)", segs, err)
	}
	if m := srvA.Metrics().Snapshot(); m["realconfig_snap_last_seq"] != float64(res.Seq) ||
		m["realconfig_snap_compactions_total"] < 1 {
		t.Errorf("snapshot metrics not updated: last_seq=%v compactions=%v",
			m["realconfig_snap_last_seq"], m["realconfig_snap_compactions_total"])
	}
	_, reportA := get(t, tsA, "/v1/report")
	_, health := get(t, tsA, "/v1/healthz")
	for _, want := range []string{`"snapshotSeq":5`, `"compactedThroughSeq":`} {
		if !bytes.Contains(health, []byte(want)) {
			t.Errorf("healthz lacks %s: %s", want, health)
		}
	}
	tsA.Close()
	srvA.Close()

	srvB, tsB := newSnapServer(t, path, 0, 0)
	if got := srvB.Snapshot().Seq; got != res.Seq {
		t.Fatalf("restored seq = %d, want %d", got, res.Seq)
	}
	_, reportB := get(t, tsB, "/v1/report")
	if a, b := canonicalReport(t, reportA), canonicalReport(t, reportB); !bytes.Equal(a, b) {
		t.Errorf("state diverged after snapshot restore:\n before %s\n after  %s", a, b)
	}
	// The snapshot was taken at the journal head, so it covers every
	// entry: restore is pure snapshot load, zero replay.
	if got := srvB.Metrics().Snapshot()["realconfig_server_journal_replayed_total"]; got != 0 {
		t.Errorf("restart replayed %v entries, want 0 (the snapshot covers the whole journal)", got)
	}
	// The restored daemon keeps appending where the chain left off.
	if status, body := post(t, tsB, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("post-restore write: status %d: %s", status, body)
	}
	tsB.Close()
	srvB.Close()
	srvC, _ := newSnapServer(t, path, 0, 0)
	if got := srvC.Snapshot().Seq; got != res.Seq+1 {
		t.Errorf("third-generation seq = %d, want %d", got, res.Seq+1)
	}
}

// TestRestartRestoresSnapshotGauges: a daemon restarted from a snapshot
// reports the snapshot it restored in both gauges, as the capture did:
// its seq and its size in bytes.
func TestRestartRestoresSnapshotGauges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	srvA, tsA := newSnapServer(t, path, 0, 0)
	if status, body := post(t, tsA, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("apply: status %d: %s", status, body)
	}
	status, body := post(t, tsA, "/v1/snapshot", "")
	if status != http.StatusOK {
		t.Fatalf("POST /v1/snapshot: status %d: %s", status, body)
	}
	res := snapResult(t, body)
	before := srvA.Metrics().Snapshot()
	if before["realconfig_snap_last_seq"] != float64(res.Seq) || before["realconfig_snap_bytes"] != float64(res.Bytes) {
		t.Fatalf("capture gauges: last_seq=%v bytes=%v, want %d and %d",
			before["realconfig_snap_last_seq"], before["realconfig_snap_bytes"], res.Seq, res.Bytes)
	}
	tsA.Close()
	srvA.Close()

	srvB, _ := newSnapServer(t, path, 0, 0)
	after := srvB.Metrics().Snapshot()
	for _, name := range []string{"realconfig_snap_last_seq", "realconfig_snap_bytes"} {
		if after[name] != before[name] {
			t.Errorf("%s after restart = %v, want %v", name, after[name], before[name])
		}
	}
}

// TestSnapshotDeterministic: two captures of the same state are
// byte-identical files (capture is a pure function of state).
func TestSnapshotDeterministic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	_, ts := newSnapServer(t, path, 100, 0)
	if status, body := post(t, ts, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("write: status %d: %s", status, body)
	}
	if status, body := post(t, ts, "/v1/snapshot", ""); status != http.StatusOK {
		t.Fatalf("first snapshot: status %d: %s", status, body)
	}
	_, first := get(t, ts, "/v1/snapshot/latest")
	if status, body := post(t, ts, "/v1/snapshot", ""); status != http.StatusOK {
		t.Fatalf("second snapshot: status %d: %s", status, body)
	}
	_, second := get(t, ts, "/v1/snapshot/latest")
	if !bytes.Equal(first, second) {
		t.Errorf("same state produced different snapshots:\n %s\n %s", first, second)
	}
}

// TestSnapshotAutoTrigger: SnapshotEvery fires the capture from the
// write path itself, no admin call needed.
func TestSnapshotAutoTrigger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	srv, ts := newSnapServer(t, path, 0, 2)
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"changes":[{"kind":"shutdown_interface","device":"border","intf":"eth2","shutdown":%v}]}`, i%2 == 0)
		if status, out := post(t, ts, "/v1/changes", body); status != http.StatusOK {
			t.Fatalf("write %d: status %d: %s", i, status, out)
		}
	}
	if got := srv.Metrics().Snapshot()["realconfig_snap_last_seq"]; got != 4 {
		t.Errorf("auto snapshot last seq = %v, want 4 (every 2 entries)", got)
	}
	if _, man, _, err := snap.Latest(path); err != nil || man == nil || man.Seq != 4 {
		t.Errorf("latest snapshot on disk = %+v, %v, want seq 4", man, err)
	}
}

// TestSnapshotEndpointsWithoutState: the admin surface degrades
// loudly — no journal means no snapshots (503/404), no capture yet
// means 404, and a leader refuses /v1/promote (409).
func TestSnapshotEndpointsWithoutState(t *testing.T) {
	_, tsNoJournal := newCampusServer(t, "")
	if status, body := post(t, tsNoJournal, "/v1/snapshot", ""); status != http.StatusServiceUnavailable {
		t.Errorf("snapshot without journal: status %d: %s", status, body)
	}
	if status, body := get(t, tsNoJournal, "/v1/snapshot/latest"); status != http.StatusNotFound {
		t.Errorf("latest without journal: status %d: %s", status, body)
	}
	_, tsJournal := newCampusServer(t, filepath.Join(t.TempDir(), "j"))
	if status, body := get(t, tsJournal, "/v1/snapshot/latest"); status != http.StatusNotFound {
		t.Errorf("latest before any capture: status %d: %s", status, body)
	}
	if status, body := post(t, tsJournal, "/v1/promote", ""); status != http.StatusConflict {
		t.Errorf("promote on a leader: status %d: %s", status, body)
	}
}

// TestTornSnapshotFallsBack: a torn newest snapshot is skipped and the
// previous good one restores, with the journal tail replayed on top —
// exact state, no data loss.
func TestTornSnapshotFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "changes.journal")
	// Generous retain: compaction must not delete the segments the older
	// snapshot still needs for its tail.
	srvA, tsA := newSnapServer(t, path, 100, 0)
	for _, w := range replicaWrites[:3] {
		if status, body := post(t, tsA, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	if status, body := post(t, tsA, "/v1/snapshot", ""); status != http.StatusOK {
		t.Fatalf("first snapshot: status %d: %s", status, body)
	}
	for _, w := range replicaWrites[3:] {
		if status, body := post(t, tsA, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	if status, body := post(t, tsA, "/v1/snapshot", ""); status != http.StatusOK {
		t.Fatalf("second snapshot: status %d: %s", status, body)
	}
	_, reportA := get(t, tsA, "/v1/report")
	tsA.Close()
	srvA.Close()

	snaps, err := snap.List(path)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 snapshot files, got %v (err %v)", snaps, err)
	}
	// Tear the newest mid-write: chop its checksum trailer.
	newest := snaps[len(snaps)-1]
	st, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, st.Size()-10); err != nil {
		t.Fatal(err)
	}

	srvB, tsB := newSnapServer(t, path, 100, 0)
	if got := srvB.Snapshot().Seq; got != uint64(len(replicaWrites)) {
		t.Fatalf("recovered seq = %d, want %d", got, len(replicaWrites))
	}
	_, reportB := get(t, tsB, "/v1/report")
	if a, b := canonicalReport(t, reportA), canonicalReport(t, reportB); !bytes.Equal(a, b) {
		t.Errorf("state diverged after torn-snapshot fallback:\n before %s\n after  %s", a, b)
	}
	// The good snapshot was at seq 3; entries 4 and 5 replayed from the
	// journal the generous retain preserved.
	if got := srvB.Metrics().Snapshot()["realconfig_server_journal_replayed_total"]; got != 2 {
		t.Errorf("fallback replayed %v entries, want 2 (from the previous good snapshot)", got)
	}
}

// TestCompactionCrashResume: a crash after the .compact sidecar is
// durable but before the doomed segments are unlinked must finish the
// compaction at next open and recover the exact state.
func TestCompactionCrashResume(t *testing.T) {
	dirA := t.TempDir()
	dirB := t.TempDir()
	pathA := filepath.Join(dirA, "changes.journal")
	srvA, tsA := newSnapServer(t, pathA, 0, 0)
	for _, w := range replicaWrites {
		if status, body := post(t, tsA, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	tsA.Close()
	srvA.Close()
	// Freeze the pre-compaction chain, then snapshot+compact dirA.
	copyDir(t, dirA, dirB)
	srvA2, tsA2 := newSnapServer(t, pathA, 0, 0)
	status, body := post(t, tsA2, "/v1/snapshot", "")
	if status != http.StatusOK {
		t.Fatalf("POST /v1/snapshot: status %d: %s", status, body)
	}
	res := snapResult(t, body)
	if res.SegmentsRemoved == 0 {
		t.Fatalf("compaction removed nothing: %+v", res)
	}
	_, reportA := get(t, tsA2, "/v1/report")
	tsA2.Close()
	srvA2.Close()

	// Reconstruct the crash point in dirB: the sidecar and snapshot made
	// it to disk, the segment unlinks did not.
	for _, name := range []string{"changes.journal.compact", "changes.journal.meta", "changes.journal.epoch"} {
		data, err := os.ReadFile(filepath.Join(dirA, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dirB, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := snap.List(pathA)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range snaps {
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dirB, filepath.Base(s)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pathB := filepath.Join(dirB, "changes.journal")
	if segs, _, err := journalSegments(pathB); err != nil || len(segs) == 0 {
		t.Fatalf("crash dir lost its doomed segments: %v (err %v)", segs, err)
	}

	srvB, tsB := newSnapServer(t, pathB, 0, 0)
	if got := srvB.Snapshot().Seq; got != res.Seq {
		t.Fatalf("resumed seq = %d, want %d", got, res.Seq)
	}
	if segs, _, err := journalSegments(pathB); err != nil || len(segs) != 0 {
		t.Errorf("interrupted compaction not finished at open: %v (err %v)", segs, err)
	}
	_, reportB := get(t, tsB, "/v1/report")
	if a, b := canonicalReport(t, reportA), canonicalReport(t, reportB); !bytes.Equal(a, b) {
		t.Errorf("state diverged after compaction-crash resume:\n before %s\n after  %s", a, b)
	}
	if status, body := post(t, tsB, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("post-resume write: status %d: %s", status, body)
	}
}

// TestFollowerBootstrapFromSnapshot: a fresh follower of a leader that
// has a snapshot downloads it instead of replaying history, then tails
// the stream — byte-identical report, one streamed entry.
func TestFollowerBootstrapFromSnapshot(t *testing.T) {
	leaderJournal := filepath.Join(t.TempDir(), "leader.journal")
	srvL, tsL := newSnapServer(t, leaderJournal, 0, 0)
	for _, w := range replicaWrites {
		if status, body := post(t, tsL, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	if status, body := post(t, tsL, "/v1/snapshot", ""); status != http.StatusOK {
		t.Fatalf("POST /v1/snapshot: status %d: %s", status, body)
	}
	snapSeq := srvL.Snapshot().Seq
	// One live write past the snapshot: the tail the stream must carry.
	if status, body := post(t, tsL, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("tail write: status %d: %s", status, body)
	}

	srvF, tsF := newReplicaServer(t, tsL.URL, filepath.Join(t.TempDir(), "replica.journal"))
	want := srvL.Snapshot().Seq
	replWait(t, "bootstrap catch-up", func() bool { return srvF.Snapshot().Seq == want })

	_, reportL := get(t, tsL, "/v1/report")
	_, reportF := get(t, tsF, "/v1/report")
	if a, b := canonicalReport(t, reportL), canonicalReport(t, reportF); !bytes.Equal(a, b) {
		t.Errorf("snapshot-bootstrapped replica diverged:\n leader  %s\n replica %s", a, b)
	}
	if got := srvF.Metrics().Snapshot()["realconfig_snap_last_seq"]; got != float64(snapSeq) {
		t.Errorf("replica snapshot seq = %v, want %v (did it bootstrap at all?)", got, snapSeq)
	}
	// The applied-entries counter is bumped after Apply returns, so it can
	// trail the seq the catch-up wait observed — poll it up before the
	// exact-count assertion.
	replWait(t, "tail entries counted", func() bool {
		return srvF.Metrics().Snapshot()["realconfig_repl_entries_applied_total"] >= float64(want-snapSeq)
	})
	if got := srvF.Metrics().Snapshot()["realconfig_repl_entries_applied_total"]; got != float64(want-snapSeq) {
		t.Errorf("replica streamed %v entries, want %v (snapshot should swallow the history)", got, want-snapSeq)
	}
	// The replica persisted the snapshot: a restart replays only the tail.
	tsF.Close()
	srvF.Close()
}

// TestFollowerRebootstrapAfterCompaction: a follower whose resume point
// was compacted away gets 410 from the leader and re-bootstraps from
// the snapshot instead of dying — the ErrSeqGone recovery path.
func TestFollowerRebootstrapAfterCompaction(t *testing.T) {
	leaderJournal := filepath.Join(t.TempDir(), "leader.journal")
	srvL, tsL := newSnapServer(t, leaderJournal, 0, 0)
	for _, w := range replicaWrites[:2] {
		if status, body := post(t, tsL, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	replicaJournal := filepath.Join(t.TempDir(), "replica.journal")
	srvF, tsF := newReplicaServer(t, tsL.URL, replicaJournal)
	replWait(t, "first sync", func() bool { return srvF.Snapshot().Seq == 2 })
	tsF.Close()
	srvF.Close()

	// While the replica is down: more writes, then snapshot + compaction
	// destroy the history the replica would need to resume.
	for _, w := range replicaWrites[2:] {
		if status, body := post(t, tsL, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	status, body := post(t, tsL, "/v1/snapshot", "")
	if status != http.StatusOK {
		t.Fatalf("POST /v1/snapshot: status %d: %s", status, body)
	}
	res := snapResult(t, body)
	if res.CompactedThrough <= 2 {
		t.Fatalf("compaction kept the replica's resume point (compacted through %d); test needs it gone", res.CompactedThrough)
	}

	srvF2, tsF2 := newReplicaServer(t, tsL.URL, replicaJournal)
	defer func() { tsF2.Close(); srvF2.Close() }()
	want := srvL.Snapshot().Seq
	replWait(t, "re-bootstrap", func() bool { return srvF2.Snapshot().Seq == want })
	_, reportL := get(t, tsL, "/v1/report")
	_, reportF := get(t, tsF2, "/v1/report")
	if a, b := canonicalReport(t, reportL), canonicalReport(t, reportF); !bytes.Equal(a, b) {
		t.Errorf("re-bootstrapped replica diverged:\n leader  %s\n replica %s", a, b)
	}
	if got := srvF2.Metrics().Snapshot()["realconfig_snap_last_seq"]; got != float64(res.Seq) {
		t.Errorf("replica snapshot seq = %v, want %v (420-and-retry is not re-bootstrap)", got, res.Seq)
	}
	// The replica must not have been fenced — 410 is recovery, not lineage death.
	if got := srvF2.Metrics().Snapshot()["realconfig_repl_fenced_total"]; got != 0 {
		t.Errorf("replica fenced during re-bootstrap: %v", got)
	}
}

// TestPromotionFencesOldLeader: promoting a caught-up follower flips it
// to a writable leader under a fresh epoch, and that epoch fences the
// old lineage — a replica carrying the promoted epoch refuses the old
// leader's stream.
func TestPromotionFencesOldLeader(t *testing.T) {
	srvL, tsL := newCampusServer(t, filepath.Join(t.TempDir(), "leader.journal"))
	for _, w := range replicaWrites[:2] {
		if status, body := post(t, tsL, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	dirF := t.TempDir()
	srvF, tsF := newReplicaServer(t, tsL.URL, filepath.Join(dirF, "replica.journal"))
	replWait(t, "catch-up", func() bool {
		f := srvF.tenantFrom(&http.Request{}) // default tenant
		return srvF.Snapshot().Seq == srvL.Snapshot().Seq && f.Follower() != nil && f.Follower().Connected()
	})

	// Writes on the replica are refused while it is a follower...
	if status, _ := post(t, tsF, "/v1/changes", shutdownBorderUplink); status != http.StatusServiceUnavailable {
		t.Fatalf("pre-promotion write on replica: status %d, want 503", status)
	}
	status, body := post(t, tsF, "/v1/promote", "")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"promoted":true`)) {
		t.Fatalf("POST /v1/promote: status %d: %s", status, body)
	}
	// ...and accepted after promotion, with the landed seq advertised.
	resp, err := http.Post(tsF.URL+"/v1/changes", "application/json", strings.NewReader(shutdownBorderUplink))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-promotion write: status %d", resp.StatusCode)
	}
	if resp.Header.Get(seqHeader) == "" {
		t.Error("post-promotion write lacks X-Realconfig-Seq")
	}
	_, health := get(t, tsF, "/v1/healthz")
	for _, want := range []string{`"role":"leader"`, `"promoted":true`, `"epoch":`} {
		if !bytes.Contains(health, []byte(want)) {
			t.Errorf("promoted healthz lacks %s: %s", want, health)
		}
	}
	if status, body := post(t, tsF, "/v1/promote", ""); status != http.StatusConflict {
		t.Errorf("second promote: status %d: %s (want 409 already promoted)", status, body)
	}

	// Fencing: a replica built from the promoted lineage (copy of the
	// promoted journal, carrying the fresh epoch) points at the OLD
	// leader. The epoch mismatch in the stream hello must fence it.
	dirG := t.TempDir()
	copyDir(t, dirF, dirG)
	srvG, _ := newReplicaServer(t, tsL.URL, filepath.Join(dirG, "replica.journal"))
	replWait(t, "fencing", func() bool {
		return srvG.Metrics().Snapshot()["realconfig_repl_fenced_total"] >= 1
	})
	// Old leader keeps writing; the fenced replica must not apply it.
	if status, body := post(t, tsL, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("old-leader write: status %d: %s", status, body)
	}
	time.Sleep(50 * time.Millisecond)
	if got := srvG.Metrics().Snapshot()["realconfig_repl_entries_applied_total"]; got != 0 {
		t.Errorf("fenced replica applied %v entries from the demoted lineage", got)
	}
}

// TestReadYourWrites: the seq a write answers in X-Realconfig-Seq gates
// reads — satisfied floors serve, unmet floors answer 503 + Retry-After,
// malformed floors 400.
func TestReadYourWrites(t *testing.T) {
	_, ts := newCampusServer(t, "")
	resp, err := http.Post(ts.URL+"/v1/changes", "application/json", strings.NewReader(shutdownBorderUplink))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write: status %d", resp.StatusCode)
	}
	seq := resp.Header.Get(seqHeader)
	if seq != "1" {
		t.Fatalf("write seq header = %q, want 1", seq)
	}

	for _, path := range []string{"/v1/report", "/v1/verdicts"} {
		resp, err := http.Get(ts.URL + path + "?min-seq=" + seq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s at satisfied floor: status %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get(seqHeader); got != seq {
			t.Errorf("GET %s: serving seq header %q, want %q", path, got, seq)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/report?min-seq=99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("unmet floor: status %d, Retry-After %q (want 503 + hint)", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// The request header is an alternative spelling of the floor.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/report", nil)
	req.Header.Set(seqHeader, "99")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unmet header floor: status %d, want 503", resp.StatusCode)
	}
	if status, body := get(t, ts, "/v1/report?min-seq=banana"); status != http.StatusBadRequest {
		t.Errorf("malformed floor: status %d: %s", status, body)
	}
}
