package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"realconfig/internal/core"
)

// TestSnapshotBootstrapParityBDD is the subsystem's golden acceptance:
// a follower bootstrapped from the leader's snapshot
// plus the stream tail must serve the byte-identical canonical report a
// full-stream-replay follower serves — across segment rotation AND a
// compaction that destroyed the replayed history.
func TestSnapshotBootstrapParityBDD(t *testing.T) {
	net, policyText := ringFixture(t)
	dir := t.TempDir()
	leader, err := New(Config{
		Net:                 net.Network.Clone(),
		PolicyText:          policyText,
		Options:             core.Options{},
		JournalPath:         filepath.Join(dir, "leader.journal"),
		JournalSegmentBytes: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	tsL := httptest.NewServer(leader.Handler())
	t.Cleanup(func() {
		tsL.Close()
		leader.Close()
	})
	ringWrites(t, tsL, net)
	if segs, _, err := journalSegments(filepath.Join(dir, "leader.journal")); err != nil || len(segs) < 2 {
		t.Fatalf("want a rotated chain, got %d segments (err %v)", len(segs), err)
	}

	// Follower R: full stream replay of the whole history (the leader has
	// no snapshot yet, so the bootstrap probe 404s and falls back).
	srvR, tsR := newRingReplica(t, tsL.URL)
	replWait(t, "full-replay catch-up", func() bool { return srvR.Snapshot().Seq == leader.Snapshot().Seq })

	// Snapshot + compaction: the history R replayed is now gone from the
	// leader, and one live write grows a tail past the snapshot.
	status, body := post(t, tsL, "/v1/snapshot", "")
	if status != http.StatusOK {
		t.Fatalf("POST /v1/snapshot: status %d: %s", status, body)
	}
	res := snapResult(t, body)
	if res.SegmentsRemoved == 0 {
		t.Fatalf("compaction removed nothing: %+v", res)
	}
	link := net.Topology.Links[0]
	flap := `{"changes":[{"kind":"shutdown_interface","device":"` + link.DevA + `","intf":"` + link.IntfA + `","shutdown":true}]}`
	if status, body := post(t, tsL, "/v1/changes", flap); status != http.StatusOK {
		t.Fatalf("tail write: status %d: %s", status, body)
	}
	want := leader.Snapshot().Seq
	replWait(t, "replay follower tails", func() bool { return srvR.Snapshot().Seq == want })

	// Follower S: cold start against the compacted leader — snapshot
	// download plus the one-entry tail is the only possible path.
	srvS, tsS := newRingReplica(t, tsL.URL)
	replWait(t, "snapshot bootstrap", func() bool { return srvS.Snapshot().Seq == want })
	// The applied-entries counter trails Apply, so poll it up before the
	// exact-count assertion (a full replay would overshoot, failing below).
	replWait(t, "tail entries counted", func() bool {
		return srvS.Metrics().Snapshot()["realconfig_repl_entries_applied_total"] >= float64(want-res.Seq)
	})
	if got := srvS.Metrics().Snapshot()["realconfig_repl_entries_applied_total"]; got != float64(want-res.Seq) {
		t.Errorf("snapshot follower streamed %v entries, want %v", got, want-res.Seq)
	}

	_, reportL := get(t, tsL, "/v1/report")
	_, reportR := get(t, tsR, "/v1/report")
	_, reportS := get(t, tsS, "/v1/report")
	cl, cr, cs := canonicalReport(t, reportL), canonicalReport(t, reportR), canonicalReport(t, reportS)
	if !bytes.Equal(cr, cl) {
		t.Errorf("full-replay follower diverged from leader:\n leader   %s\n follower %s", cl, cr)
	}
	if !bytes.Equal(cs, cr) {
		t.Errorf("snapshot follower diverged from full-replay follower:\n replay   %s\n snapshot %s", cr, cs)
	}
}
