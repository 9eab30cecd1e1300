package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"realconfig/internal/core"
)

// newSegmentedServer builds a campus server journaling to path with the
// given rotation threshold.
func newSegmentedServer(t *testing.T, path string, segBytes int64) (*Server, *httptest.Server) {
	t.Helper()
	net, policyText := campusConfig(t)
	srv, err := New(Config{
		Net:                 net,
		PolicyText:          policyText,
		Options:             core.Options{},
		JournalPath:         path,
		JournalSegmentBytes: segBytes,
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

// TestJournalSegmentRotationGolden: with a rotation threshold small
// enough that the write sequence spans several segments, a restarted
// daemon must replay sealed segments plus the active file to the exact
// same observable state as the original — same canonical /v1/report,
// same pipeline counters — and the segment files must actually exist.
func TestJournalSegmentRotationGolden(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "changes.journal")
	// Each changes entry is ~120 bytes; 150 forces a rotation roughly
	// every entry, so five writes span multiple sealed segments.
	srvA, tsA := newSegmentedServer(t, path, 150)

	writes := []struct{ path, body string }{
		{"/v1/policies", `{"add":["reach seg-probe edge2 isp 203.0.113.0/24 some"]}`},
		{"/v1/changes", shutdownBorderUplink},
		{"/v1/changes", `{"changes":[{"kind":"shutdown_interface","device":"border","intf":"eth2","shutdown":false}]}`},
		{"/v1/policies", `{"remove":["seg-probe"]}`},
		{"/v1/changes", `{"changes":[{"kind":"add_static_route","Device":"core1","Route":{"Prefix":"10.99.0.0/24","NextHop":"0.0.0.0","Drop":true}}]}`},
	}
	for _, w := range writes {
		if status, body := post(t, tsA, w.path, w.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", w.path, status, body)
		}
	}
	segs, _, err := journalSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("only %d sealed segments after %d writes, want >= 2 (threshold too large?)", len(segs), len(writes))
	}
	_, reportA := get(t, tsA, "/v1/report")
	countersA := pipelineCounters(srvA)

	srvB, tsB := newSegmentedServer(t, path, 150)
	_, reportB := get(t, tsB, "/v1/report")
	countersB := pipelineCounters(srvB)
	if a, b := canonicalReport(t, reportA), canonicalReport(t, reportB); !bytes.Equal(a, b) {
		t.Errorf("segmented replay diverged:\n live   %s\n replay %s", a, b)
	}
	for name, va := range countersA {
		if vb := countersB[name]; va != vb {
			t.Errorf("%s: original %v, replay %v", name, va, vb)
		}
	}
	if got := srvB.Snapshot().Seq; got != uint64(len(writes)) {
		t.Errorf("replayed seq = %d, want %d", got, len(writes))
	}

	// A third generation keeps appending after the replay: the sealed
	// segments must be untouched and rotation must continue from the
	// next free index.
	if status, body := post(t, tsB, "/v1/changes", shutdownBorderUplink); status != http.StatusOK {
		t.Fatalf("post-replay write: status %d: %s", status, body)
	}
	segs2, next, err := journalSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs2) < len(segs) {
		t.Errorf("sealed segments shrank from %d to %d", len(segs), len(segs2))
	}
	if next != len(segs2) {
		t.Errorf("next segment index = %d, want %d (contiguous numbering)", next, len(segs2))
	}
}
