package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"realconfig/internal/core"
	"realconfig/internal/snap"
	"realconfig/internal/topology"
)

// ringFixture builds a small OSPF ring with a policy suite covering
// every policy kind.
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

// newRingServer starts a ring-fixture server on the given journal path
// ("" = no journal).
func newRingServer(t *testing.T, journal string) (*Server, *httptest.Server) {
	t.Helper()
	net, policyText := ringFixture(t)
	srv, err := New(Config{
		Net:         net.Network.Clone(),
		PolicyText:  policyText,
		Options:     core.Options{},
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

// newRingReplica builds a ring-fixture read replica of leaderURL.
func newRingReplica(t *testing.T, leaderURL string) (*Server, *httptest.Server) {
	t.Helper()
	net, policyText := ringFixture(t)
	srv, err := New(Config{
		Net:            net.Network.Clone(),
		PolicyText:     policyText,
		Options:        core.Options{},
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

// ringWrites drives one fixed write sequence: policy churn, a link
// flap, a static drop route, and an ACL bind.
func ringWrites(t *testing.T, ts *httptest.Server, net *topology.Net) {
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

// TestJournalMetaSidecarIgnored: older versions wrote a <journal>.meta
// sidecar naming the model that produced the journaled reports, and
// could name "atom". A journal directory that still holds one replays
// to the same report as the recording daemon served, and the sidecar is
// left as it was.
func TestJournalMetaSidecarIgnored(t *testing.T) {
	net, _ := ringFixture(t)
	journal := filepath.Join(t.TempDir(), "changes.journal")
	srvA, tsA := newRingServer(t, journal)
	ringWrites(t, tsA, net)
	_, live := get(t, tsA, "/v1/report")
	tsA.Close()
	srvA.Close()

	meta := journal + ".meta"
	sidecar := []byte(`{"backend":"atom"}` + "\n")
	if err := os.WriteFile(meta, sidecar, 0o644); err != nil {
		t.Fatal(err)
	}
	_, tsB := newRingServer(t, journal)
	_, replayed := get(t, tsB, "/v1/report")
	if a, b := canonicalReport(t, replayed), canonicalReport(t, live); !bytes.Equal(a, b) {
		t.Errorf("replay beside an atom .meta diverged:\n replay %s\n live   %s", a, b)
	}
	if got, err := os.ReadFile(meta); err != nil || !bytes.Equal(got, sidecar) {
		t.Errorf("sidecar after replay = %q, %v; want it untouched", got, err)
	}
}

// TestAtomSnapshotManifestBootstraps: a leader snapshot whose manifest
// records "atom" (written by older versions that had a second model)
// still bootstraps a follower to the leader's report.
func TestAtomSnapshotManifestBootstraps(t *testing.T) {
	net, _ := ringFixture(t)
	journal := filepath.Join(t.TempDir(), "leader.journal")
	leader, tsL := newRingServer(t, journal)
	ringWrites(t, tsL, net)
	if status, body := post(t, tsL, "/v1/snapshot", ""); status != http.StatusOK {
		t.Fatalf("POST /v1/snapshot: status %d: %s", status, body)
	}
	_, man, _, err := snap.Latest(journal)
	if err != nil || man == nil {
		t.Fatalf("latest snapshot = %v, %v", man, err)
	}
	man.Backend = "atom"
	if _, _, err := snap.WriteFile(journal, man); err != nil {
		t.Fatal(err)
	}

	want := leader.Snapshot().Seq
	srvF, tsF := newRingReplica(t, tsL.URL)
	replWait(t, "snapshot bootstrap", func() bool { return srvF.Snapshot().Seq == want })
	if got := srvF.Metrics().Snapshot()["realconfig_repl_entries_applied_total"]; got != 0 {
		t.Errorf("follower streamed %v entries, want 0 (bootstrapped from the snapshot)", got)
	}
	_, reportL := get(t, tsL, "/v1/report")
	_, reportF := get(t, tsF, "/v1/report")
	if a, b := canonicalReport(t, reportF), canonicalReport(t, reportL); !bytes.Equal(a, b) {
		t.Errorf("follower diverged from leader:\n follower %s\n leader   %s", a, b)
	}
}

// TestWhatIfForkRaceStress hammers /v1/whatif (which forks a fresh
// verifier per request) from concurrent goroutines while a writer
// applies real changes. Under -race this proves the fork path shares no
// mutable state with the live verifier.
func TestWhatIfForkRaceStress(t *testing.T) {
	net, _ := ringFixture(t)
	_, ts := newRingServer(t, "")
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
