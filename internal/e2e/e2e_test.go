// Package e2e drives the real rcserved and realconfig binaries as
// separate processes: flag wiring, process start-up, the structured log
// on stderr and replication between two daemons are exercised here and
// by no in-process test. TestMain builds both commands once; every test
// is skipped under -short.
package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

const (
	campus         = "../../testdata/campus"
	campusPolicies = campus + "/policies.txt"
	rollout        = "../../examples/rollout/net"
)

// binDir holds the built rcserved and realconfig ("" under -short).
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "realconfig-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(gobin, "build", "-o", dir+string(filepath.Separator),
		"realconfig/cmd/rcserved", "realconfig/cmd/realconfig").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		fmt.Fprintf(os.Stderr, "e2e: go build: %v\n%s", err, out)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// binary returns the path of a built command, skipping the test under
// -short.
func binary(t *testing.T, name string) string {
	t.Helper()
	if binDir == "" {
		t.Skip("builds and runs the real binaries; skipped under -short")
	}
	return filepath.Join(binDir, name)
}

// daemon is one running rcserved process.
type daemon struct {
	url string // base URL, e.g. http://127.0.0.1:41234
	log string // file holding the process's stderr (its structured log)
}

var listening = regexp.MustCompile(`listening on (http://\S+) `)

// startDaemon runs rcserved with args on a free loopback port and waits
// for its "listening on" line. The process is killed when the test ends,
// and its stderr is logged if the test failed.
func startDaemon(t *testing.T, args ...string) daemon {
	t.Helper()
	bin := binary(t, "rcserved")
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := daemon{log: stderr.Name()}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		stdout.Close()
		stderr.Close()
		if t.Failed() {
			b, _ := os.ReadFile(d.log)
			t.Logf("rcserved %v stderr:\n%s", args, b)
		}
	})
	eventually(t, "rcserved listening", func() bool {
		b, _ := os.ReadFile(stdout.Name())
		m := listening.FindSubmatch(b)
		if m != nil {
			d.url = string(m[1])
		}
		return m != nil
	})
	return d
}

// eventually polls cond every 100 ms and fails the test if it does not
// hold within 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 10s", what)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// call sends one request (a non-empty body is sent as JSON) and returns
// the response status, headers and body.
func call(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// ok is call for a request that must answer 200; it returns the body.
func ok(t *testing.T, method, url, body string) []byte {
	t.Helper()
	status, _, b := call(t, method, url, body)
	if status != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, url, status, b)
	}
	return b
}

// decode unmarshals a JSON body into v.
func decode(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
}

// borderEth2 is a one-change batch that shuts (or re-enables) the
// campus border's eth2.
func borderEth2(shutdown bool) string {
	return fmt.Sprintf(`{"changes":[{"kind":"shutdown_interface","device":"border","intf":"eth2","shutdown":%t}]}`, shutdown)
}

// health is the part of GET /v1/healthz these tests read.
type health struct {
	Role        string  `json:"role"`
	Seq         uint64  `json:"seq"`
	ReplLagSeq  *uint64 `json:"replLagSeq"`
	SnapshotSeq uint64  `json:"snapshotSeq"`
}

func healthz(t *testing.T, d daemon) health {
	t.Helper()
	var h health
	decode(t, ok(t, "GET", d.url+"/v1/healthz", ""), &h)
	return h
}

// caughtUp waits until follower f reports replication lag 0 at seq.
func caughtUp(t *testing.T, f daemon, seq uint64) {
	t.Helper()
	eventually(t, fmt.Sprintf("follower caught up to seq %d", seq), func() bool {
		h := healthz(t, f)
		return h.ReplLagSeq != nil && *h.ReplLagSeq == 0 && h.Seq == seq
	})
}

// TestTrace applies one change to a daemon with provenance tracing and
// JSON logs, then reads the apply back: the ring index lists it, its
// trace carries policy_recheck events, the Chrome export holds at least
// one trace event, and the request's req_id is in the log.
func TestTrace(t *testing.T) {
	d := startDaemon(t, "-net", campus, "-policies", campusPolicies, "-log-format", "json")
	ok(t, "POST", d.url+"/v1/changes", borderEth2(true))

	var index struct {
		Applies []struct {
			Label string `json:"label"`
			ReqID string `json:"reqId"`
		} `json:"applies"`
	}
	decode(t, ok(t, "GET", d.url+"/v1/applies", ""), &index)
	reqID := ""
	for _, a := range index.Applies {
		if a.Label == "apply" {
			reqID = a.ReqID
			break
		}
	}
	if reqID == "" {
		t.Fatalf("ring index has no apply with a req id: %+v", index.Applies)
	}

	var tr struct {
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	decode(t, ok(t, "GET", d.url+"/v1/applies/latest/trace", ""), &tr)
	rechecks := 0
	for _, e := range tr.Events {
		if e.Kind == "policy_recheck" {
			rechecks++
		}
	}
	if rechecks == 0 {
		t.Errorf("trace has no policy_recheck events among %d", len(tr.Events))
	}

	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	decode(t, ok(t, "GET", d.url+"/v1/applies/latest/trace?format=chrome", ""), &chrome)
	if len(chrome.TraceEvents) == 0 {
		t.Error("chrome export has no traceEvents")
	}

	logged := func() bool {
		b, _ := os.ReadFile(d.log)
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			var line struct {
				ReqID string `json:"req_id"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.ReqID == reqID {
				return true
			}
		}
		return false
	}
	eventually(t, "JSON log line with req_id "+reqID, logged)
}

// TestPlanCLIMatchesDaemon plans the rollout example through both front
// ends, the realconfig CLI and a live daemon's POST /v1/plan, and
// requires the same wave ordering and the same search effort (probes,
// memo hits and fork rebuilds; not the elapsed time).
func TestPlanCLIMatchesDaemon(t *testing.T) {
	bin := binary(t, "realconfig")
	out, err := exec.Command(bin, "plan", "-net", rollout, "-policies", rollout+"/policies.txt",
		"-changes", rollout+"/batch.json").CombinedOutput()
	if err != nil {
		t.Fatalf("realconfig plan: %v\n%s", err, out)
	}
	cli, cliSearch := "", ""
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "waves:") {
			cli = line
		}
		if strings.HasPrefix(line, "search:") {
			// Drop the trailing elapsed time.
			cliSearch = line[:strings.LastIndex(line, ",")]
		}
	}
	if cli == "" || cliSearch == "" {
		t.Fatalf("realconfig plan printed no waves or search line:\n%s", out)
	}

	d := startDaemon(t, "-net", rollout, "-policies", rollout+"/policies.txt")
	batch, err := os.ReadFile(rollout + "/batch.json")
	if err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Planned bool `json:"planned"`
		Plan    struct {
			Waves [][]struct {
				Index int `json:"index"`
			} `json:"waves"`
		} `json:"plan"`
		Stats struct {
			Probes   int `json:"probes"`
			MemoHits int `json:"memoHits"`
			Rebuilds int `json:"rebuilds"`
		} `json:"stats"`
	}
	decode(t, ok(t, "POST", d.url+"/v1/plan", string(batch)), &resp)
	if !resp.Planned {
		t.Fatal("daemon found no plan")
	}
	srv := "waves:"
	for _, wave := range resp.Plan.Waves {
		idx := make([]string, len(wave))
		for i, st := range wave {
			idx[i] = strconv.Itoa(st.Index)
		}
		srv += " [" + strings.Join(idx, " ") + "]"
	}
	if cli != srv {
		t.Errorf("CLI and daemon disagree:\n cli    %s\n daemon %s", cli, srv)
	}
	st := resp.Stats
	srvSearch := fmt.Sprintf("search: %d probes, %d memo hits, %d fork rebuilds", st.Probes, st.MemoHits, st.Rebuilds)
	if cliSearch != srvSearch {
		t.Errorf("CLI and daemon searched differently:\n cli    %s\n daemon %s", cliSearch, srvSearch)
	}
}

// TestReplica boots a journaled leader, applies two changes, and
// attaches a follower over HTTP: it catches up with lag 0, reports the
// follower role, serves byte-identical verdicts, and refuses a write
// with 503 and a Leader: header.
func TestReplica(t *testing.T) {
	dir := t.TempDir()
	leader := startDaemon(t, "-net", campus, "-policies", campusPolicies,
		"-journal", filepath.Join(dir, "journal"), "-journal-segment-bytes", "256")
	ok(t, "POST", leader.url+"/v1/changes", borderEth2(true))
	ok(t, "POST", leader.url+"/v1/changes", borderEth2(false))
	if h := healthz(t, leader); h.Role != "leader" || h.Seq != 2 {
		t.Errorf("leader healthz = %+v, want role leader at seq 2", h)
	}

	follower := startDaemon(t, "-net", campus, "-policies", campusPolicies, "-follow", leader.url)
	caughtUp(t, follower, 2)
	if h := healthz(t, follower); h.Role != "follower" {
		t.Errorf("follower healthz role = %q, want follower", h.Role)
	}
	lv := ok(t, "GET", leader.url+"/v1/verdicts", "")
	fv := ok(t, "GET", follower.url+"/v1/verdicts", "")
	if !bytes.Equal(lv, fv) {
		t.Errorf("leader and follower verdicts differ:\n leader   %s\n follower %s", lv, fv)
	}

	status, hdr, body := call(t, "POST", follower.url+"/v1/changes", `{"changes":[]}`)
	if status != http.StatusServiceUnavailable {
		t.Errorf("follower write: status %d, want 503: %s", status, body)
	}
	if l := hdr.Get("Leader"); !strings.HasPrefix(l, "http://") {
		t.Errorf("follower write: Leader header %q, want an http:// URL", l)
	}
}

// TestSnapshotLifecycle walks capture, compaction, follower bootstrap,
// promotion and fencing across real daemons. The leader captures a
// snapshot at seq 3 that compacts its journal; a cold follower
// bootstraps from that snapshot and serves the leader's report; once
// promoted it accepts writes as leader; and a replica started from the
// promoted journal (so carrying the new epoch) is fenced off the old
// leader's stream.
func TestSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	leaderJournal := filepath.Join(dir, "leader.journal")
	leader := startDaemon(t, "-net", campus, "-policies", campusPolicies,
		"-journal", leaderJournal, "-journal-segment-bytes", "256", "-journal-retain", "0")
	for _, down := range []bool{true, false, true} {
		ok(t, "POST", leader.url+"/v1/changes", borderEth2(down))
	}
	var snap struct {
		Seq             uint64 `json:"seq"`
		SegmentsRemoved int    `json:"segmentsRemoved"`
	}
	decode(t, ok(t, "POST", leader.url+"/v1/snapshot", ""), &snap)
	if snap.Seq != 3 || snap.SegmentsRemoved < 1 {
		t.Fatalf("snapshot = %+v, want seq 3 and at least one segment removed", snap)
	}
	if files, _ := filepath.Glob(leaderJournal + ".snap.*"); len(files) == 0 {
		t.Fatal("no snapshot file next to the leader journal")
	}

	followerJournal := filepath.Join(dir, "follower.journal")
	follower := startDaemon(t, "-net", campus, "-policies", campusPolicies,
		"-journal", followerJournal, "-follow", leader.url)
	caughtUp(t, follower, 3)
	if h := healthz(t, follower); h.SnapshotSeq != 3 {
		t.Errorf("follower snapshotSeq = %d, want 3 (bootstrapped from the snapshot)", h.SnapshotSeq)
	}
	if l, f := reportSansTiming(t, leader), reportSansTiming(t, follower); !reflect.DeepEqual(l, f) {
		t.Errorf("follower report differs from the leader's:\n leader   %v\n follower %v", l, f)
	}

	var promoted struct {
		Promoted bool `json:"promoted"`
	}
	decode(t, ok(t, "POST", follower.url+"/v1/promote", ""), &promoted)
	if !promoted.Promoted {
		t.Fatal("promotion refused")
	}
	fence := filepath.Join(dir, "fence")
	copyJournal(t, followerJournal, fence)
	ok(t, "POST", follower.url+"/v1/changes", borderEth2(false))
	if h := healthz(t, follower); h.Role != "leader" {
		t.Errorf("promoted follower role = %q, want leader", h.Role)
	}

	probe := startDaemon(t, "-net", campus, "-policies", campusPolicies,
		"-journal", filepath.Join(fence, filepath.Base(followerJournal)), "-follow", leader.url)
	eventually(t, "promoted-epoch replica fenced off the old leader", func() bool {
		return metric(t, probe, "realconfig_repl_fenced_total") >= 1
	})
}

// reportSansTiming returns GET /v1/report decoded, without the
// report's wall-clock timing (which differs between any two applies).
func reportSansTiming(t *testing.T, d daemon) map[string]any {
	t.Helper()
	var r map[string]any
	decode(t, ok(t, "GET", d.url+"/v1/report", ""), &r)
	if rep, isObj := r["report"].(map[string]any); isObj {
		delete(rep, "timing")
	}
	return r
}

// copyJournal copies a journal and its segment and snapshot files
// (path, path.*) into dir.
func copyJournal(t *testing.T, path, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	rest, _ := filepath.Glob(path + ".*")
	for _, src := range append([]string{path}, rest...) {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// metric returns the value of an unlabelled series on d's /v1/metrics
// (-1 if absent).
func metric(t *testing.T, d daemon, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(ok(t, "GET", d.url+"/v1/metrics", "")), "\n") {
		if v, found := strings.CutPrefix(line, name+" "); found {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	return -1
}
