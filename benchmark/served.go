package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"realconfig/internal/netcfg"
	"realconfig/internal/server"
	"realconfig/internal/simulate"
	"realconfig/internal/trace"
)

// readPeriod is the reader's fixed schedule: a poller that does not
// coordinate with applies.
const readPeriod = 10 * time.Millisecond

// daemon is an in-process rcserved: the server engine behind a real
// http.Server on a loopback listener.
type daemon struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	url     string
	journal string
}

// serve builds the network and the server over it; with a journal the
// daemon appends and fsyncs every write to a file under dir.
func (s spec) serve(dir string, journal bool) (*daemon, error) {
	net_, err := s.build()
	if err != nil {
		return nil, err
	}
	d := &daemon{served: make(chan error, 1)}
	if journal {
		d.journal = filepath.Join(dir, "journal.jsonl")
	}
	d.srv, err = server.New(server.Config{Net: net_.Network, PolicyText: s.policyText(net_), JournalPath: d.journal})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener, waits for the serving goroutine, and closes
// the engine (its apply goroutine and journal).
func (d *daemon) close() error {
	err := d.hs.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.srv.Close())
}

// newClient returns a client that keeps exactly one keep-alive
// connection, so writer plus reader are exactly two.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// exchange sends one request body and returns the status and the whole
// response body.
type exchange func(method, path string, body []byte) (int, []byte, error)

func (d *daemon) overLoopback(c *http.Client) exchange {
	return func(method, path string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
}

// inProcess calls the daemon's handler directly, with no socket between.
func (d *daemon) inProcess() exchange {
	h := d.srv.Handler()
	return func(method, path string, body []byte) (int, []byte, error) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return w.Code, w.Body.Bytes(), nil
	}
}

type changesBody struct {
	Changes []json.RawMessage `json:"changes"`
}

type applyReply struct {
	Seq    uint64             `json:"seq"`
	Report *server.ReportJSON `json:"report"`
}

type verdictsReply struct {
	Seq      uint64           `json:"seq"`
	Verdicts []server.Verdict `json:"verdicts"`
}

// postEngine posts each batch to /v1/changes. The op is timed from the
// request leaving to the response fully read; encoding the request and
// decoding the reply are the caller's and untimed.
func postEngine(do exchange) engine {
	return func(batch []netcfg.Change) (opInfo, error) {
		raws, err := netcfg.EncodeChanges(batch)
		if err != nil {
			return opInfo{}, err
		}
		body, err := json.Marshal(changesBody{Changes: raws})
		if err != nil {
			return opInfo{}, err
		}
		t0 := time.Now()
		status, reply, err := do(http.MethodPost, "/v1/changes", body)
		dur := time.Since(t0)
		if err != nil {
			return opInfo{}, err
		}
		if status != http.StatusOK {
			return opInfo{}, fmt.Errorf("POST /v1/changes: status %d: %s", status, reply)
		}
		var ar applyReply
		if err := json.Unmarshal(reply, &ar); err != nil || ar.Report == nil {
			return opInfo{}, fmt.Errorf("POST /v1/changes: bad reply %q: %v", reply, err)
		}
		return opInfo{dur: dur, rulesIns: ar.Report.RulesInserted, rulesDel: ar.Report.RulesDeleted,
			events: len(ar.Report.Violated) + len(ar.Report.Repaired)}, nil
	}
}

// readSample is one scheduled GET /v1/verdicts.
type readSample struct {
	due    time.Time
	latMS  float64 // to the response fully read, from when the read should have left
	lateMS float64 // how late the generator's own wake-up sent it
	err    error
}

// poll reads /v1/verdicts every readPeriod, open loop on one connection,
// until ctx ends: a read is due on schedule whether or not the previous
// one is back. A read the previous one held up is timed from the instant
// it was due, so the wait a stall imposes on later reads counts. A read
// that was free to leave on time is timed from when it left: its timer's
// wake-up lateness is the generator's, several times a read on this box,
// and is reported on its own instead.
func poll(ctx context.Context, do exchange) []readSample {
	var out []readSample
	start := time.Now()
	var prevDone time.Time
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * readPeriod)
		select {
		case <-ctx.Done():
			return out
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		from, late := sent, sent.Sub(due)
		if prevDone.After(due) {
			from, late = due, 0
		}
		status, _, err := do(http.MethodGet, "/v1/verdicts", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET /v1/verdicts: status %d", status)
		}
		prevDone = time.Now()
		out = append(out, readSample{due: due, latMS: ms(prevDone.Sub(from)), lateMS: ms(late), err: err})
	}
}

// sideStats is one side of the served mix, the writer's or the reader's.
type sideStats struct {
	p50, p99, rate float64
	n              int
}

// runServed is the gated run of both served workloads: the same mixed
// load, reported from the writer's or from the reader's side.
func runServed(s spec, c config) (*record, error) {
	rec := newRecord(s, c)
	rec.Notes = append(rec.Notes, "transport is loopback HTTP/1.1 keep-alive in one process; fsync and socket times are this sandbox's, not a device's")
	dir, err := os.MkdirTemp(workDir, "served-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var d *daemon
	n := 0
	setups, err := repeatSetup(c,
		func() error {
			if d == nil {
				return nil
			}
			err := d.close()
			d = nil
			return err
		},
		func() error {
			n++
			sub := filepath.Join(dir, fmt.Sprint(n))
			if err := os.Mkdir(sub, 0o755); err != nil {
				return err
			}
			d, err = s.serve(sub, true)
			return err
		})
	if err != nil {
		return nil, err
	}
	defer d.close()

	net_, err := s.build()
	if err != nil {
		return nil, err
	}
	next := s.rounds(net_, c.seed)
	writer, reader := newClient(), newClient()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	post := postEngine(d.overLoopback(writer))

	ctx, stop := context.WithCancel(context.Background())
	var reads []readSample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = poll(ctx, d.overLoopback(reader))
	}()
	foot := drive(next, post, s.footprintRounds(), 0)
	rss, err := peakRSSMB()
	if err != nil {
		stop()
		wg.Wait()
		return nil, err
	}
	warm := drive(next, post, 1, c.warmup)
	runtime.GC()
	from := time.Now()
	p := drive(next, post, 1, c.window)
	to := time.Now()
	stop()
	wg.Wait()

	var latMS, lateMS []float64
	readFailed := 0
	for _, r := range reads {
		if r.due.Before(from) || r.due.After(to) {
			continue
		}
		if r.err != nil {
			readFailed++
			fmt.Printf("read failed: %v\n", r.err)
			continue
		}
		latMS = append(latMS, r.latMS)
		lateMS = append(lateMS, r.lateMS)
	}
	rec.count(foot)
	rec.count(warm)
	rec.count(p)
	rec.Attempted, rec.Failed = rec.Attempted+len(latMS)+readFailed, rec.Failed+readFailed
	rec.set("setup_s", median(setups), len(setups))
	rec.set("peak_rss_mb", rss, 1)
	writes := sideStats{median(p.opMS), quantile(p.opMS, 0.99), p.opsPerS(), len(p.opMS)}
	polls := sideStats{median(latMS), quantile(latMS, 0.99), float64(len(latMS)) / to.Sub(from).Seconds(), len(latMS)}
	own, other, otherName := writes, polls, "read"
	if s.kind == kindReads {
		own, other, otherName = polls, writes, "write"
	}
	rec.set("op_p50_ms", own.p50, own.n)
	rec.set("ops_per_s", own.rate, own.n)
	rec.diag("op_p99_ms", "ms", own.p99, own.n)
	rec.diag(otherName+"_p50_ms", "ms", other.p50, other.n)
	rec.diag(otherName+"_p99_ms", "ms", other.p99, other.n)
	rec.diag(otherName+"s_per_s", "1/s", other.rate, other.n)
	rec.diag("read_lateness_p99_ms", "ms", quantile(lateMS, 0.99), len(lateMS))

	rec.check("no op failed", rec.Failed == 0, fmt.Sprintf("%d of %d", rec.Failed, rec.Attempted))
	checkFlips(rec, p.infos)
	checkDaemon(rec, s, d, d.overLoopback(writer), uint64(foot.attempted+warm.attempted+p.attempted))
	return rec, nil
}

// checkDaemon checks a daemon that has returned to the base network: the
// verdicts it serves over HTTP against a fresh Bootstrap, its rule count
// against the from-scratch simulator (the FIB itself is not served), and
// its sequence number against the writes it acknowledged.
func checkDaemon(rec *record, s spec, d *daemon, do exchange, writes uint64) {
	status, body, err := do(http.MethodGet, "/v1/verdicts", nil)
	var vr verdictsReply
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &vr)
	}
	if err != nil || status != http.StatusOK {
		rec.check("GET /v1/verdicts", false, fmt.Sprintf("status %d: %v", status, err))
		return
	}
	rec.check("every acknowledged write is in the sequence number", vr.Seq == writes, fmt.Sprintf("seq %d, %d writes", vr.Seq, writes))
	got := make(map[string]bool, len(vr.Verdicts))
	for _, v := range vr.Verdicts {
		got[v.Policy] = v.Satisfied
	}
	fresh, _, err := s.bootstrap()
	if err != nil {
		rec.check("fresh Bootstrap of base network", false, err.Error())
		return
	}
	rec.check("served verdicts equal a fresh Bootstrap", sameVerdicts(got, fresh.Verdicts()), fmt.Sprintf("%d verdicts", len(got)))
	want, err := simulate.Run(fresh.Network())
	if err != nil {
		rec.check("simulate base network", false, err.Error())
		return
	}
	rules := d.srv.Snapshot().FIBRules
	rec.check("served rule count equals simulate.Run", rules == len(want.Rules), fmt.Sprintf("%d rules, want %d", rules, len(want.Rules)))
}

// runServedTraced is the per-layer run of the served workloads. The
// layers outside the engine come from paired subtraction over the same
// seeded write sequence, run one configuration after the other:
//
//	transport = loopback client - handler called in process
//	journal   = handler with journal - handler without
//	server    = handler without journal - bare decode + Verifier.Apply
//
// and the engine's own layers from the traced pipeline on that sequence.
func runServedTraced(s spec, c config) (*record, error) {
	rec := newRecord(s, c)
	rec.Notes = append(rec.Notes, "writer only: the reader is left out so that the subtractions are between like runs")
	dir, err := os.MkdirTemp(workDir, "served-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	net_, err := s.build()
	if err != nil {
		return nil, err
	}
	warmRounds, each := s.tracedWarmRounds(), c.window/5
	measure := func(apply engine) phase {
		next := s.rounds(net_, c.seed)
		rec.count(drive(next, apply, warmRounds, 0))
		runtime.GC()
		p := drive(next, apply, 1, each)
		rec.count(p)
		return p
	}

	withJournal, err := s.serve(dir, true)
	if err != nil {
		return nil, err
	}
	defer withJournal.close()
	client := newClient()
	defer client.CloseIdleConnections()
	loop := measure(postEngine(withJournal.overLoopback(client)))
	size0, err := fileSize(withJournal.journal)
	if err != nil {
		return nil, err
	}
	inproc := measure(postEngine(withJournal.inProcess()))
	size1, err := fileSize(withJournal.journal)
	if err != nil {
		return nil, err
	}
	_, verdictsBody, err := withJournal.overLoopback(client)(http.MethodGet, "/v1/verdicts", nil)
	if err != nil {
		return nil, err
	}

	noJournal, err := s.serve(dir, false)
	if err != nil {
		return nil, err
	}
	defer noJournal.close()
	bare := measure(postEngine(noJournal.inProcess()))

	v, _, err := s.bootstrap()
	if err != nil {
		return nil, err
	}
	plain := measure(func(batch []netcfg.Change) (opInfo, error) {
		raws, err := netcfg.EncodeChanges(batch)
		if err != nil {
			return opInfo{}, err
		}
		t0 := time.Now()
		decoded, err := netcfg.DecodeChanges(raws)
		if err != nil {
			return opInfo{}, err
		}
		rep, err := v.Apply(decoded...)
		if err != nil {
			return opInfo{}, err
		}
		return reportInfo(rep, time.Since(t0)), nil
	})

	ring := trace.NewRecorder(traceRing)
	fresh, err := s.build()
	if err != nil {
		return nil, err
	}
	pl := newPipeline(ring)
	if _, err := pl.load(fresh.Network, s.policyText(fresh)); err != nil {
		return nil, err
	}
	traced := measure(func(batch []netcfg.Change) (opInfo, error) {
		raws, err := netcfg.EncodeChanges(batch)
		if err != nil {
			return opInfo{}, err
		}
		return pl.applyRaw(nil, raws)
	})

	phases := []phase{loop, inproc, bare, plain, traced}
	got := layerMetrics(traced, median(plain.opMS))
	a, b, cNoJ, dBare := median(loop.opMS), median(inproc.opMS), median(bare.opMS), median(plain.opMS)
	// The root is now the client's: the engine has the verifier's share of
	// it, split as the traced pipeline measured, and the rest is the
	// outer layers'.
	got["root_ms"], got["self_sum_share"] = a, 0
	for j, l := range layers {
		if j < engineLayers {
			got[l+"_share"] *= dBare / a
		} else {
			self := map[string]float64{"transport": a - b, "journal": b - cNoJ, "server": cNoJ - dBare}[l]
			got[l+"_share"] = self / a
			rec.diag(l+"_self_ms", "ms", self, len(loop.opMS))
		}
		got["self_sum_share"] += got[l+"_share"]
	}
	got["journal_bytes"] = float64(size1-size0) / float64(inproc.attempted+2*warmRounds) // the warm rounds, two writes each, were journaled too
	got["read_bytes"] = float64(len(verdictsBody))
	for _, d := range perLayer {
		rec.set(d.Name, got[d.Name], len(traced.opMS))
	}
	rec.diag("loopback_p50_ms", "ms", a, len(loop.opMS))
	rec.diag("handler_p50_ms", "ms", b, len(inproc.opMS))
	rec.diag("handler_nojournal_p50_ms", "ms", cNoJ, len(bare.opMS))
	rec.diag("verifier_p50_ms", "ms", dBare, len(plain.opMS))

	rec.check("no op failed", rec.Failed == 0, fmt.Sprintf("%d of %d", rec.Failed, rec.Attempted))
	n := len(traced.infos)
	same := n > 0
	for _, p := range phases {
		n = min(n, len(p.infos))
	}
	for _, p := range phases {
		for i := 0; i < n && same; i++ {
			same = p.infos[i].fingerprint() == traced.infos[i].fingerprint()
		}
	}
	rec.check("all five configurations report the same rule counts and flips", same, fmt.Sprintf("%d ops compared", n))
	rec.check("traced pipeline ends on the verifier's verdicts", sameVerdicts(v.Verdicts(), pl.checker.Verdicts()), "")
	rec.check("layer self times sum to within 5% of the root", within(got["self_sum_share"], 1, 0.05),
		fmt.Sprintf("sum/root = %.4f", got["self_sum_share"]))
	return rec, writeTrace(rec, ring)
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
