package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/plan"
	"realconfig/internal/policy"
	"realconfig/internal/repl"
	"realconfig/internal/snap"
)

// DefaultTenant is the tenant behind the unprefixed /v1/... routes.
// A daemon with no Tenants configured is exactly the old single-tenant
// rcserved: one verifier, one journal, unlabeled metrics.
const DefaultTenant = "default"

// TenantConfig declares one named tenant: an independent network with
// its own verifier, policies, journal and sequence numbers, served
// under /v1/tenants/{id}/....
type TenantConfig struct {
	// ID names the tenant in URLs and metric labels (see ValidTenantID).
	ID string
	// Net is the tenant's base network snapshot (required).
	Net *netcfg.Network
	// PolicyText is the tenant's initial policy specification ("" = none).
	PolicyText string
	// JournalPath enables the tenant's append-only journal ("" = none).
	// Tenants must not share a journal file.
	JournalPath string
}

// Tenant is one isolated verification domain inside the daemon: its own
// engine, policy set, journal, sequence counter, apply goroutine and
// published snapshot. Tenants share nothing but the process, the HTTP
// listener and the metrics registry (where each writes under its own
// tenant label), so writes to one can never block or corrupt another.
type Tenant struct {
	// ID is the tenant's name ("default" for the unprefixed routes).
	ID string

	applyTimeout time.Duration

	jobs chan *job
	quit chan struct{}
	done chan struct{}

	snap atomic.Pointer[Snapshot]
	log  *slog.Logger

	// reg is the tenant's registry view (tenant-labeled for named
	// tenants); the telemetry middleware registers per-route series on
	// it at request time.
	reg *obs.Registry

	// ready latches once the tenant serves warmed-up state: journal
	// replay done (leaders) plus first full catch-up (followers).
	// /v1/readyz serves it so load balancers and load generators skip a
	// warming daemon.
	ready atomic.Bool

	m     serverMetrics
	planM *plan.Metrics

	// Replication. streamM instruments the leader side (set when a
	// journal exists); follower is set in follower mode and drives the
	// replication loop whose lifecycle followCancel/followDone manage.
	streamM      *repl.StreamMetrics
	follower     atomic.Pointer[repl.Follower]
	followCancel context.CancelFunc
	followDone   chan struct{}

	// Snapshots. snapEvery (entries) and snapBytesEvery (journal bytes)
	// are the automatic-capture triggers (0 = off); journalRetain is the
	// compaction floor (sealed segments always kept). lastSnap mirrors
	// the apply-goroutine-owned lastSnapSeq for handlers; bootstrapURL is
	// the leader's snapshot endpoint in follower mode. promoted latches
	// once a follower is flipped to leader (promoteMu serializes the
	// flip).
	snapEvery      int
	snapBytesEvery int64
	journalRetain  int
	lastSnap       atomic.Uint64
	bootstrapURL   string
	promoted       atomic.Bool
	promoteMu      sync.Mutex

	closeOnce sync.Once
	closeErr  error

	// State below is owned by the tenant's apply goroutine after
	// newTenant returns. lastSnapSeq/snapMark are the automatic snapshot
	// triggers' reference points (sequence and journal-byte odometer at
	// the last capture).
	verifier    *core.Verifier
	policies    []policyEntry
	seq         uint64
	journal     *journal
	lastSnapSeq uint64
	snapMark    int64
}

// newTenant builds a tenant: engine, instruments (on reg, which carries
// the tenant's label base), base state, journal replay, first snapshot,
// apply goroutine. cfg is the daemon's normalised Config.
func newTenant(tc TenantConfig, cfg Config, reg *obs.Registry) (*Tenant, error) {
	if tc.Net == nil {
		return nil, fmt.Errorf("server: tenant %q: Net is required", tc.ID)
	}
	t := &Tenant{
		ID:             tc.ID,
		applyTimeout:   cfg.ApplyTimeout,
		jobs:           make(chan *job, cfg.QueueDepth),
		quit:           make(chan struct{}),
		done:           make(chan struct{}),
		log:            cfg.Logger.With("tenant", tc.ID),
		reg:            reg,
		snapEvery:      cfg.SnapshotEvery,
		snapBytesEvery: cfg.SnapshotBytes,
		journalRetain:  cfg.JournalRetain,
		verifier:       core.New(cfg.Options),
	}
	t.instrument(reg) // before the base load, so the initial full verification is measured too

	// Pick the base state: a usable snapshot beside the journal (restore
	// it and replay only the tail), or the configured network + policy
	// text (replay everything). A compacted journal with no usable
	// snapshot is unrecoverable — entries 1..base are gone.
	var (
		j       *journal
		entries []Entry
		man     *snap.Manifest
		size    int64
	)
	fail := func(err error) (*Tenant, error) {
		if j != nil {
			j.close()
		}
		return nil, err
	}
	if tc.JournalPath != "" {
		var err error
		if j, entries, err = openJournal(tc.JournalPath, cfg.JournalSegmentBytes); err != nil {
			return nil, err
		}
		data, latest, _, err := snap.Latest(tc.JournalPath)
		if err != nil {
			return fail(err)
		}
		// A snapshot older than the compacted base cannot bridge the gap.
		if latest != nil && latest.Seq >= j.compactedThrough() {
			man, size = latest, int64(len(data))
		}
		if man == nil && j.compactedThrough() > 0 {
			return fail(fmt.Errorf("server: tenant %q: journal %s is compacted through seq %d but no usable snapshot exists",
				tc.ID, tc.JournalPath, j.compactedThrough()))
		}
	}
	var lastReport *ReportJSON
	if man == nil {
		rep, err := t.restore(tc.Net, tc.PolicyText, nil, 0)
		if err != nil {
			return fail(fmt.Errorf("server: tenant %q: loading base state: %w", tc.ID, err))
		}
		lastReport = rep
	} else {
		net, err := man.Network()
		if err == nil {
			lastReport, err = t.restore(net, man.PolicyText(), man, size)
		}
		if err != nil {
			return fail(fmt.Errorf("server: tenant %q: restoring snapshot: %w", tc.ID, err))
		}
		if _, ok := j.knownEpoch(); !ok && man.Epoch != 0 {
			if err := j.setEpoch(man.Epoch); err != nil {
				return fail(err)
			}
		}
		// Drop the tail entries the snapshot already folds in, then guard
		// against a crash that left the snapshot ahead of the chain (a
		// bootstrap that persisted its snapshot but died before resetting
		// the journal): restart the chain at the snapshot.
		if skip := man.Seq - j.compactedThrough(); skip >= uint64(len(entries)) {
			entries = nil
		} else {
			entries = entries[skip:]
		}
		if man.Seq > j.LastSeq() {
			if err := j.resetTo(man.Seq); err != nil {
				return fail(err)
			}
		}
		t.log.Info("restored from snapshot",
			"path", tc.JournalPath, "seq", man.Seq, "tail_entries", len(entries))
	}
	if j != nil {
		j.appends = t.m.journalAppends
		j.appendSeconds = t.m.journalAppendSeconds
		j.fsyncSeconds = t.m.journalFsyncSeconds
		j.rotations = t.m.journalRotations
		j.compactions = t.m.snapCompactions
		t.journal = j
		t.streamM = repl.NewStreamMetrics(reg)
		if j.tornBytes > 0 {
			t.log.Warn("journal recovered from a torn tail",
				"path", tc.JournalPath, "truncated_bytes", j.tornBytes)
		}
		t0 := time.Now()
		for i, e := range entries {
			rep, err := t.applyEntry(e)
			if err != nil {
				return fail(fmt.Errorf("server: tenant %q: replaying journal entry %d (%s): %w", tc.ID, i+1, e.Op, err))
			}
			t.seq++
			t.m.journalReplayed.Inc()
			if rep != nil {
				lastReport = rep
			}
			if (i+1)%1000 == 0 {
				t.log.Info("journal replay progress",
					"entries", i+1, "total", len(entries),
					"elapsed_ms", time.Since(t0).Milliseconds())
			}
		}
		if len(entries) > 0 {
			t.log.Info("journal replayed",
				"path", tc.JournalPath, "entries", len(entries),
				"seq", t.seq, "elapsed_ms", time.Since(t0).Milliseconds())
		}
	}
	t.snap.Store(buildSnapshot(t.verifier, t.seq, lastReport))
	t.m.snapshotPublishes.Inc()
	go t.applyLoop()
	// Leaders are ready the moment replay finishes; followers stay
	// not-ready until the replication stream first fully catches up.
	t.ready.Store(cfg.FollowURL == "")
	if cfg.FollowURL != "" {
		if err := t.startFollower(cfg, reg); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// restore replaces the tenant's engine state with a base: net and the
// policies of policyText, loaded from scratch. man is the snapshot
// manifest the base comes from, size its file's length (nil = the
// configured base at seq 0): restore then moves seq and the snapshot
// bookkeeping (lastSnapSeq, lastSnap, both snapshot gauges) to the
// manifest, and returns the last report it carries, if any, in place
// of the load's. Journal steps are the caller's. Runs before the apply
// goroutine starts, or on it.
func (t *Tenant) restore(net *netcfg.Network, policyText string, man *snap.Manifest, size int64) (*ReportJSON, error) {
	for _, e := range t.policies {
		t.verifier.RemovePolicy(e.name)
	}
	t.policies = nil
	rep, err := t.verifier.Load(net)
	if err != nil {
		return nil, err
	}
	if err := t.addPolicyText(policyText); err != nil {
		return nil, err
	}
	last := reportJSON(rep)
	if man == nil {
		return last, nil
	}
	t.seq, t.lastSnapSeq = man.Seq, man.Seq
	t.lastSnap.Store(man.Seq)
	t.m.snapLastSeq.Set(int64(man.Seq))
	t.m.snapBytes.Set(size)
	if len(man.LastReport) > 0 {
		var rj ReportJSON
		if json.Unmarshal(man.LastReport, &rj) == nil {
			last = &rj
		}
	}
	return last, nil
}

// Ready reports whether the tenant serves warmed-up state: journal
// replay complete and, in follower mode, the replication stream caught
// up to the leader at least once. Latches true — transient replication
// lag after the first catch-up does not flip a tenant back to warming.
func (t *Tenant) Ready() bool {
	if t.ready.Load() {
		return true
	}
	if f := t.Follower(); f != nil && f.Connected() && f.LagSeq() == 0 {
		t.ready.Store(true)
		return true
	}
	return false
}

// startFollower wires and launches the replication loop: this tenant
// becomes a read replica of the same-named tenant on the leader,
// resuming from the sequence its local journal replay recovered.
func (t *Tenant) startFollower(cfg Config, reg *obs.Registry) error {
	base := strings.TrimSuffix(cfg.FollowURL, "/") + "/v1"
	if t.ID != DefaultTenant {
		base += "/tenants/" + t.ID
	}
	t.bootstrapURL = base + "/snapshot/latest"
	// A replica with no local state first tries the leader's snapshot:
	// restore-plus-tail beats replaying the whole history, and it is the
	// only way in once the leader has compacted. Best-effort — a leader
	// without snapshots (404) just means full-stream replay as before.
	if t.Snapshot().Seq == 0 {
		ctx, cancel := context.WithTimeout(context.Background(), startupBootstrapTimeout)
		if err := t.bootstrapFromLeader(ctx); err != nil && !errors.Is(err, errNoLeaderSnapshot) {
			t.log.Warn("startup snapshot bootstrap failed; falling back to full-stream replay", "err", err)
		}
		cancel()
	}
	fc := repl.FollowerConfig{
		StreamURL:   base + "/journal/stream",
		From:        func() uint64 { return t.Snapshot().Seq },
		Apply:       t.applyReplicated,
		Rebootstrap: t.bootstrapFromLeader,
		Backoff:     cfg.replBackoff,
		MaxBackoff:  cfg.replMaxBackoff,
		Log:         t.log.With("role", "follower"),
		Metrics:     repl.NewFollowerMetrics(reg),
	}
	if t.journal != nil {
		fc.Epoch = t.journal.knownEpoch
		fc.SetEpoch = t.journal.setEpoch
	}
	f, err := repl.NewFollower(fc)
	if err != nil {
		return err
	}
	t.follower.Store(f)
	reg.GaugeFunc("realconfig_repl_lag_seq",
		"Sequence numbers the replica is behind the leader's last reported position.", nil,
		func() float64 { return float64(f.LagSeq()) })
	reg.GaugeFunc("realconfig_repl_lag_seconds",
		"Seconds since the leader last confirmed the stream position (grows while disconnected).", nil,
		f.LagSeconds)
	ctx, cancel := context.WithCancel(context.Background())
	t.followCancel = cancel
	t.followDone = make(chan struct{})
	go func() {
		defer close(t.followDone)
		if err := f.Run(ctx); err != nil && ctx.Err() == nil {
			t.log.Error("replication stopped", "err", err)
		}
	}()
	return nil
}

// applyReplicated replays one leader journal record through the write
// door, keeping the leader's bytes. It waits for queue space: a
// replication entry must never be dropped for a momentarily full queue.
func (t *Tenant) applyReplicated(ctx context.Context, rec repl.Record) error {
	var e Entry
	if err := json.Unmarshal(rec.Data, &e); err != nil {
		return fmt.Errorf("decoding replicated entry: %w", err)
	}
	e.raw = rec.Data
	_, err := t.do(ctx, func() (any, error) {
		if t.seq+1 != rec.Seq {
			return nil, fmt.Errorf("replica at seq %d cannot apply seq %d", t.seq, rec.Seq)
		}
		return t.commit(e)
	}, waitForRoom)
	return err
}

// instrument wires the tenant's instruments on reg: the engine
// registers every pipeline stage, then the serving-layer metrics.
func (t *Tenant) instrument(reg *obs.Registry) {
	t.verifier.Instrument(reg)
	t.planM = plan.NewMetrics(reg)
	t.m = serverMetrics{
		applySeconds:      reg.Histogram("realconfig_server_apply_seconds", "POST /v1/changes latency (queueing, verification, journaling).", nil, nil),
		whatifSeconds:     reg.Histogram("realconfig_server_whatif_seconds", "POST /v1/whatif latency (capture plus speculative verification).", nil, nil),
		planSeconds:       reg.Histogram("realconfig_server_plan_seconds", "POST /v1/plan latency (capture, bootstrap, search, journaling).", nil, nil),
		applies:           reg.Counter("realconfig_server_applies_total", "Successfully applied change batches.", nil),
		applyErrors:       reg.Counter("realconfig_server_apply_errors_total", "Failed or rejected change batches.", nil),
		whatifs:           reg.Counter("realconfig_server_whatifs_total", "Completed what-if verifications.", nil),
		planErrors:        reg.Counter("realconfig_server_plan_errors_total", "Failed or rejected plan requests.", nil),
		journalReplayed:   reg.Counter("realconfig_server_journal_replayed_total", "Journal entries replayed at startup.", nil),
		snapshotPublishes: reg.Counter("realconfig_server_snapshot_publishes_total", "Immutable snapshots published for lock-free readers.", nil),
		journalAppends:    reg.Counter("realconfig_server_journal_appends_total", "Entries durably appended to the change journal.", nil),
		journalAppendSeconds: reg.Histogram("realconfig_server_journal_append_seconds",
			"Durable journal append latency (marshal, write, flush, fsync).", nil, nil),
		journalFsyncSeconds: reg.Histogram("realconfig_server_journal_fsync_seconds",
			"Journal fsync latency alone.", nil, nil),
		journalRotations: reg.Counter("realconfig_server_journal_rotations_total", "Journal segments sealed by size-based rotation.", nil),
		snapLastSeq:      reg.Gauge("realconfig_snap_last_seq", "Sequence number of the newest durable state snapshot (0 = none).", nil),
		snapBytes:        reg.Gauge("realconfig_snap_bytes", "Size in bytes of the newest durable state snapshot.", nil),
		snapCompactions:  reg.Counter("realconfig_snap_compactions_total", "Journal compactions performed (sealed segments folded into a snapshot and deleted).", nil),
	}
	t.m.queueWaitSeconds = reg.Histogram("realconfig_server_queue_wait_seconds",
		"Time a job spent queued before the apply goroutine picked it up.", nil, nil)
	reg.GaugeFunc("realconfig_server_queue_depth", "Jobs waiting in the apply queue.", nil,
		func() float64 { return float64(len(t.jobs)) })
	reg.GaugeFunc("realconfig_server_queue_capacity", "Apply queue capacity.", nil,
		func() float64 { return float64(cap(t.jobs)) })
}

// addPolicyText parses and registers a multi-line policy specification,
// recording each policy's source line for forks and removals.
func (t *Tenant) addPolicyText(text string) error {
	ps, err := core.ParsePolicies(text)
	if err != nil {
		return err
	}
	lines := policyLines(text)
	if len(lines) != len(ps) {
		return fmt.Errorf("server: policy text has %d lines but parsed %d policies", len(lines), len(ps))
	}
	for i, p := range ps {
		if t.findPolicy(p.Name()) >= 0 {
			return fmt.Errorf("server: duplicate policy %q", p.Name())
		}
		t.verifier.AddPolicy(p)
		t.policies = append(t.policies, policyEntry{name: p.Name(), line: lines[i]})
	}
	return nil
}

func (t *Tenant) findPolicy(name string) int {
	for i, e := range t.policies {
		if e.name == name {
			return i
		}
	}
	return -1
}

// registeredLines returns the registered policies' source lines in
// registration order: the snapshot capture input. Apply
// goroutine only.
func (t *Tenant) registeredLines() []string {
	lines := make([]string, 0, len(t.policies))
	for _, e := range t.policies {
		lines = append(lines, e.line)
	}
	return lines
}

// applyEntry executes one journaled write against the live engine: the
// one path replay, followers and the leader's write door all take. It
// never journals, so replay is idempotent with respect to the file.
func (t *Tenant) applyEntry(e Entry) (*ReportJSON, error) {
	switch e.Op {
	case opChanges:
		changes := e.batch
		if changes == nil {
			var err error
			if changes, err = netcfg.DecodeChanges(e.Changes); err != nil {
				return nil, err
			}
		}
		t.verifier.SetTraceContext(e.reqID, t.seq+1)
		rep, err := t.verifier.Apply(changes...)
		if err != nil {
			return nil, err
		}
		return reportJSON(rep), nil
	case opPolicyAdd:
		return nil, t.addPolicyText(e.Line)
	case opPolicyRemove:
		i := t.findPolicy(e.Name)
		if i < 0 {
			return nil, fmt.Errorf("no policy %q", e.Name)
		}
		t.verifier.RemovePolicy(e.Name)
		t.policies = append(t.policies[:i], t.policies[i+1:]...)
		return nil, nil
	case opPlan:
		return nil, nil // audit record; planning changes no state
	}
	return nil, fmt.Errorf("unknown journal op %q", e.Op)
}

// commit is the tenant's one write door. Each entry in turn is executed
// by applyEntry, appended to the journal and given the next seq; then
// the state is published once, with the last report an entry produced,
// and the automatic snapshot triggers run. A failed entry stops the
// batch before its append, so the entries before it stay committed.
// Apply goroutine only.
func (t *Tenant) commit(es ...Entry) (*ReportJSON, error) {
	var last *ReportJSON
	for _, e := range es {
		rep, err := t.applyEntry(e)
		if err != nil {
			return nil, err
		}
		if t.journal != nil {
			if err := t.journal.append(e); err != nil {
				return nil, fmt.Errorf("applied but not journaled: %w", err)
			}
		}
		t.seq++
		if rep != nil {
			last = rep
		}
	}
	t.publish(last)
	t.maybeSnapshot()
	return last, nil
}

// fork captures the live network (a pointer: the ownership rule on
// netcfg.Network), the compiled policies and seq on the apply
// goroutine, and builds a fresh verifier over them on the caller's
// goroutine, so what-ifs and plans run off the write path and never
// touch the live engine.
func (t *Tenant) fork(ctx context.Context) (*core.Verifier, uint64, error) {
	type capture struct {
		net  *netcfg.Network
		ps   []policy.Policy
		opts core.Options
		seq  uint64
	}
	res, err := t.do(ctx, func() (any, error) {
		return capture{t.verifier.Network(), t.verifier.Checker().Policies(), t.verifier.Options(), t.seq}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	c := res.(capture)
	v, _, err := core.Build(c.opts, c.net, c.ps)
	return v, c.seq, err
}

// applyLoop is the tenant's single writer: it drains the job queue one
// job at a time until close.
func (t *Tenant) applyLoop() {
	defer close(t.done)
	for {
		select {
		case <-t.quit:
			return
		case j := <-t.jobs:
			t.m.queueWaitSeconds.ObserveDuration(time.Since(j.enq))
			if j.ctx.Err() != nil {
				j.done <- jobResult{err: j.ctx.Err()}
				continue // requester gave up while queued; skip the work
			}
			v, err := j.run()
			j.done <- jobResult{v: v, err: err}
		}
	}
}

// onFull says what do does when the apply queue is full.
type onFull int

const (
	failFast    onFull = iota // answer errQueueFull (HTTP: 503); the default
	waitForRoom               // wait for a slot (replication and bootstrap)
)

// do submits fn to the tenant's apply goroutine and waits for its
// result, the request deadline, or shutdown. A full queue fails fast
// with errQueueFull unless the caller passes waitForRoom: then do waits
// for a slot, where dropping a job would stall replication for a full
// backoff cycle.
func (t *Tenant) do(ctx context.Context, fn func() (any, error), full ...onFull) (any, error) {
	j := &job{ctx: ctx, run: fn, enq: time.Now(), done: make(chan jobResult, 1)}
	select {
	case t.jobs <- j:
	default:
		if len(full) == 0 || full[0] == failFast {
			return nil, errQueueFull
		}
		select {
		case t.jobs <- j:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.quit:
			return nil, errShutdown
		}
	}
	select {
	case r := <-j.done:
		return r.v, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.quit:
		return nil, errShutdown
	}
}

// publish rebuilds and atomically installs the snapshot. Runs on the
// tenant's apply goroutine.
func (t *Tenant) publish(rep *ReportJSON) {
	if rep == nil {
		rep = t.snap.Load().LastReport
	}
	t.snap.Store(buildSnapshot(t.verifier, t.seq, rep))
	t.m.snapshotPublishes.Inc()
}

// Snapshot returns the tenant's current published snapshot (never nil).
func (t *Tenant) Snapshot() *Snapshot { return t.snap.Load() }

// Verifier returns the tenant's verifier.
func (t *Tenant) Verifier() *core.Verifier { return t.verifier }

// close stops the replication loop (if any), then the apply goroutine,
// then closes the journal (which ends any attached replica streams).
// Idempotent: later calls return the first result.
func (t *Tenant) close() error {
	t.closeOnce.Do(func() {
		if t.followCancel != nil {
			t.followCancel()
			<-t.followDone
		}
		close(t.quit)
		<-t.done
		if t.journal != nil {
			t.closeErr = t.journal.close()
		}
	})
	return t.closeErr
}

// Follower returns the tenant's replication loop (nil on a leader).
func (t *Tenant) Follower() *repl.Follower { return t.follower.Load() }

// ---- Tenant routing ----

// ValidTenantID reports whether id can name a tenant: 1-64 characters
// from [a-z0-9._-], starting and ending with a letter or digit. The
// grammar keeps ids safe in URLs, file names and metric label values
// without escaping.
func ValidTenantID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	alnum := func(c byte) bool {
		return c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
	}
	if !alnum(id[0]) || !alnum(id[len(id)-1]) {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !alnum(c) && c != '.' && c != '_' && c != '-' {
			return false
		}
	}
	return true
}

// SplitTenantPath splits a tenant-prefixed request path into the tenant
// id and the equivalent unprefixed path:
//
//	/v1/tenants/acme/changes -> ("acme", "/v1/changes", true)
//	/v1/tenants/acme         -> ("acme", "", true)  (tenant detail)
//	/v1/changes              -> ("", "", false)     (not tenant-prefixed)
//
// ok is false for paths outside /v1/tenants/ and for malformed tenant
// ids, so the caller can distinguish "route normally" from "reject".
func SplitTenantPath(path string) (id, rest string, ok bool) {
	const prefix = "/v1/tenants/"
	tail, found := strings.CutPrefix(path, prefix)
	if !found {
		return "", "", false
	}
	if i := strings.IndexByte(tail, '/'); i >= 0 {
		id, rest = tail[:i], "/v1"+tail[i:]
	} else {
		id = tail
	}
	if !ValidTenantID(id) {
		return "", "", false
	}
	return id, rest, true
}
