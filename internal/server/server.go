// Package server is rcserved's engine: a long-running HTTP service that
// owns one verification engine per tenant for its lifetime, so every
// configuration change is verified incrementally against warm state
// instead of from scratch.
//
// Concurrency model (single writer per tenant, lock-free readers):
//
//   - All access to a tenant's engine happens on that tenant's apply
//     goroutine. Writes (change batches, policy ops) and live-state
//     reads (traces, what-if captures) are submitted as jobs on a
//     bounded queue and executed strictly one at a time, in arrival
//     order. Tenants apply concurrently with each other: they share no
//     verifier state, no journal and no queue.
//   - After every write the apply goroutine builds an immutable Snapshot
//     (verdicts, violations, last report, counters) and publishes it via
//     an atomic pointer. GET /v1/verdicts, /v1/report and /v1/healthz
//     serve the snapshot directly: concurrent readers never block behind
//     a verification and can never observe a torn state.
//   - Every live write goes through one door (Tenant.commit): it runs
//     each journal entry through applyEntry, the path replay and
//     followers take, appends it, and advances the sequence number.
//   - What-if sessions fork cheaply: the apply goroutine captures the
//     current network (shared copy-on-write) plus the registered policy
//     lines (fast), and the speculative verification runs on the request
//     goroutine against a brand-new verifier, leaving both the live
//     engine and the apply queue untouched.
//
// Multi-tenancy: named tenants configured via Config.Tenants are served
// under /v1/tenants/{id}/... — the same API, routed to that tenant's
// engine. The unprefixed /v1/... routes alias the "default" tenant, so
// a single-tenant daemon is indistinguishable from the pre-tenant one.
// Each tenant owns an isolated journal and writes its metrics under a
// tenant label; the default tenant's series stay unlabeled.
//
// Durability: with a journal configured, every successful write is
// appended as a JSON line after it is applied. On startup the journal is
// replayed over the base snapshot, recovering the exact live state
// (including the sequence number) without re-verifying from scratch at
// the API level.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/repl"
	"realconfig/internal/trace"
)

// Config configures a Server.
type Config struct {
	// Net is the default tenant's base network snapshot (required).
	Net *netcfg.Network
	// PolicyText is the default tenant's initial policy specification
	// ("" = none). It is part of the base state, not the journal:
	// restarts must supply the same text to reproduce verdicts.
	PolicyText string
	// Options configures the underlying verifiers (all tenants).
	Options core.Options
	// JournalPath enables the default tenant's append-only change
	// journal ("" = none).
	JournalPath string
	// JournalSegmentBytes seals a journal file into a numbered segment
	// once an append pushes it past this size (0 = one unbounded file).
	// Applies to every tenant's journal. Negative values are rejected.
	JournalSegmentBytes int64
	// FollowURL turns the daemon into a read replica of the leader at
	// this base URL ("" = leader mode). Every tenant follows the
	// same-named tenant on the leader: it replays the leader's journal
	// stream into its own engine, serves reads from lock-free
	// snapshots, and rejects writes with 503 plus a Leader hint. The
	// replica must be started from the same base snapshot and policy
	// text as the leader — replication ships only the journal.
	FollowURL string
	// ReplHeartbeat is the leader's idle-stream heartbeat interval
	// (0 = repl.DefaultHeartbeat).
	ReplHeartbeat time.Duration
	// ReplBackoff/ReplMaxBackoff tune the follower's jittered reconnect
	// backoff (0 = repl defaults; mostly for tests).
	ReplBackoff    time.Duration
	ReplMaxBackoff time.Duration
	// SnapshotEvery captures an automatic state snapshot (and compacts
	// the journal behind it) every N journaled entries (0 = only on
	// explicit POST /v1/snapshot). Applies to every journal-backed
	// tenant.
	SnapshotEvery int
	// SnapshotBytes captures an automatic snapshot once this many bytes
	// have been appended to the journal since the last one (0 = off).
	SnapshotBytes int64
	// JournalRetain is the compaction floor: the newest N sealed journal
	// segments are never deleted, so slightly-lagging replicas can still
	// resume by sequence number instead of re-bootstrapping (0 = every
	// segment a snapshot covers is deletable).
	JournalRetain int
	// Tenants declares additional named tenants, each with its own
	// network, policies and journal.
	Tenants []TenantConfig
	// QueueDepth bounds each tenant's apply queue (0 = 64). Writes
	// beyond it are rejected with 503 instead of queueing without bound.
	QueueDepth int
	// ApplyTimeout bounds how long a request waits for its job (queueing
	// plus verification; 0 = 30s).
	ApplyTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: profiling endpoints are opt-in on a daemon).
	EnablePprof bool
	// Logger receives the daemon's structured logs (nil = discard). Every
	// request-scoped line carries the req_id the middleware assigned.
	Logger *slog.Logger
}

// Server is the daemon engine. Create with New, serve via Handler, stop
// with Close.
type Server struct {
	tenants map[string]*Tenant
	ids     []string // sorted tenant ids
	def     *Tenant  // tenants[DefaultTenant]

	mux   *http.ServeMux
	h     http.Handler // mux wrapped in the tenant-routing and req_id middleware
	start time.Time

	// follow is the leader base URL when this daemon is a read replica
	// ("" on a leader); heartbeat paces idle replication streams.
	follow    string
	heartbeat time.Duration

	log    *slog.Logger
	reqSeq atomic.Uint64

	// reg carries every tenant's instruments (named tenants under a
	// tenant label) plus the server's own; /v1/metrics serves it.
	reg *obs.Registry
}

// serverMetrics are the daemon-layer instruments: request latencies and
// the durability/publication counters. Pipeline-stage metrics live with
// their packages (dd, apkeep, policy, core); everything here is
// prefixed realconfig_server_ so deterministic pipeline counters can be
// told apart from serving-layer ones.
type serverMetrics struct {
	applySeconds         *obs.Histogram
	whatifSeconds        *obs.Histogram
	planSeconds          *obs.Histogram
	applies              *obs.Counter
	applyErrors          *obs.Counter
	whatifs              *obs.Counter
	planErrors           *obs.Counter
	journalReplayed      *obs.Counter
	snapshotPublishes    *obs.Counter
	journalAppends       *obs.Counter
	journalAppendSeconds *obs.Histogram
	journalFsyncSeconds  *obs.Histogram
	journalRotations     *obs.Counter
	queueWaitSeconds     *obs.Histogram
	snapLastSeq          *obs.Gauge
	snapBytes            *obs.Gauge
	snapCompactions      *obs.Counter
}

// policyEntry pairs a registered policy's name with the source line it
// was parsed from, so what-if forks and journal replays can rebuild it.
type policyEntry struct {
	name, line string
}

type job struct {
	ctx  context.Context
	run  func() (any, error)
	enq  time.Time // when the job entered the queue (wait-time telemetry)
	done chan jobResult
}

type jobResult struct {
	v   any
	err error
}

// errQueueFull is returned when a bounded apply queue is at capacity.
var errQueueFull = errors.New("server: apply queue full")

// errShutdown is returned to requests in flight when the daemon stops.
var errShutdown = errors.New("server: shutting down")

// New builds every tenant (base load, initial policies, journal replay,
// first snapshot, apply goroutine) and wires the HTTP surface.
func New(cfg Config) (*Server, error) {
	if cfg.Net == nil {
		return nil, errors.New("server: Config.Net is required")
	}
	if cfg.JournalSegmentBytes < 0 {
		return nil, fmt.Errorf("server: Config.JournalSegmentBytes must be >= 0, got %d", cfg.JournalSegmentBytes)
	}
	if cfg.FollowURL != "" {
		if err := ValidateLeaderURL(cfg.FollowURL); err != nil {
			return nil, err
		}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.ApplyTimeout <= 0 {
		cfg.ApplyTimeout = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		tenants:   make(map[string]*Tenant, 1+len(cfg.Tenants)),
		start:     time.Now(),
		follow:    cfg.FollowURL,
		heartbeat: cfg.ReplHeartbeat,
		log:       cfg.Logger,
		reg:       obs.NewRegistry(),
	}

	// The default tenant instruments the shared registry unlabeled, so a
	// single-tenant daemon's series are byte-identical to the pre-tenant
	// ones; named tenants write under tenant="<id>".
	def, err := newTenant(TenantConfig{
		ID:          DefaultTenant,
		Net:         cfg.Net,
		PolicyText:  cfg.PolicyText,
		JournalPath: cfg.JournalPath,
	}, cfg, s.reg)
	if err != nil {
		return nil, err
	}
	s.def = def
	s.tenants[DefaultTenant] = def
	journals := map[string]string{}
	if cfg.JournalPath != "" {
		journals[cfg.JournalPath] = DefaultTenant
	}
	for _, tc := range cfg.Tenants {
		if !ValidTenantID(tc.ID) {
			s.closeTenants()
			return nil, fmt.Errorf("server: invalid tenant id %q", tc.ID)
		}
		if _, dup := s.tenants[tc.ID]; dup {
			s.closeTenants()
			return nil, fmt.Errorf("server: duplicate tenant %q", tc.ID)
		}
		if tc.JournalPath != "" {
			if prev, dup := journals[tc.JournalPath]; dup {
				s.closeTenants()
				return nil, fmt.Errorf("server: tenants %q and %q share journal %s", prev, tc.ID, tc.JournalPath)
			}
			journals[tc.JournalPath] = tc.ID
		}
		t, err := newTenant(tc, cfg, s.reg.WithLabels(obs.Labels{"tenant": tc.ID}))
		if err != nil {
			s.closeTenants()
			return nil, err
		}
		s.tenants[tc.ID] = t
	}
	for id := range s.tenants {
		s.ids = append(s.ids, id)
	}
	sort.Strings(s.ids)

	s.reg.GaugeFunc("realconfig_server_uptime_seconds", "Seconds since the daemon started.", nil,
		func() float64 { return float64(time.Since(s.start).Seconds()) })
	s.reg.Gauge("realconfig_server_tenants", "Configured tenants (including the default).", nil).
		Set(int64(len(s.tenants)))

	s.registerRuntimeMetrics()
	s.mux = http.NewServeMux()
	s.routes(cfg.EnablePprof)
	// Telemetry sits inside tenant routing: the route label is the
	// rewritten (tenant-neutral) pattern, the tenant comes from context.
	s.h = s.withReqID(s.withTenant(s.withTelemetry(s.mux)))
	return s, nil
}

// ValidateLeaderURL checks a -follow / Config.FollowURL value: an
// absolute http(s) URL with a host and no path/query/fragment (the
// daemon derives per-tenant stream paths itself).
func ValidateLeaderURL(s string) error {
	u, err := url.Parse(s)
	if err != nil {
		return fmt.Errorf("server: leader URL %q: %v", s, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("server: leader URL %q must use http or https, got scheme %q", s, u.Scheme)
	}
	if u.Host == "" {
		return fmt.Errorf("server: leader URL %q has no host", s)
	}
	if (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
		return fmt.Errorf("server: leader URL %q must be a bare base URL (scheme://host[:port])", s)
	}
	return nil
}

// policyLines extracts the significant (non-blank, non-comment) lines of
// a policy specification, in order: the i-th line produced the i-th
// policy of core.ParsePolicies.
func policyLines(text string) []string {
	var out []string
	for _, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '#' {
			continue
		}
		out = append(out, line)
	}
	return out
}

// Snapshot returns the default tenant's published snapshot (never nil).
func (s *Server) Snapshot() *Snapshot { return s.def.Snapshot() }

// Tenant returns a tenant by id (nil if unknown). The default tenant is
// DefaultTenant.
func (s *Server) Tenant(id string) *Tenant { return s.tenants[id] }

// Metrics returns the daemon's metrics registry (all tenants' pipeline
// stages plus the serving layer); /v1/metrics serves it as Prometheus
// text.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the HTTP handler serving the v1 API, wrapped in the
// tenant-routing and request-id middleware.
func (s *Server) Handler() http.Handler { return s.h }

// Recorder exposes the default tenant's provenance-trace ring (nil when
// tracing is disabled); /v1/applies serves it.
func (s *Server) Recorder() *trace.Recorder { return s.def.verifier.Recorder() }

// Close stops every tenant's apply goroutine and closes the journals.
// In-flight requests fail with a shutdown error; queued jobs are
// dropped.
func (s *Server) Close() error { return s.closeTenants() }

func (s *Server) closeTenants() error {
	var first error
	for _, id := range s.ids {
		if err := s.tenants[id].close(); err != nil && first == nil {
			first = err
		}
	}
	if len(s.ids) == 0 { // failed mid-New: ids not built yet
		for _, t := range s.tenants {
			if err := t.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// ---- HTTP layer ----

// ctxKey keys request-scoped context values.
type ctxKey int

const (
	reqIDKey ctxKey = iota
	tenantKey
)

// reqIDFrom returns the request id the middleware assigned ("" outside
// the middleware, e.g. in direct-handler tests).
func reqIDFrom(r *http.Request) string {
	id, _ := r.Context().Value(reqIDKey).(string)
	return id
}

// tenantFrom returns the tenant the routing middleware resolved,
// defaulting to the default tenant (direct-handler tests).
func (s *Server) tenantFrom(r *http.Request) *Tenant {
	if t, ok := r.Context().Value(tenantKey).(*Tenant); ok {
		return t
	}
	return s.def
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Flush forwards per-frame flushes to the underlying writer, so the
// replication stream's chunked JSON lines leave the server immediately
// instead of sitting in the response buffer behind the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withReqID assigns every request a daemon-unique id, echoes it in the
// X-Request-Id response header, threads it through the context (logs,
// error bodies, apply traces) and writes one access-log line per
// request.
func (s *Server) withReqID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey, id))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		s.log.Info("request",
			"req_id", id, "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "dur_ms", time.Since(t0).Milliseconds())
	})
}

// withTenant routes tenant-prefixed paths: /v1/tenants/{id}/rest is
// rewritten to /v1/rest with the tenant in the request context, so
// every handler behind the mux serves all tenants unchanged. Unprefixed
// paths carry the default tenant. /v1/tenants/{id} with no rest serves
// the tenant summary here.
func (s *Server) withTenant(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path
		if id, rest, ok := SplitTenantPath(path); ok {
			t := s.tenants[id]
			if t == nil {
				writeJSON(w, http.StatusNotFound, errorResponse{
					Error: fmt.Sprintf("no tenant %q", id), ReqID: reqIDFrom(r)})
				return
			}
			r = r.WithContext(context.WithValue(r.Context(), tenantKey, t))
			if rest == "" {
				s.handleTenantDetail(w, r, t)
				return
			}
			r.URL.Path = rest
			next.ServeHTTP(w, r)
			return
		}
		if strings.HasPrefix(path, "/v1/tenants/") {
			badRequest(w, r, "invalid tenant id in path "+path)
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantKey, s.def)))
	})
}

func (s *Server) routes(enablePprof bool) {
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("/v1/verdicts", s.handleVerdicts)
	s.mux.HandleFunc("/v1/report", s.handleReport)
	s.mux.HandleFunc("/v1/trace", s.handleTrace)
	s.mux.HandleFunc("/v1/changes", s.handleChanges)
	s.mux.HandleFunc("/v1/whatif", s.handleWhatIf)
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	s.mux.HandleFunc("/v1/policies", s.handlePolicies)
	s.mux.HandleFunc("GET /v1/applies", s.handleApplies)
	s.mux.HandleFunc("GET /v1/applies/{id}/trace", s.handleApplyTrace)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	s.mux.HandleFunc("GET /v1/journal/stream", s.handleJournalStream)
	s.mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/snapshot/latest", s.handleSnapshotLatest)
	s.mux.HandleFunc("/v1/promote", s.handlePromote)
	s.mux.Handle("/v1/metrics", s.reg.Handler())
	if enablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// changesRequest is the body of POST /v1/changes and /v1/whatif.
type changesRequest struct {
	Changes []json.RawMessage `json:"changes"`
}

// policiesRequest is the body of POST /v1/policies.
type policiesRequest struct {
	Add    []string `json:"add"`
	Remove []string `json:"remove"`
}

// applyResponse answers a successful write (or a what-if).
type applyResponse struct {
	Seq      uint64      `json:"seq"`
	WhatIf   bool        `json:"whatIf,omitempty"`
	Report   *ReportJSON `json:"report,omitempty"`
	Verdicts []Verdict   `json:"verdicts"`
}

// verdictsResponse is the byte-stable body of GET /v1/verdicts.
type verdictsResponse struct {
	Seq      uint64    `json:"seq"`
	Verdicts []Verdict `json:"verdicts"`
}

// tenantSummary is one row of GET /v1/tenants (and the body of
// GET /v1/tenants/{id}).
type tenantSummary struct {
	ID         string `json:"id"`
	Seq        uint64 `json:"seq"`
	Devices    int    `json:"devices"`
	Policies   int    `json:"policies"`
	Violations int    `json:"violations"`
}

type errorResponse struct {
	Error string `json:"error"`
	ReqID string `json:"reqId,omitempty"`
}

// rejectReplicaWrite answers a write request on a read replica: 503
// plus a Leader header naming where writes go. Returns true if the
// request was handled (the caller returns immediately). A tenant that
// was promoted via POST /v1/promote accepts writes like a leader.
func (s *Server) rejectReplicaWrite(w http.ResponseWriter, r *http.Request, t *Tenant) bool {
	if s.follow == "" || t.promoted.Load() {
		return false
	}
	w.Header().Set("Leader", s.follow)
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error: "read replica: writes are served by the leader at " + s.follow,
		ReqID: reqIDFrom(r),
	})
	return true
}

// handleJournalStream serves the tenant's journal as a replication
// stream (see internal/repl): hello frame with the journal epoch,
// catch-up entries after ?from=<seq>, then the live tail. Works on a
// replica too — its local journal mirrors the leader's bytes, so
// replicas can fan out into chains.
func (s *Server) handleJournalStream(w http.ResponseWriter, r *http.Request) {
	t := s.tenantFrom(r)
	if t.journal == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error: "replication requires a journal (start the daemon with -journal)",
			ReqID: reqIDFrom(r),
		})
		return
	}
	repl.ServeStream(w, r, t.journal, s.heartbeat, t.streamM)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// allowOnly reports whether r uses method, and otherwise answers 405
// with method as the Allow header.
func allowOnly(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	return false
}

// badRequest answers 400 with the message and the request id.
func badRequest(w http.ResponseWriter, r *http.Request, msg string) {
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: msg, ReqID: reqIDFrom(r)})
}

func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusUnprocessableEntity
	switch {
	case errors.Is(err, errQueueFull):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), ReqID: reqIDFrom(r)})
}

func summarize(t *Tenant) tenantSummary {
	snap := t.Snapshot()
	return tenantSummary{
		ID:         t.ID,
		Seq:        snap.Seq,
		Devices:    snap.Devices,
		Policies:   snap.Policies,
		Violations: len(snap.Violations),
	}
}

// handleTenants lists every tenant with its headline counters.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	out := make([]tenantSummary, 0, len(s.ids))
	for _, id := range s.ids {
		out = append(out, summarize(s.tenants[id]))
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
}

// handleTenantDetail serves GET /v1/tenants/{id} (the bare tenant path,
// handled in the routing middleware before path rewriting).
func (s *Server) handleTenantDetail(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, summarize(t))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	t := s.tenantFrom(r)
	snap := t.Snapshot()
	out := map[string]any{
		"ok":            true,
		"role":          "leader",
		"seq":           snap.Seq,
		"uptimeSeconds": int64(time.Since(s.start).Seconds()),
		"devices":       snap.Devices,
		"policies":      snap.Policies,
		"ecs":           snap.ECs,
		"fibRules":      snap.FIBRules,
		"queueLength":   len(t.jobs),
		"queueCapacity": cap(t.jobs),
	}
	if f := t.Follower(); f != nil && !t.promoted.Load() {
		out["role"] = "follower"
		out["leader"] = s.follow
		out["leaderSeq"] = f.LeaderSeq()
		out["replLagSeq"] = f.LagSeq()
		out["replConnected"] = f.Connected()
	}
	t.snapshotHealth(out)
	out["ready"] = t.Ready()
	writeJSON(w, http.StatusOK, out)
}

// handleReadyz is the readiness half of the health split: it answers
// 200 only once the tenant serves warmed-up state (journal replay done;
// followers caught up to the leader at least once), and 503 with
// "ready":false while warming — so load balancers and clients never
// measure a daemon that is still rebuilding state. handleHealthz stays
// pure liveness: it answers 200 whenever the process serves requests.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	t := s.tenantFrom(r)
	ready := t.Ready()
	out := map[string]any{
		"ready": ready,
		"role":  "leader",
		"seq":   t.Snapshot().Seq,
	}
	if f := t.Follower(); f != nil && !t.promoted.Load() {
		out["role"] = "follower"
		out["leader"] = s.follow
		out["replConnected"] = f.Connected()
		out["replLagSeq"] = f.LagSeq()
	}
	t.snapshotHealth(out)
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, out)
}

func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	snap, ok := s.gateMinSeq(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, verdictsResponse{Seq: snap.Seq, Verdicts: snap.Verdicts})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	snap, ok := s.gateMinSeq(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"seq":        snap.Seq,
		"violations": snap.Violations,
		"report":     snap.LastReport,
	})
}

// decodeChangesBody parses and validates a change-batch request body.
func decodeChangesBody(w http.ResponseWriter, r *http.Request) ([]netcfg.Change, bool) {
	var req changesRequest
	body := http.MaxBytesReader(w, r.Body, 8<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		badRequest(w, r, "bad request body: "+err.Error())
		return nil, false
	}
	if len(req.Changes) == 0 {
		badRequest(w, r, "empty change batch")
		return nil, false
	}
	changes, err := netcfg.DecodeChanges(req.Changes)
	if err != nil {
		badRequest(w, r, err.Error())
		return nil, false
	}
	return changes, true
}

func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodPost) {
		return
	}
	t := s.tenantFrom(r)
	if s.rejectReplicaWrite(w, r, t) {
		return
	}
	changes, ok := decodeChangesBody(w, r)
	if !ok {
		return
	}
	rid := reqIDFrom(r)
	e, err := changesEntry(changes, rid)
	if err != nil {
		badRequest(w, r, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), t.applyTimeout)
	defer cancel()
	t0 := time.Now()
	res, err := t.do(ctx, func() (any, error) {
		rep, err := t.commit(e)
		if err != nil {
			return nil, err
		}
		snap := t.Snapshot()
		return applyResponse{Seq: snap.Seq, Report: rep, Verdicts: snap.Verdicts}, nil
	})
	t.m.applySeconds.ObserveDuration(time.Since(t0))
	if err != nil {
		t.m.applyErrors.Inc()
		t.log.Warn("apply failed", "req_id", rid, "changes", len(changes), "err", err)
		writeError(w, r, err)
		return
	}
	t.m.applies.Inc()
	ar := res.(applyResponse)
	t.log.Info("applied",
		"req_id", rid, "seq", ar.Seq, "changes", len(changes),
		"violated", len(ar.Report.Violated), "repaired", len(ar.Report.Repaired),
		"trace_id", ar.Report.TraceID, "dur_ms", time.Since(t0).Milliseconds())
	w.Header().Set(seqHeader, strconv.FormatUint(ar.Seq, 10))
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodPost) {
		return
	}
	changes, ok := decodeChangesBody(w, r)
	if !ok {
		return
	}
	t := s.tenantFrom(r)
	ctx, cancel := context.WithTimeout(r.Context(), t.applyTimeout)
	defer cancel()
	t0 := time.Now()
	defer func() { t.m.whatifSeconds.ObserveDuration(time.Since(t0)) }()
	fork, seq, err := t.fork(ctx)
	if err != nil {
		writeError(w, r, err)
		return
	}
	rep, err := fork.Apply(changes...)
	if err != nil {
		writeError(w, r, err)
		return
	}
	t.m.whatifs.Inc()
	verdicts := fork.Verdicts()
	names := make([]string, 0, len(verdicts))
	for name := range verdicts {
		names = append(names, name)
	}
	sort.Strings(names)
	out := applyResponse{Seq: seq, WhatIf: true, Report: reportJSON(rep)}
	for _, name := range names {
		out.Verdicts = append(out.Verdicts, Verdict{Policy: name, Satisfied: verdicts[name]})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodPost) {
		return
	}
	t := s.tenantFrom(r)
	if s.rejectReplicaWrite(w, r, t) {
		return
	}
	var req policiesRequest
	body := http.MaxBytesReader(w, r.Body, 8<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		badRequest(w, r, "bad request body: "+err.Error())
		return
	}
	if len(req.Add) == 0 && len(req.Remove) == 0 {
		badRequest(w, r, "nothing to add or remove")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), t.applyTimeout)
	defer cancel()
	res, err := t.do(ctx, func() (any, error) {
		es, err := t.policyEntries(req)
		if err != nil {
			return nil, err
		}
		if _, err := t.commit(es...); err != nil {
			return nil, err
		}
		snap := t.Snapshot()
		return applyResponse{Seq: snap.Seq, Verdicts: snap.Verdicts}, nil
	})
	if err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set(seqHeader, strconv.FormatUint(res.(applyResponse).Seq, 10))
	writeJSON(w, http.StatusOK, res)
}

// policyEntries validates a whole policies request against the
// registered policies before anything mutates, so a bad request leaves
// state and the journal untouched, and returns its entries: the
// removals first, then the additions. Apply goroutine only.
func (t *Tenant) policyEntries(req policiesRequest) ([]Entry, error) {
	es := make([]Entry, 0, len(req.Remove)+len(req.Add))
	removed := make(map[string]bool, len(req.Remove))
	for _, name := range req.Remove {
		if removed[name] || t.findPolicy(name) < 0 {
			return nil, fmt.Errorf("no policy %q", name)
		}
		removed[name] = true
		es = append(es, Entry{Op: opPolicyRemove, Name: name})
	}
	added := make(map[string]bool, len(req.Add))
	for _, line := range req.Add {
		line = strings.TrimSpace(line)
		ps, err := core.ParsePolicies(line)
		if err != nil {
			return nil, err
		}
		if len(ps) != 1 {
			return nil, fmt.Errorf("add entry must be exactly one policy line, got %d", len(ps))
		}
		name := ps[0].Name()
		if added[name] || t.findPolicy(name) >= 0 && !removed[name] {
			return nil, fmt.Errorf("duplicate policy %q", name)
		}
		added[name] = true
		es = append(es, Entry{Op: opPolicyAdd, Line: line})
	}
	return es, nil
}

// traceResponse answers GET /v1/trace.
type traceResponse struct {
	Outcome string     `json:"outcome"`
	At      string     `json:"at"`
	Hops    []traceHop `json:"hops"`
	Text    string     `json:"text"`
}

type traceHop struct {
	Device   string `json:"device"`
	Rule     string `json:"rule,omitempty"`
	Filtered string `json:"filtered,omitempty"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !allowOnly(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	src := q.Get("src")
	dst := q.Get("dst")
	if src == "" || dst == "" {
		badRequest(w, r, "src and dst query parameters are required")
		return
	}
	port := 0
	if p := q.Get("port"); p != "" {
		var err error
		if port, err = strconv.Atoi(p); err != nil {
			badRequest(w, r, "bad port "+p)
			return
		}
	}
	pkt, err := core.ParsePacket(dst, q.Get("srcip"), q.Get("proto"), port)
	if err != nil {
		badRequest(w, r, err.Error())
		return
	}
	t := s.tenantFrom(r)
	ctx, cancel := context.WithTimeout(r.Context(), t.applyTimeout)
	defer cancel()
	res, err := t.do(ctx, func() (any, error) {
		if !t.verifier.HasDevice(src) {
			return nil, fmt.Errorf("no device %q", src)
		}
		return t.verifier.Trace(src, pkt), nil
	})
	if err != nil {
		writeError(w, r, err)
		return
	}
	tr := res.(core.Trace)
	out := traceResponse{
		Outcome: tr.Outcome.Kind.String(),
		At:      tr.Outcome.At,
		Text:    tr.String(),
		Hops:    make([]traceHop, 0, len(tr.Hops)),
	}
	for _, h := range tr.Hops {
		hop := traceHop{Device: h.Device, Filtered: h.Filtered}
		if h.Rule != nil {
			hop.Rule = h.Rule.String()
		}
		out.Hops = append(out.Hops, hop)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleApplies serves the provenance-trace ring index: one summary row
// per retained apply, newest first.
func (s *Server) handleApplies(w http.ResponseWriter, r *http.Request) {
	rec := s.tenantFrom(r).verifier.Recorder()
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: "provenance tracing disabled (core.Options.TraceApplies = 0)",
			ReqID: reqIDFrom(r),
		})
		return
	}
	applies := rec.Applies()
	if applies == nil {
		applies = []trace.Summary{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"applies": applies})
}

// handleApplyTrace serves one retained apply's full provenance trace.
// {id} is a numeric apply id or "latest"; ?format=chrome exports the
// Chrome trace-event JSON form (loadable in Perfetto / chrome://tracing).
func (s *Server) handleApplyTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.tenantFrom(r).verifier.Recorder()
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: "provenance tracing disabled (core.Options.TraceApplies = 0)",
			ReqID: reqIDFrom(r),
		})
		return
	}
	var a *trace.Apply
	if idStr := r.PathValue("id"); idStr == "latest" {
		a = rec.Latest()
	} else {
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			badRequest(w, r, "bad apply id "+idStr)
			return
		}
		a = rec.Get(id)
	}
	if a == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: "no retained trace for that apply (evicted from the ring, or never recorded)",
			ReqID: reqIDFrom(r),
		})
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, a)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChrome(w, a)
	default:
		badRequest(w, r, "unknown format "+format+` (want "json" or "chrome")`)
	}
}
