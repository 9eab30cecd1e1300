// Command rcserved runs RealConfig as a long-lived verification daemon:
// it loads a network once, then serves incremental verification over a
// JSON HTTP API, keeping the verifier's warm state between requests.
//
//	rcserved -net <dir> [-policies <file>] [-journal <file>] [-addr :8080]
//
// Endpoints (all under /v1):
//
//	POST /v1/changes            apply a batch of typed configuration changes
//	POST /v1/whatif             speculatively verify a batch, discarding the result
//	POST /v1/plan               order a batch into violation-free deployment waves
//	POST /v1/policies           add/remove policies at runtime
//	GET  /v1/verdicts           current policy verdicts (lock-free snapshot)
//	GET  /v1/report             last verification report and current violations
//	GET  /v1/trace              trace a packet: ?src=<device>&dst=<ip>[&proto=&port=]
//	GET  /v1/applies            provenance-trace ring index (newest first)
//	GET  /v1/applies/{id}/trace one apply's provenance trace ({id} or "latest";
//	                            ?format=chrome exports Perfetto-loadable JSON)
//	POST /v1/snapshot           capture a durable state snapshot and compact
//	                            the journal behind it
//	GET  /v1/snapshot/latest    download the newest snapshot (replica bootstrap)
//	POST /v1/promote            flip a caught-up replica into a leader under a
//	                            fresh epoch (fences the old leader's lineage)
//	GET  /v1/healthz            liveness, sequence number and counters
//	GET  /v1/readyz             readiness: 503 with "ready":false while the
//	                            daemon warms (journal replay, follower catch-up)
//	GET  /v1/metrics            Prometheus text metrics for every pipeline stage,
//	                            per-route request latencies and Go runtime series
//
// With -journal, applied writes are persisted as JSON lines and replayed
// on startup, so a restarted daemon recovers its exact state from the
// same base snapshot; -journal-segment-bytes seals the file into
// numbered segments as it grows. -snapshot-every N (entries) and
// -snapshot-bytes B capture automatic state snapshots; a snapshot at
// seq S makes sealed segments entirely <= S deletable, keeping the
// newest -journal-retain segments as a resume floor for lagging
// replicas. Restarts restore the newest snapshot and replay only the
// journal tail. With -pprof, net/http/pprof profiling endpoints are
// mounted under /debug/pprof/.
//
// With -follow <leader-url>, the daemon runs as a read replica: it
// streams the leader's journal from GET /v1/journal/stream, replays
// each entry through its own verifier, and serves every read endpoint
// from local snapshots. Writes (POST /v1/changes, /v1/policies,
// /v1/plan) answer 503 with a Leader: header pointing at the leader;
// what-if and trace stay available. Give the replica its own -journal
// so restarts resume from the last applied sequence number instead of
// refetching history.
//
// Multi-tenancy: each repeatable -tenant flag adds an isolated named
// verifier served under /v1/tenants/{id}/... (same endpoints), e.g.
//
//	rcserved -net base/ -tenant id=acme,net=acme/,policies=acme.pol,journal=acme.j
//
// The unprefixed routes remain the default tenant; GET /v1/tenants
// lists all of them.
//
// Logs are structured (log/slog) on stderr; -log-format selects text or
// json. Every request gets a req_id that appears in the access log, in
// error responses, and on the provenance trace of the apply it caused.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"realconfig/internal/core"
	"realconfig/internal/server"
)

// tenantFlags collects repeatable -tenant values.
type tenantFlags []string

func (t *tenantFlags) String() string { return strings.Join(*t, " ") }
func (t *tenantFlags) Set(s string) error {
	*t = append(*t, s)
	return nil
}

// parseTenant decodes one -tenant value
// (id=NAME,net=DIR[,policies=FILE][,journal=FILE])
// into a TenantConfig, loading the network and policy files.
func parseTenant(spec string) (server.TenantConfig, error) {
	var tc server.TenantConfig
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return tc, fmt.Errorf("-tenant %q: field %q is not key=value", spec, field)
		}
		switch k {
		case "id":
			tc.ID = v
		case "net":
			n, err := core.LoadNetworkDir(v)
			if err != nil {
				return tc, fmt.Errorf("-tenant %q: %w", spec, err)
			}
			tc.Net = n
		case "policies":
			text, err := os.ReadFile(v)
			if err != nil {
				return tc, fmt.Errorf("-tenant %q: %w", spec, err)
			}
			tc.PolicyText = string(text)
		case "journal":
			tc.JournalPath = v
		default:
			return tc, fmt.Errorf("-tenant %q: unknown key %q (want id, net, policies, journal)", spec, k)
		}
	}
	if tc.ID == "" || tc.Net == nil {
		return tc, fmt.Errorf("-tenant %q: id= and net= are required", spec)
	}
	return tc, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rcserved:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("rcserved", flag.ContinueOnError)
	netDir := fs.String("net", "", "base snapshot directory (required)")
	polFile := fs.String("policies", "", "policy specification file")
	journalPath := fs.String("journal", "", "append-only change journal (replayed on startup)")
	segBytes := fs.Int64("journal-segment-bytes", 0, "seal journal files into numbered segments past this size (0 = one unbounded file)")
	snapEvery := fs.Int("snapshot-every", 0, "capture a state snapshot (and compact the journal) every N journaled entries (0 = only on POST /v1/snapshot)")
	snapBytes := fs.Int64("snapshot-bytes", 0, "capture a snapshot once this many bytes were appended to the journal since the last one (0 = off)")
	journalRetain := fs.Int("journal-retain", 2, "sealed journal segments always kept through compaction (resume floor for lagging replicas)")
	follow := fs.String("follow", "", "run as a read replica of the leader at this base URL (e.g. http://leader:8080)")
	var tenants tenantFlags
	fs.Var(&tenants, "tenant", "add a named tenant: id=NAME,net=DIR[,policies=FILE][,journal=FILE] (repeatable)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	parallel := fs.Int("parallel", 0, "policy-checker worker count (<=1 = sequential)")
	queue := fs.Int("queue", 64, "apply queue depth (writes beyond it get 503)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request apply deadline")
	traceRing := fs.Int("trace-ring", 64, "provenance traces retained for /v1/applies (0 disables tracing)")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("-log-format must be text or json, got %q", *logFormat)
	}
	logger := slog.New(handler)
	if *netDir == "" {
		return fmt.Errorf("-net is required")
	}
	if *segBytes < 0 {
		return fmt.Errorf("-journal-segment-bytes must be >= 0, got %d", *segBytes)
	}
	if *snapEvery < 0 || *snapBytes < 0 || *journalRetain < 0 {
		return fmt.Errorf("-snapshot-every, -snapshot-bytes and -journal-retain must be >= 0")
	}
	if *follow != "" {
		if err := server.ValidateLeaderURL(*follow); err != nil {
			return fmt.Errorf("-follow: %w", err)
		}
	}
	baseNet, err := core.LoadNetworkDir(*netDir)
	if err != nil {
		return err
	}
	policyText := ""
	if *polFile != "" {
		text, err := os.ReadFile(*polFile)
		if err != nil {
			return err
		}
		policyText = string(text)
	}
	var tcs []server.TenantConfig
	for _, spec := range tenants {
		tc, err := parseTenant(spec)
		if err != nil {
			return err
		}
		tcs = append(tcs, tc)
	}
	srv, err := server.New(server.Config{
		Net:        baseNet,
		PolicyText: policyText,
		Options: core.Options{
			DetectOscillation: true,
			Parallel:          *parallel,
			TraceApplies:      *traceRing,
		},
		JournalPath:         *journalPath,
		JournalSegmentBytes: *segBytes,
		SnapshotEvery:       *snapEvery,
		SnapshotBytes:       *snapBytes,
		JournalRetain:       *journalRetain,
		FollowURL:           *follow,
		Tenants:             tcs,
		QueueDepth:          *queue,
		ApplyTimeout:        *timeout,
		EnablePprof:         *pprofOn,
		Logger:              logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	snap := srv.Snapshot()
	fmt.Fprintf(out, "rcserved: listening on http://%s (devices=%d policies=%d ecs=%d seq=%d tenants=%d)\n",
		ln.Addr(), snap.Devices, snap.Policies, snap.ECs, snap.Seq, 1+len(tcs))
	logger.Info("listening",
		"addr", ln.Addr().String(), "devices", snap.Devices,
		"policies", snap.Policies, "ecs", snap.ECs, "seq", snap.Seq,
		"trace_ring", *traceRing, "journal", *journalPath,
		"tenants", 1+len(tcs), "follow", *follow)
	return http.Serve(ln, srv.Handler())
}
