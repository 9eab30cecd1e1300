package server

import (
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"realconfig/internal/obs"
)

// Per-endpoint HTTP telemetry. Two views of the same measurement,
// registered per tenant so the series compose with the existing
// tenant label:
//
//   - realconfig_server_request_duration_seconds{route,method,code} —
//     fixed-bucket histograms, one series per endpoint outcome, the form
//     a Prometheus server aggregates across daemons.
//   - realconfig_server_request_latency_seconds{route} — streaming
//     summaries (obs.Summary), so p50/p95/p99 per endpoint are readable
//     straight off one /v1/metrics scrape with no query engine.
//
// Plus realconfig_server_requests_in_flight (gauge) and the Go runtime
// series (goroutines, heap, GC) registered once per daemon.

// routePattern resolves the mux pattern that will serve r — the
// bounded-cardinality route label ("/v1/applies/{id}/trace", not the
// concrete path). Runs after tenant routing, so tenant-prefixed paths
// fold onto the same routes as unprefixed ones.
func (s *Server) routePattern(r *http.Request) string {
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		return "unmatched"
	}
	// Patterns may carry a method prefix ("GET /v1/applies"); the method
	// is its own label.
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		pattern = pattern[i+1:]
	}
	return pattern
}

// withTelemetry wraps the mux in the per-endpoint measurement layer.
// It sits between tenant routing and the mux, so the route label is the
// rewritten (tenant-neutral) pattern and the tenant comes from the
// request context.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	inFlight := s.reg.Gauge("realconfig_server_requests_in_flight",
		"HTTP requests currently being served.", nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := s.tenantFrom(r)
		route := s.routePattern(r)
		inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(t0)
		inFlight.Add(-1)
		t.reg.Histogram("realconfig_server_request_duration_seconds",
			"Per-endpoint HTTP request latency.", nil, obs.Labels{
				"route":  route,
				"method": r.Method,
				"code":   strconv.Itoa(sw.status),
			}).ObserveDuration(dur)
		t.reg.Summary("realconfig_server_request_latency_seconds",
			"Per-endpoint HTTP request latency quantiles (p50/p90/p95/p99 at scrape time).",
			obs.Labels{"route": route}).ObserveDuration(dur)
	})
}

// runtimeSampler caches one runtime.ReadMemStats per refresh window, so
// a scrape rendering several Go runtime gauges pays for a single
// stop-the-world stats read.
type runtimeSampler struct {
	mu  sync.Mutex
	at  time.Time
	mem runtime.MemStats
}

func (rs *runtimeSampler) read() runtime.MemStats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if time.Since(rs.at) > 250*time.Millisecond {
		runtime.ReadMemStats(&rs.mem)
		rs.at = time.Now()
	}
	return rs.mem
}

// registerRuntimeMetrics exposes the process-wide Go runtime series a
// sustained-load run needs next to the request latencies: goroutine
// count, heap size and GC activity.
func (s *Server) registerRuntimeMetrics() {
	rs := &runtimeSampler{}
	s.reg.GaugeFunc("go_goroutines", "Goroutines currently live.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.reg.GaugeFunc("go_memstats_heap_alloc_bytes", "Heap bytes allocated and in use.", nil,
		func() float64 { return float64(rs.read().HeapAlloc) })
	s.reg.GaugeFunc("go_memstats_heap_objects", "Heap objects in use.", nil,
		func() float64 { return float64(rs.read().HeapObjects) })
	s.reg.GaugeFunc("go_memstats_gc_cycles_total", "Completed GC cycles.", nil,
		func() float64 { return float64(rs.read().NumGC) })
	s.reg.GaugeFunc("go_memstats_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time.", nil,
		func() float64 { return float64(rs.read().PauseTotalNs) / 1e9 })
}
