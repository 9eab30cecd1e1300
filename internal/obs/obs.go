// Package obs is RealConfig's observability substrate: a stdlib-only
// metrics registry with atomic counters, gauges and fixed-bucket latency
// histograms, exposed in the Prometheus text exposition format.
//
// Design constraints, in order:
//
//   - Hot-path safe. Instruments are single atomic operations; every
//     method is nil-safe, so pipeline stages (dd, apkeep, policy) can
//     carry instrument pointers that are simply nil when nobody asked
//     for metrics, and pay one predictable branch.
//   - Torn-read free. Readers (the /v1/metrics scrape) run concurrently
//     with the apply goroutine; every value is read with an atomic load,
//     so a scrape observes each instrument at some real point in time.
//   - One vocabulary. Stage names (StageGenerate etc.) are shared by the
//     live metrics, the CLI's timing lines, a traced verification's
//     pipeline spans and the span names of the benchmark of record's
//     traced run, so a per-layer benchmark metric and a histogram label
//     mean the same thing.
//
// Metric names follow Prometheus conventions: counters end in _total,
// durations are histograms in seconds named *_seconds.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical pipeline stage names: the label values of
// realconfig_stage_seconds, the pipeline span names of a traced
// verification and of the benchmark of record's traced run, and the
// names printed by "realconfig verify/check". The stages before total
// run back to back, so they add up to it.
const (
	StageNetcfg      = "netcfg"       // build and diff the next network (netcfg)
	StageGenerate    = "generate"     // incremental data plane generation (dd/routing)
	StageModelUpdate = "model_update" // EC model batch update (apkeep, Table 3's T1)
	StagePolicyCheck = "policy_check" // incremental policy recheck (Table 3's T2)
	StageCollect     = "collect"      // BDD node table collection, when one is due
	StageTotal       = "total"        // whole verification
)

// Stages lists the canonical stage names in pipeline order.
func Stages() []string {
	return []string{StageNetcfg, StageGenerate, StageModelUpdate, StagePolicyCheck, StageCollect, StageTotal}
}

// DefBuckets are the default latency buckets (seconds): 10µs to ~80s in
// octaves, fitting both sub-millisecond incremental applies and
// multi-second full loads.
var DefBuckets = []float64{
	1e-5, 2.5e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2,
	1e-1, 2.5e-1, 1, 2.5, 10, 40, 80,
}

// Counter is a monotonically increasing counter. All methods are safe
// for concurrent use and nil-safe (no-ops on a nil receiver).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer-valued gauge. All methods are safe for concurrent
// use and nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of float64 observations
// (by convention, seconds). Buckets hold per-bucket (non-cumulative)
// counts and are rendered cumulatively, per the exposition format. All
// methods are safe for concurrent use and nil-safe.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the observation sum
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the observation sum (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Labels are a metric's constant label set. They are fixed at
// registration: one (name, labels) pair is one time series.
type Labels map[string]string

// render produces the deterministic `{k="v",...}` suffix ("" if empty).
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// series is one (labels, instrument) time series within a family.
type series struct {
	labels string // rendered label suffix
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
	sm     *Summary
}

// family groups the series sharing one metric name (one HELP/TYPE block).
type family struct {
	name, help, typ string
	buckets         []float64 // histograms only; all series share them
	series          []*series
	byLabels        map[string]*series
}

// Registry holds named metrics and renders them as Prometheus text.
// Registration methods are get-or-create: asking twice for the same
// (name, labels) returns the same instrument, so independently
// instrumented components can share series. Re-registering a name with
// a different type panics (a programming error, like a duplicate
// expvar).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string

	// Labeled views (WithLabels): root points at the registry that owns
	// the families, and base is merged into every registration's label
	// set. Both are nil/empty on a root registry.
	root *Registry
	base Labels
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// WithLabels returns a view of the registry that merges base into the
// labels of every instrument registered through it. Views share the
// underlying families: the same (name, merged labels) still resolves to
// the same series, and rendering a view renders the whole registry.
// Multi-tenant components use this to stamp a tenant= label on every
// metric without threading label plumbing through the pipeline.
// On key collision the view's base wins.
func (r *Registry) WithLabels(base Labels) *Registry {
	root := r.resolve()
	merged := make(Labels, len(r.base)+len(base))
	for k, v := range r.base {
		merged[k] = v
	}
	for k, v := range base {
		merged[k] = v
	}
	return &Registry{root: root, base: merged}
}

// resolve returns the registry owning the families (itself, or the view's
// root).
func (r *Registry) resolve() *Registry {
	if r.root != nil {
		return r.root
	}
	return r
}

// merged applies the view's base labels to a registration's label set.
func (r *Registry) merged(labels Labels) Labels {
	if len(r.base) == 0 {
		return labels
	}
	m := make(Labels, len(labels)+len(r.base))
	for k, v := range labels {
		m[k] = v
	}
	for k, v := range r.base {
		m[k] = v
	}
	return m
}

func (r *Registry) family(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabels: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
		sort.Strings(r.order)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func (f *family) get(labels Labels) (*series, bool) {
	key := labels.render()
	if s, ok := f.byLabels[key]; ok {
		return s, true
	}
	s := &series{labels: key}
	f.byLabels[key] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	return s, false
}

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	labels = r.merged(labels)
	r = r.resolve()
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.family(name, help, "counter").get(labels)
	if !ok {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	labels = r.merged(labels)
	r = r.resolve()
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.family(name, help, "gauge").get(labels)
	if !ok {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// fn must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	labels = r.merged(labels)
	r = r.resolve()
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.family(name, help, "gauge").get(labels)
	if ok {
		panic(fmt.Sprintf("obs: gauge %s%s already registered", name, labels.render()))
	}
	s.fn = fn
}

// Histogram registers (or returns) a histogram with the given bucket
// upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	labels = r.merged(labels)
	r = r.resolve()
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "histogram")
	if f.buckets == nil {
		f.buckets = append([]float64(nil), buckets...)
		sort.Float64s(f.buckets)
	}
	s, ok := f.get(labels)
	if !ok {
		s.h = newHistogram(f.buckets)
	}
	return s.h
}

// WritePrometheus renders every registered metric in the text exposition
// format (version 0.0.4), families sorted by name, series by label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r = r.resolve()
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, name := range r.order {
		f := r.families[name]
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.g != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.g.Value())
			case s.fn != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
			case s.h != nil:
				writeHistogram(bw, f.name, s)
			case s.sm != nil:
				writeSummary(bw, f.name, s)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative buckets, +Inf,
// sum and count.
func writeHistogram(w *bufio.Writer, name string, s *series) {
	cum := uint64(0)
	for i, bound := range s.h.bounds {
		cum += s.h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(s.labels, formatFloat(bound)), cum)
	}
	count := s.h.Count()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(s.labels, "+Inf"), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(s.h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, count)
}

// writeSummary renders one summary series: DefQuantiles quantile rows
// (computed at scrape time from the sparse buckets), sum and count.
func writeSummary(w *bufio.Writer, name string, s *series) {
	for _, q := range DefQuantiles {
		fmt.Fprintf(w, "%s%s %s\n", name,
			spliceLabel(s.labels, "quantile", formatFloat(q)), formatFloat(s.sm.Quantile(q)))
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(s.sm.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, s.sm.Count())
}

// bucketLabels splices `le="bound"` into a rendered label suffix.
func bucketLabels(labels, bound string) string {
	return spliceLabel(labels, "le", bound)
}

// spliceLabel appends `key="value"` to a rendered label suffix.
func spliceLabel(labels, key, value string) string {
	kv := key + `="` + value + `"`
	if labels == "" {
		return "{" + kv + "}"
	}
	return labels[:len(labels)-1] + "," + kv + "}"
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Snapshot returns the current value of every counter and gauge series,
// keyed by name plus rendered labels (histograms are omitted: they carry
// timings, which are non-deterministic by nature). Golden tests use this
// to compare end states.
func (r *Registry) Snapshot() map[string]float64 {
	r = r.resolve()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, name := range r.order {
		f := r.families[name]
		for _, s := range f.series {
			switch {
			case s.c != nil:
				out[f.name+s.labels] = float64(s.c.Value())
			case s.g != nil:
				out[f.name+s.labels] = float64(s.g.Value())
			case s.fn != nil:
				out[f.name+s.labels] = s.fn()
			}
		}
	}
	return out
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
