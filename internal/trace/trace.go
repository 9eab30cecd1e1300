// Package trace is RealConfig's provenance-tracing substrate: a
// structured span/event recorder threaded through the incremental
// pipeline so every apply can answer "which change caused which policy
// flip, through which rules and equivalence classes".
//
// The model mirrors the paper's Figure 1 causal chain. One verification
// (a Load, an Apply, a journal replay step) is one Apply trace holding:
//
//   - Spans: timed intervals — the pipeline stages, and per-dd-node
//     epoch activity with input/output difference counts.
//   - Events: instants — config line changes, EC splits/transfers/merges
//     tagged with the owning rule, and policy re-checks tagged with the
//     verdict transition.
//
// Spans and events carry ordered attribute lists (not maps), so exports
// are byte-deterministic given a deterministic clock.
//
// Design constraints follow internal/obs:
//
//   - Nil-safe. Every method on a nil *Recorder or nil *Apply is a
//     no-op (Now aside, which reads the monotonic clock), so pipeline
//     components carry a trace pointer that is simply nil when nobody
//     asked for provenance and pay one predictable branch on the hot
//     path.
//   - Immutable after Finish. An Apply is built single-threaded (the
//     verifier's apply path), then published into the recorder's bounded
//     ring; readers only ever see finished, immutable traces, so HTTP
//     scrapes run lock-free against concurrent applies.
//   - Bounded. The ring keeps the last N applies; older traces fall off.
package trace

import (
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span or event. Attribute order
// is preserved end to end (recording → JSON → Chrome args).
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// S builds a string attribute.
func S(key, val string) Attr { return Attr{Key: key, Val: val} }

// I builds an integer attribute.
func I(key string, v int64) Attr { return Attr{Key: key, Val: strconv.FormatInt(v, 10)} }

// U builds an unsigned-integer attribute (EC node ids, sequence numbers).
func U(key string, v uint64) Attr { return Attr{Key: key, Val: strconv.FormatUint(v, 10)} }

// Get returns the value of the first attribute with the given key.
// Consumers walking traces backwards (core.Explain) use it to follow
// linkage keys.
func Get(attrs []Attr, key string) (string, bool) {
	for _, a := range attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Span is a timed interval within an apply: a pipeline stage or one
// dataflow node's activity during the epoch.
type Span struct {
	// Track groups spans into display rows (obs.Track*); Name is the
	// span kind within the track (a stage name, a dd node label).
	Track string `json:"track"`
	Name  string `json:"name"`
	// StartUS/DurUS are microseconds on the recorder's clock.
	StartUS int64  `json:"startUs"`
	DurUS   int64  `json:"durUs"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Event is an instant within an apply: a config line change, an EC
// split/transfer/merge, a policy re-check.
type Event struct {
	Track string `json:"track"`
	Kind  string `json:"kind"`
	TSUS  int64  `json:"tsUs"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Apply is one verification's provenance trace. It is mutable while the
// apply runs (single goroutine) and immutable once Finish publishes it.
type Apply struct {
	// ID is the recorder-unique apply id (1-based, monotonically
	// increasing; survives ring eviction).
	ID uint64 `json:"id"`
	// Label classifies the apply: "load", "apply", "replay".
	Label string `json:"label"`
	// ReqID is the serving-layer request id that triggered the apply
	// ("" when not request-driven).
	ReqID string `json:"reqId,omitempty"`
	// Seq is the caller's sequence number at Finish (the daemon's
	// journal sequence; 0 for library use).
	Seq     uint64  `json:"seq"`
	StartUS int64   `json:"startUs"`
	DurUS   int64   `json:"durUs"`
	Spans   []Span  `json:"spans"`
	Events  []Event `json:"events"`

	r *Recorder
	// clock is captured from the recorder at Begin, so SetClock swaps
	// affect only subsequent applies and recording needs no locking.
	clock func() int64
}

// The recorder's clock reads nanoseconds; spans and events store
// microseconds. A span's fields are its endpoints floored to the
// microsecond, so spans that meet on the clock meet in the export.
func us(ns int64) int64 { return ns / 1000 }

// Recorder keeps the bounded ring of the last N finished apply traces.
// The zero value is unusable; build with NewRecorder. A nil *Recorder is
// a valid "tracing disabled" recorder: Begin returns a nil *Apply and
// every recording method no-ops.
type Recorder struct {
	mu     sync.Mutex
	ringN  int
	ring   []*Apply // oldest first
	nextID uint64
	clock  func() int64 // nanoseconds since the recorder epoch
}

// DefaultRing is the ring capacity NewRecorder uses for n <= 0.
const DefaultRing = 64

// NewRecorder returns a recorder keeping the last n apply traces
// (n <= 0 = DefaultRing).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRing
	}
	t0 := time.Now()
	return &Recorder{
		ringN: n,
		clock: func() int64 { return int64(time.Since(t0)) },
	}
}

// SetClock replaces the recorder's clock with one reading microseconds
// since an arbitrary epoch. Tests install a deterministic counter so
// exports are byte-stable. Call before recording begins.
func (r *Recorder) SetClock(clock func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = func() int64 { return clock() * 1000 }
	r.mu.Unlock()
}

// Begin starts a new apply trace. Returns nil on a nil recorder; the
// nil *Apply absorbs all recording calls.
func (r *Recorder) Begin(label string) *Apply {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	clock := r.clock
	r.mu.Unlock()
	return &Apply{ID: id, Label: label, StartUS: us(clock()), r: r, clock: clock}
}

// Summary is one ring entry's index row (GET /v1/applies).
type Summary struct {
	ID      uint64 `json:"id"`
	Label   string `json:"label"`
	ReqID   string `json:"reqId,omitempty"`
	Seq     uint64 `json:"seq"`
	StartUS int64  `json:"startUs"`
	DurUS   int64  `json:"durUs"`
	Spans   int    `json:"spans"`
	Events  int    `json:"events"`
}

// Applies returns the ring index, newest first.
func (r *Recorder) Applies() []Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Summary, 0, len(r.ring))
	for i := len(r.ring) - 1; i >= 0; i-- {
		a := r.ring[i]
		out = append(out, Summary{
			ID: a.ID, Label: a.Label, ReqID: a.ReqID, Seq: a.Seq,
			StartUS: a.StartUS, DurUS: a.DurUS,
			Spans: len(a.Spans), Events: len(a.Events),
		})
	}
	return out
}

// Get returns the finished trace with the given id (nil if evicted or
// never finished).
func (r *Recorder) Get(id uint64) *Apply {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.ring {
		if a.ID == id {
			return a
		}
	}
	return nil
}

// Latest returns the most recently finished trace (nil when empty).
func (r *Recorder) Latest() *Apply {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) == 0 {
		return nil
	}
	return r.ring[len(r.ring)-1]
}

// untraced is the origin of the clock a nil Apply reads.
var untraced = time.Now()

// Now reads the apply's clock in nanoseconds: the recorder's clock, or
// the monotonic clock when tracing is off (a nil Apply). An operation
// that times itself by Now, traced or not, reports figures that are its
// spans' durations. Only readings of the same Apply compare.
func (a *Apply) Now() int64 {
	if a == nil {
		return int64(time.Since(untraced))
	}
	return a.clock()
}

// Span records a timed interval that started at start (from Now) and
// ends now.
func (a *Apply) Span(track, name string, start int64, attrs ...Attr) {
	if a == nil {
		return
	}
	a.SpanAt(track, name, start, a.clock()-start, attrs...)
}

// SpanAt records a fully specified interval, start and duration in
// nanoseconds on the apply's clock (pipeline stages laid end to end,
// per-node dd spans whose duration is accumulated across activations).
func (a *Apply) SpanAt(track, name string, start, dur int64, attrs ...Attr) {
	if a == nil {
		return
	}
	a.Spans = append(a.Spans, Span{
		Track: track, Name: name,
		StartUS: us(start), DurUS: us(start+dur) - us(start),
		Attrs: attrs,
	})
}

// Event records an instant.
func (a *Apply) Event(track, kind string, attrs ...Attr) {
	if a == nil {
		return
	}
	a.Events = append(a.Events, Event{Track: track, Kind: kind, TSUS: us(a.clock()), Attrs: attrs})
}

// SetReqID attaches the serving-layer request id. Call before Finish.
func (a *Apply) SetReqID(id string) {
	if a == nil {
		return
	}
	a.ReqID = id
}

// Finish stamps the total duration and sequence number and publishes the
// trace into the recorder's ring. The Apply must not be mutated after.
func (a *Apply) Finish(seq uint64) {
	if a == nil {
		return
	}
	a.Seq = seq
	a.DurUS = us(a.clock()) - a.StartUS
	r := a.r
	r.mu.Lock()
	if len(r.ring) == r.ringN {
		copy(r.ring, r.ring[1:])
		r.ring[len(r.ring)-1] = a
	} else {
		r.ring = append(r.ring, a)
	}
	r.mu.Unlock()
}
