// Package dd implements a differential-dataflow computation engine: the
// incremental-computation substrate that RealConfig's data plane generator
// runs on (the paper uses DDlog on Differential Dataflow; this package is
// the Go equivalent built from scratch).
//
// A dataflow graph is built once from collections and operators (Map,
// Filter, Join, ReduceMin, Distinct, Iterate, ...). Inputs then receive
// insertions and deletions, and each call to Graph.Advance runs one epoch
// that propagates only the *differences* through the graph. Work is
// proportional to the amount of change, not to the total data size, which
// is exactly the property that makes incremental network configuration
// verification fast.
//
// # Time model
//
// Differential dataflow timestamps are pairs (epoch, iteration). Epochs
// are totally ordered and processed sequentially to completion, so traces
// consolidate completed epochs and are kept per iteration: the
// accumulation of a collection at (e, i) is the sum of all diffs from
// earlier epochs at iterations <= i plus the current epoch's diffs at
// iterations <= i. This is the product partial order of differential
// dataflow restricted to the sequential-epoch regime, and it is what makes
// retractions inside fixpoints exact: deleting a route seed replays only
// the affected iterations, and circularly-supported derivations cancel
// instead of counting to infinity.
//
// All loops share a single global iteration dimension. This means loops
// may feed one another (e.g. OSPF results redistributed into BGP) without
// any stratification bookkeeping: the scheduler simply runs iterations in
// ascending order until no operator has pending work.
//
// # Storage
//
// Stateful operators keep, per key, one flat group: a slice of values
// each carrying its per-iteration history, the history's first point
// inline (see hist.go). Key maps hold slab indices, so with pointer-free
// keys and values the garbage collector has nothing to trace in them.
// Difference batches travel in buffers their producer reuses: a
// subscriber must consume a batch before returning and never retain it.
// A join copies a batch into its pending queue; a reduction merges it
// straight into its key groups and queues only slot ids, and its output
// groups are the one copy of its result (ReduceMinArranged reads them).
//
// # Determinism
//
// Reduction functions must be order-independent (they receive the
// accumulated group in unspecified order). Under that contract the
// accumulated contents of every collection, and the work counted in
// EpochStats, are deterministic functions of the input history.
package dd

import (
	"fmt"
	mbits "math/bits"
	"strconv"

	"realconfig/internal/obs"
	ptrace "realconfig/internal/trace"
)

// Diff is a signed multiplicity. Insertions carry +1, deletions -1;
// operators combine diffs multiplicatively (joins) and additively
// (concatenation, traces).
type Diff = int64

// Entry is one element of a difference batch: a value and the signed
// multiplicity by which its count changes.
type Entry[T comparable] struct {
	Val  T
	Diff Diff
}

// KV is a keyed record, the shape consumed by Join and the reductions.
type KV[K comparable, V comparable] struct {
	K K
	V V
}

// MkKV builds a KV. It exists because composite literals of generic
// types are noisy at call sites.
func MkKV[K comparable, V comparable](k K, v V) KV[K, V] { return KV[K, V]{K: k, V: v} }

// processor is a scheduled graph node. Stateless operators (Map, Filter,
// Concat) are fused into subscriptions and never become processors; only
// stateful operators (Join, the reductions, Distinct, sinks) do.
type processor interface {
	// process drains the node's pending work at the given iteration.
	process(iter int)
}

// Graph owns the dataflow: nodes, the iteration scheduler and epoch
// statistics. Build the graph, then repeatedly stage input changes and
// call Advance.
type Graph struct {
	nodes  []processor
	inputs []flusher
	// resetters run at the start of every epoch, before inputs flush;
	// outputs and detectors clear their per-epoch logs here.
	resetters []func()
	// trimmers run at the end of every epoch: operators release scratch
	// buffers that a large epoch grew (see keepCap).
	trimmers []func()

	pending map[int]*nodeSet // iteration -> pending node ids
	iters   intHeap          // pending iterations, deduplicated
	inHeap  map[int]struct{} // iterations currently in the heap
	spare   []*nodeSet       // drained sets, all bits clear, for reuse

	// MaxIter bounds the number of loop iterations per epoch. A fixpoint
	// that fails to converge within MaxIter iterations aborts the epoch
	// with ErrNonTermination; the paper (section 6) notes such
	// non-termination typically reveals genuine configuration bugs (e.g.
	// BGP disputes).
	MaxIter int

	epoch  int
	failed error

	// stats for the current/last epoch
	stats EpochStats

	// metrics are the engine's cumulative instruments (nil until
	// Instrument; every method is nil-safe).
	metrics GraphMetrics

	// tr is the provenance trace of the in-flight apply (nil = tracing
	// off, the common case). Set per-apply via SetTrace.
	tr *ptrace.Apply
	// nodeKinds labels nodes for trace spans ("join", "reduce"),
	// parallel to nodes.
	nodeKinds []string
	// emitted counts difference entries emitted by stateful nodes and
	// input flushes this graph's lifetime; per-node deltas around
	// process() calls yield the "out" attribute of epoch spans.
	emitted int64

	// fingerprints of loop-variable states per iteration, used by the
	// recurring-state detector (see Detector).
	detectors []*Detector
}

type flusher interface{ flush() }

// EpochStats reports how much work one Advance performed.
type EpochStats struct {
	Epoch      int // epoch number (0 = initial full evaluation)
	Iterations int // highest iteration that had activity, plus one
	Entries    int // total difference entries processed by stateful nodes
	NodeRuns   int // number of (node, iteration) activations
}

// GraphMetrics are the engine's live instruments: cumulative versions of
// the per-epoch EpochStats, suitable for a metrics registry.
type GraphMetrics struct {
	// Epochs counts completed Advance calls.
	Epochs *obs.Counter
	// NodeRuns counts (node, iteration) activations.
	NodeRuns *obs.Counter
	// Entries counts difference entries processed by stateful operators.
	Entries *obs.Counter
}

// Instrument registers the engine's counters on reg. Safe to call before
// any Advance; an uninstrumented graph pays only nil checks.
func (g *Graph) Instrument(reg *obs.Registry) {
	g.metrics = GraphMetrics{
		Epochs:   reg.Counter("realconfig_dd_epochs_total", "Dataflow epochs completed by the incremental engine.", nil),
		NodeRuns: reg.Counter("realconfig_dd_node_runs_total", "Dataflow (node, iteration) activations.", nil),
		Entries:  reg.Counter("realconfig_dd_entries_total", "Difference entries processed by stateful dataflow operators.", nil),
	}
}

// NewGraph returns an empty dataflow graph.
func NewGraph() *Graph {
	return &Graph{
		pending: make(map[int]*nodeSet),
		inHeap:  make(map[int]struct{}),
		MaxIter: 1 << 16,
	}
}

// ErrNonTermination is returned (wrapped) by Advance when a fixpoint
// exceeds Graph.MaxIter iterations.
var ErrNonTermination = fmt.Errorf("dd: fixpoint did not converge (non-termination)")

func (g *Graph) addNode(p processor, kind string) int {
	g.nodes = append(g.nodes, p)
	g.nodeKinds = append(g.nodeKinds, kind)
	return len(g.nodes) - 1
}

// SetTrace attaches a provenance trace to the next Advance calls: each
// epoch records one span per active node (accumulated run time,
// input/output difference counts) on the engine track. Pass nil to
// detach; a detached graph pays one nil check per epoch.
func (g *Graph) SetTrace(a *ptrace.Apply) { g.tr = a }

// schedule records that node id has pending work at iteration iter.
// Each iteration is pushed onto the heap at most once (inHeap dedupes),
// so an epoch pops every active iteration exactly once.
func (g *Graph) schedule(id, iter int) {
	set, ok := g.pending[iter]
	if !ok {
		if n := len(g.spare); n > 0 {
			set, g.spare = g.spare[n-1], g.spare[:n-1]
		} else {
			set = &nodeSet{}
		}
		g.pending[iter] = set
	}
	if _, queued := g.inHeap[iter]; !queued {
		g.inHeap[iter] = struct{}{}
		g.iters.push(iter)
	}
	set.add(id)
}

// Epoch returns the number of completed epochs.
func (g *Graph) Epoch() int { return g.epoch }

// Stats returns statistics for the most recently completed epoch.
func (g *Graph) Stats() EpochStats { return g.stats }

// Advance runs one epoch: staged input changes are injected at iteration
// zero and differences are propagated until every operator is quiescent.
// It returns the epoch statistics, or an error if a fixpoint failed to
// converge (the graph must be discarded after an error).
func (g *Graph) Advance() (EpochStats, error) {
	if g.failed != nil {
		return EpochStats{}, g.failed
	}
	g.stats = EpochStats{Epoch: g.epoch}
	for _, r := range g.resetters {
		r()
	}
	// Per-node provenance aggregation, allocated only when a trace is
	// attached; the input flush is recorded as an "inputs" pseudo-node.
	var agg []nodeTrace
	if g.tr != nil {
		agg = make([]nodeTrace, len(g.nodes))
		t0 := g.tr.Now()
		o0 := g.emitted
		for _, in := range g.inputs {
			in.flush()
		}
		if out := g.emitted - o0; out > 0 {
			g.tr.Span(obs.TrackEngine, "inputs", t0, ptrace.I("out", out))
		}
	} else {
		for _, in := range g.inputs {
			in.flush()
		}
	}
	for len(g.pending) > 0 {
		iter, ok := g.iters.popMin()
		if !ok {
			break
		}
		delete(g.inHeap, iter)
		set := g.pending[iter]
		if set == nil {
			continue // defensive: the dedupe invariant makes this unreachable
		}
		// Detach the set before processing: a node re-scheduled at this
		// iteration while it runs lands in a fresh set and a fresh heap
		// entry for the same iteration, which — being the minimum — is
		// popped next. The detached bitset is then drained in a single
		// ascending scan with no per-pass sorting.
		delete(g.pending, iter)
		if iter > g.MaxIter {
			g.failed = fmt.Errorf("%w after %d iterations (epoch %d)", ErrNonTermination, iter, g.epoch)
			g.drainPending()
			return EpochStats{}, g.failed
		}
		if iter+1 > g.stats.Iterations {
			g.stats.Iterations = iter + 1
		}
		for _, d := range g.detectors {
			if err := d.observe(iter); err != nil {
				g.failed = err
				g.drainPending()
				return EpochStats{}, g.failed
			}
		}
		// Forward edges only ever target later nodes at the same
		// iteration, so the ascending id order of the bitset scan drains
		// each node after all of its same-iteration upstreams.
		for wi := 0; wi < len(set.bits); wi++ {
			for set.bits[wi] != 0 {
				tz := mbits.TrailingZeros64(set.bits[wi])
				set.bits[wi] &^= 1 << tz
				g.stats.NodeRuns++
				id := wi<<6 | tz
				if agg == nil {
					g.nodes[id].process(iter)
					continue
				}
				e0, o0 := g.stats.Entries, g.emitted
				t0 := g.tr.Now()
				g.nodes[id].process(iter)
				nt := &agg[id]
				if nt.runs == 0 {
					nt.start = t0
				}
				nt.dur += g.tr.Now() - t0
				nt.runs++
				nt.in += g.stats.Entries - e0
				nt.out += g.emitted - o0
			}
		}
		g.spare = append(g.spare, set)
	}
	// One span per active node: accumulated run time across all of its
	// activations this epoch, with input/output difference counts.
	for id := range agg {
		nt := &agg[id]
		if nt.runs == 0 {
			continue
		}
		g.tr.SpanAt(obs.TrackEngine, g.nodeKinds[id]+"#"+strconv.Itoa(id),
			nt.start, nt.dur,
			ptrace.I("runs", int64(nt.runs)), ptrace.I("in", int64(nt.in)), ptrace.I("out", nt.out))
	}
	for _, t := range g.trimmers {
		t()
	}
	g.epoch++
	st := g.stats
	g.metrics.Epochs.Inc()
	g.metrics.NodeRuns.Add(uint64(st.NodeRuns))
	g.metrics.Entries.Add(uint64(st.Entries))
	return st, nil
}

// nodeTrace aggregates one node's activity across an epoch's
// activations for its provenance span (start and dur in nanoseconds on
// the trace clock).
type nodeTrace struct {
	start, dur int64
	runs, in   int
	out        int64
}

// MustAdvance is Advance for tests and examples where non-termination is
// a programming error.
func (g *Graph) MustAdvance() EpochStats {
	st, err := g.Advance()
	if err != nil {
		panic(err)
	}
	return st
}

// Collection is a handle to a stream of differences of values of type T
// flowing through the graph. Collections are cheap to copy.
type Collection[T comparable] struct {
	g *Graph
	p *port[T]
}

// Graph returns the graph this collection belongs to.
func (c Collection[T]) Graph() *Graph { return c.g }

// port fan-outs difference batches to subscribers. Subscribers are
// closures so that stateless transforms fuse into the emission path.
type port[T comparable] struct {
	subs []func(iter int, batch []Entry[T])
}

func (p *port[T]) subscribe(f func(iter int, batch []Entry[T])) {
	p.subs = append(p.subs, f)
}

func (p *port[T]) emit(iter int, batch []Entry[T]) {
	if len(batch) == 0 {
		return
	}
	for _, s := range p.subs {
		s(iter, batch)
	}
}

func newCollection[T comparable](g *Graph) (Collection[T], *port[T]) {
	p := &port[T]{}
	return Collection[T]{g: g, p: p}, p
}

// drainPending clears all scheduler state so a failed graph is inert.
func (g *Graph) drainPending() {
	g.pending = make(map[int]*nodeSet)
	g.inHeap = make(map[int]struct{})
	g.iters = nil
}

// nodeSet is a bitset of node ids pending at one iteration. Node ids
// are dense (assigned by addNode), so a bitset both dedupes and yields
// ascending-id iteration for free.
type nodeSet struct {
	bits []uint64
}

func (s *nodeSet) add(id int) {
	w := id >> 6
	for w >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	s.bits[w] |= 1 << (id & 63)
}

// intHeap is a tiny min-heap of iteration numbers (kept duplicate-free
// by Graph.inHeap).
type intHeap []int

func (h *intHeap) push(v int) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *intHeap) popMin() (int, bool) {
	if len(*h) == 0 {
		return 0, false
	}
	min := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(*h) && (*h)[l] < (*h)[small] {
			small = l
		}
		if r < len(*h) && (*h)[r] < (*h)[small] {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return min, true
}
