// Package plan is the safe update planner: given a batch of
// configuration changes and a verifier with registered policies, it
// searches for an ordering of the batch — grouped into parallelizable
// waves — such that every intermediate network state satisfies all
// policies, or reports a minimal counterexample when none exists.
//
// The search uses forked verifiers as its oracle. Probing "is change c
// safe at intermediate state S" costs one copy-on-write incremental
// Apply on a warm fork, which then stays on S+c, plus one SetNetwork
// repositioning when the fork sits elsewhere. So the planner can afford
// thousands of probes where per-probe full re-verification could not:
// exactly the workload the paper's incremental pipeline was built to
// open up.
//
// Algorithm: depth-first search over single-change extensions of the
// safe prefix. At every state the planner probes all remaining
// candidates (fanned out over a bounded worker pool, each worker owning
// one fork), descends into safe extensions in index order, and
// backtracks when a state admits none. Probe results are memoized under
// a canonical change-set key, and states proven to admit no safe
// completion are remembered, so backtracking never re-explores. A found
// linearization is grouped into waves (see Result) and re-validated
// step by step on a fresh fork before being returned.
//
// The planner assumes the batch's changes commute: the network reached
// by applying a subset is taken to be independent of application order
// (the canonical state applies them in index order). Batches that
// violate this are detected — loudly at canonical-state construction or
// by the final validation pass — and rejected.
package plan

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// DefaultMaxProbes bounds the search when Options.MaxProbes is zero.
const DefaultMaxProbes = 10_000

// ErrProbeBudget is returned when the search exceeds its probe budget
// before finding a plan or proving none exists.
var ErrProbeBudget = errors.New("plan: probe budget exhausted")

// Options configures a Search.
type Options struct {
	// Workers is the probe worker-pool size; each worker owns one fork
	// of the base verifier (<=0 = min(4, GOMAXPROCS), capped at the
	// batch size).
	Workers int
	// MaxProbes bounds the number of oracle probes (0 = DefaultMaxProbes).
	MaxProbes int
	// Metrics receives the planner's instruments (nil = uninstrumented).
	Metrics *Metrics
	// Recorder, when set, records one "plan" trace per search: a search
	// span plus one probe event per oracle probe, tagged with the
	// candidate change.
	Recorder *trace.Recorder
	// ReqID/Seq are the serving-layer context stamped onto the trace.
	ReqID string
	Seq   uint64
}

// Step is one change of the batch, identified by its index there.
type Step struct {
	Index  int
	Change netcfg.Change
}

// Plan is a violation-free ordering of the batch.
//
// Order is the verified linearization: applying the changes in this
// order keeps every registered policy satisfied at every intermediate
// state (policies already violated at the base state are not counted
// against intermediate states).
//
// Waves groups Order into deployment waves: every change in a wave is
// individually safe at the wave's start state, and the wave's changes
// are cumulatively safe in the listed order. Under the planner's
// commutation assumption the changes of one wave can therefore be
// rolled out concurrently; the waves themselves are sequential.
type Plan struct {
	Order []Step
	Waves [][]Step
	// Reports holds the validation pass's per-step verification reports,
	// aligned with Order.
	Reports []*core.Report
}

// Counterexample is the minimal dead end the search found when no safe
// ordering exists: a safe prefix all of whose extensions are unsafe,
// with one failing candidate spelled out.
type Counterexample struct {
	// Prefix is the safe prefix, in the order the search applied it
	// (empty when no first change is safe).
	Prefix []Step
	// Failing is the probed candidate reported as the witness.
	Failing Step
	// Violated names the policies the failing candidate newly violates.
	Violated []string
	// ApplyErr is set instead of Violated when the candidate could not
	// be applied to the prefix state at all.
	ApplyErr string
	// Explain is the core.Explain rendering of the first violated
	// policy's verdict flip ("" when unavailable).
	Explain string
}

// String renders the counterexample for humans.
func (c *Counterexample) String() string {
	var b strings.Builder
	b.WriteString("no violation-free ordering exists\n")
	if len(c.Prefix) == 0 {
		b.WriteString("after the base state (empty prefix):\n")
	} else {
		b.WriteString("after the safe prefix:\n")
		for _, st := range c.Prefix {
			fmt.Fprintf(&b, "  [%d] %s\n", st.Index, st.Change)
		}
	}
	fmt.Fprintf(&b, "applying [%d] %s ", c.Failing.Index, c.Failing.Change)
	if c.ApplyErr != "" {
		fmt.Fprintf(&b, "fails: %s\n", c.ApplyErr)
	} else {
		fmt.Fprintf(&b, "violates: %s\n", strings.Join(c.Violated, ", "))
	}
	if c.Explain != "" {
		b.WriteString(c.Explain)
	}
	return b.String()
}

// Stats describes the search effort.
type Stats struct {
	// Probes is the number of oracle probes executed; MemoHits the
	// number of probe results served from the memo table instead.
	Probes   int
	MemoHits int
	// Rebuilds counts fork repositionings: probes whose fork sat on
	// another state and was moved by a SetNetwork of the probe's
	// canonical network first.
	Rebuilds int
	// Workers is the pool size used.
	Workers int
	Elapsed time.Duration
}

// Result is a completed search: exactly one of Plan (a safe ordering
// exists) or Counterexample (none does) is set.
type Result struct {
	Plan           *Plan
	Counterexample *Counterexample
	Stats          Stats
}

// Search plans a safe ordering of batch against the network and
// policies of base. The base verifier is only read (network snapshot,
// compiled policies, verdicts) and forked; it is never mutated.
func Search(base *core.Verifier, batch []netcfg.Change, opts Options) (*Result, error) {
	if len(batch) == 0 {
		return nil, errors.New("plan: empty change batch")
	}
	baseNet := base.Network()
	if baseNet == nil {
		return nil, core.ErrNotLoaded
	}
	if opts.Workers <= 0 {
		opts.Workers = defaultWorkers()
	}
	if opts.Workers > len(batch) {
		opts.Workers = len(batch)
	}
	if opts.MaxProbes <= 0 {
		opts.MaxProbes = DefaultMaxProbes
	}
	m := opts.Metrics
	if m == nil {
		m = &Metrics{} // nil instruments are no-ops
	}
	m.Searches.Inc()

	// One clock times the search for Stats.Elapsed and its span: the
	// trace's when traced, else the monotonic clock (trace.Apply.Now).
	tr := opts.Recorder.Begin("plan")
	tr.SetReqID(opts.ReqID)
	start := tr.Now()

	baseViol := make(map[string]bool)
	for name, sat := range base.Verdicts() {
		if !sat {
			baseViol[name] = true
		}
	}

	s := &searcher{
		base:     base,
		baseNet:  baseNet,
		batch:    batch,
		baseViol: baseViol,
		memo:     make(map[string]map[int]probeResult),
		deadSet:  make(map[string]bool),
		opts:     opts,
		m:        m,
		tr:       tr,
	}
	pool, err := newPool(s, opts.Workers)
	if err != nil {
		return nil, err
	}
	s.pool = pool
	defer pool.close()

	order, err := s.dfs(nil, make(map[int]bool))
	res := &Result{Stats: s.stats}
	res.Stats.Workers = opts.Workers
	outcome := "error"
	switch {
	case err != nil:
		// fall through to the trace finish below
	case order != nil:
		reports, verr := s.validate(order)
		if verr != nil {
			err = verr
			break
		}
		p := &Plan{Reports: reports}
		for _, i := range order {
			p.Order = append(p.Order, Step{Index: i, Change: batch[i]})
		}
		for _, wave := range s.waves(order) {
			steps := make([]Step, 0, len(wave))
			for _, i := range wave {
				steps = append(steps, Step{Index: i, Change: batch[i]})
			}
			p.Waves = append(p.Waves, steps)
		}
		res.Plan = p
		res.Stats = s.stats // waves() adds memo hits
		res.Stats.Workers = opts.Workers
		outcome = fmt.Sprintf("planned %d waves", len(p.Waves))
		m.Planned.Inc()
	default:
		res.Counterexample = s.counterexample()
		outcome = "counterexample"
		m.Counterexamples.Inc()
	}
	end := tr.Now()
	res.Stats.Elapsed = time.Duration(end - start)
	m.Seconds.ObserveDuration(res.Stats.Elapsed)
	if tr != nil {
		tr.SpanAt(obs.TrackPlan, "search", start, end-start,
			trace.I("changes", int64(len(batch))),
			trace.I("probes", int64(res.Stats.Probes)),
			trace.I("memo_hits", int64(res.Stats.MemoHits)),
			trace.I("rebuilds", int64(res.Stats.Rebuilds)),
			trace.S("outcome", outcome))
		tr.Finish(opts.Seq)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// searcher carries one Search invocation's state. All fields are owned
// by the coordinating goroutine; workers only see immutable inputs
// (baseNet, batch, baseViol) and their own forks.
type searcher struct {
	base     *core.Verifier
	baseNet  *netcfg.Network
	batch    []netcfg.Change
	baseViol map[string]bool
	pool     *pool
	opts     Options
	m        *Metrics
	tr       *trace.Apply

	// memo caches probe outcomes per (canonical state key, candidate);
	// deadSet marks states proven to admit no safe completion.
	memo    map[string]map[int]probeResult
	deadSet map[string]bool

	stats Stats

	// dead is the minimal immediately-dead state found (the
	// counterexample when the search fails).
	dead *deadEnd
}

type deadEnd struct {
	path    []int
	failing int
	res     probeResult
}

// stateKey canonicalizes an applied change set ("1,3,7").
func stateKey(set map[int]bool) string {
	idx := sortedSet(set)
	var b strings.Builder
	for i, v := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

func sortedSet(set map[int]bool) []int {
	idx := make([]int, 0, len(set))
	for i := range set {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// dfs extends the safe prefix path (whose change set is set) one change
// at a time. It returns a complete safe order, or nil when this state
// admits no safe completion, or an error (budget, oracle failure).
func (s *searcher) dfs(path []int, set map[int]bool) ([]int, error) {
	if len(path) == len(s.batch) {
		return append([]int(nil), path...), nil
	}
	key := stateKey(set)
	if s.deadSet[key] {
		return nil, nil
	}
	var remaining []int
	for i := range s.batch {
		if !set[i] {
			remaining = append(remaining, i)
		}
	}
	results, err := s.probeAll(set, key, remaining)
	if err != nil {
		return nil, err
	}
	var safe []int
	for _, c := range remaining {
		if results[c].safe {
			safe = append(safe, c)
		}
	}
	if len(safe) == 0 {
		s.noteDeadEnd(path, remaining, results)
		s.deadSet[key] = true
		return nil, nil
	}
	for _, c := range safe {
		set[c] = true
		order, err := s.dfs(append(path, c), set)
		delete(set, c)
		if err != nil || order != nil {
			return order, err
		}
	}
	s.deadSet[key] = true
	return nil, nil
}

// probeAll returns the probe result for every candidate at the state,
// serving known results from the memo and fanning the rest out over the
// worker pool.
func (s *searcher) probeAll(set map[int]bool, key string, cands []int) (map[int]probeResult, error) {
	mm := s.memo[key]
	if mm == nil {
		mm = make(map[int]probeResult, len(cands))
		s.memo[key] = mm
	}
	results := make(map[int]probeResult, len(cands))
	var todo []int
	for _, c := range cands {
		if r, ok := mm[c]; ok {
			results[c] = r
			s.stats.MemoHits++
			s.m.MemoHits.Inc()
		} else {
			todo = append(todo, c)
		}
	}
	if len(todo) == 0 {
		return results, nil
	}
	if s.stats.Probes+len(todo) > s.opts.MaxProbes {
		return nil, fmt.Errorf("%w (%d executed, budget %d)", ErrProbeBudget, s.stats.Probes, s.opts.MaxProbes)
	}
	state := sortedSet(set)
	reply := make(chan probeReply, len(todo))
	for _, c := range todo {
		s.pool.jobs <- probeJob{state: state, cand: c, reply: reply}
	}
	var firstErr error
	for range todo {
		r := <-reply
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		mm[r.cand] = r.res
		results[r.cand] = r.res
		s.stats.Probes++
		s.m.Probes.Inc()
		if r.rebuilt {
			s.stats.Rebuilds++
			s.m.Rebuilds.Inc()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if s.tr != nil {
		for _, c := range todo { // deterministic event order
			r := results[c]
			outcome := "safe"
			if r.applyErr != "" {
				outcome = "apply-error: " + r.applyErr
			} else if !r.safe {
				outcome = "violates " + strings.Join(r.violated, ", ")
			}
			s.tr.Event(obs.TrackPlan, obs.EventProbe,
				trace.S("state", "["+key+"]"),
				trace.S("change", s.batch[c].String()),
				trace.S("outcome", outcome))
		}
	}
	return results, nil
}

// noteDeadEnd records an immediately-dead state (every candidate
// unsafe) if it is smaller than the best recorded so far. Among the
// state's candidates it prefers a policy violation over an apply error
// as the reported witness.
func (s *searcher) noteDeadEnd(path, remaining []int, results map[int]probeResult) {
	if s.dead != nil && len(s.dead.path) <= len(path) {
		return
	}
	failing := remaining[0]
	for _, c := range remaining {
		if len(results[c].violated) > 0 {
			failing = c
			break
		}
	}
	s.dead = &deadEnd{
		path:    append([]int(nil), path...),
		failing: failing,
		res:     results[failing],
	}
}

// waves groups a safe linearization into deployment waves: a change
// joins the current wave if it probed safe at the wave's start state
// (every such probe is memoized — the search visited each prefix state
// and probed all remaining candidates there).
func (s *searcher) waves(order []int) [][]int {
	var waves [][]int
	set := make(map[int]bool)
	i := 0
	for i < len(order) {
		startKey := stateKey(set)
		wave := []int{order[i]}
		set[order[i]] = true
		i++
		for i < len(order) {
			r, ok := s.memo[startKey][order[i]]
			if !ok || !r.safe {
				break
			}
			s.stats.MemoHits++
			s.m.MemoHits.Inc()
			wave = append(wave, order[i])
			set[order[i]] = true
			i++
		}
		waves = append(waves, wave)
	}
	return waves
}

// validate replays the planned order on a fresh fork, asserting every
// step stays safe and collecting the per-step reports. This makes the
// returned plan's guarantee independent of the probe bookkeeping (and
// catches non-commuting batches that slipped past the canonical-state
// construction).
func (s *searcher) validate(order []int) ([]*core.Report, error) {
	fork, err := s.base.ForkSameAt(s.baseNet, s.base.Options())
	if err != nil {
		return nil, err
	}
	reports := make([]*core.Report, 0, len(order))
	for _, c := range order {
		rep, err := fork.Apply(s.batch[c])
		if err != nil {
			return nil, fmt.Errorf("plan: planned order failed validation at %v (batch changes do not commute?): %w", s.batch[c], err)
		}
		if viol := s.newViolations(fork.Verdicts()); len(viol) > 0 {
			return nil, fmt.Errorf("plan: planned order violates %v at %v during validation (batch changes do not commute?)", viol, s.batch[c])
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// newViolations lists policies violated in verdicts but satisfied at
// the base state, sorted.
func (s *searcher) newViolations(verdicts map[string]bool) []string {
	var out []string
	for name, sat := range verdicts {
		if !sat && !s.baseViol[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// counterexample renders the minimal dead end, attaching a provenance
// explanation of the first violated policy where possible.
func (s *searcher) counterexample() *Counterexample {
	d := s.dead
	if d == nil {
		return nil
	}
	ce := &Counterexample{
		Failing:  Step{Index: d.failing, Change: s.batch[d.failing]},
		Violated: d.res.violated,
		ApplyErr: d.res.applyErr,
	}
	for _, i := range d.path {
		ce.Prefix = append(ce.Prefix, Step{Index: i, Change: s.batch[i]})
	}
	if len(d.res.violated) > 0 {
		ce.Explain = s.explainViolation(d.path, d.failing, d.res.violated[0])
	}
	return ce
}

// explainViolation replays prefix+failing on a tracing fork and asks
// core.Explain for the causal chain behind the policy flip. Best
// effort: any failure yields "".
func (s *searcher) explainViolation(prefix []int, failing int, policyName string) string {
	set := make(map[int]bool, len(prefix))
	for _, i := range prefix {
		set[i] = true
	}
	net, err := canonicalNet(s.baseNet, s.batch, sortedSet(set))
	if err != nil {
		return ""
	}
	opts := s.base.Options()
	opts.TraceApplies = 2
	fork, err := s.base.ForkSameAt(net, opts)
	if err != nil {
		return ""
	}
	if _, err := fork.Apply(s.batch[failing]); err != nil {
		return ""
	}
	ex, err := fork.Explain(policyName)
	if err != nil {
		return ""
	}
	return ex.String()
}
