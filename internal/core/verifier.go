// Package core assembles RealConfig: the incremental network
// configuration verifier of the paper. A Verifier chains the three
// incremental components of Figure 1 —
//
//	configuration changes
//	    -> incremental data plane generator   (internal/routing, on dd)
//	    -> incremental data plane model updater (internal/apkeep)
//	    -> incremental network policy checker  (internal/policy)
//	    -> changes in policy satisfaction
//
// — and reports what changed at every stage together with per-stage
// timings (the quantities of the paper's Tables 2 and 3).
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/policy"
	"realconfig/internal/routing"
	"realconfig/internal/trace"
)

// Options configures a Verifier.
type Options struct {
	// Order is the batch order for data plane model updates; the paper's
	// Table 3 shows InsertFirst touches about half as many ECs.
	Order apkeep.Order
	// DetectOscillation aborts non-convergent control planes with a
	// recurring-state error instead of iterating forever.
	DetectOscillation bool
	// MaxIter bounds fixpoint iterations (0 = engine default).
	MaxIter int
	// Parallel sets the worker count for policy-checker EC walks (the
	// paper's section-6 "parallelize over independent ECs" optimization;
	// <=1 = sequential).
	Parallel int
	// TraceApplies enables provenance tracing: every verification
	// records a structured trace (stage spans, per-dataflow-node epoch
	// spans, EC split/transfer/merge events, policy re-checks) into a
	// bounded ring of the last TraceApplies applies. 0 disables tracing
	// — the pipeline then pays only nil checks on its hot paths.
	TraceApplies int
	// Backend selects the data plane model implementation: "" or "bdd"
	// for the APKeep-style BDD backend, "atom" for the Delta-net-style
	// destination-interval backend. Forks inherit it via Options, so
	// what-if sessions and planner probes stay on the same backend.
	Backend string
}

// Verifier is an incremental configuration verifier. Load a network
// once, then Apply changes; each call re-verifies incrementally and
// returns a Report.
type Verifier struct {
	opts   Options
	gen    *routing.Generator
	stages Stages
	cur    *netcfg.Network

	// metrics are the verifier's own instruments (nil until Instrument;
	// nil-safe). Stage histograms are indexed like Timing.Stages().
	metrics verifierMetrics

	// rec holds the bounded ring of per-apply provenance traces (nil
	// when Options.TraceApplies is 0; all methods nil-safe).
	rec *trace.Recorder
	// nextReqID/nextSeq are the serving-layer context stamped onto the
	// next verification's trace (see SetTraceContext); every Apply and
	// SetNetwork takes and clears them, whether or not it succeeds.
	nextReqID string
	nextSeq   uint64
}

// verifierMetrics instruments the verification loop itself; stage and
// component metrics live with their packages.
type verifierMetrics struct {
	stages        map[string]*obs.Histogram
	verifications *obs.Counter
	rulesInserted *obs.Counter
	rulesDeleted  *obs.Counter
	filterChanges *obs.Counter
}

// Instrument registers the whole pipeline's metrics on reg: the
// verifier's per-stage wall-clock histograms and verification counters,
// plus the generator's dataflow engine and the back half's model and
// checker metrics. One call wires all four stages; components left
// uninstrumented pay only nil checks.
func (v *Verifier) Instrument(reg *obs.Registry) {
	stages := make(map[string]*obs.Histogram, 4)
	for _, stage := range obs.Stages() {
		stages[stage] = reg.Histogram("realconfig_stage_seconds",
			"Wall-clock time per verification stage.", nil, obs.Labels{"stage": stage})
	}
	v.metrics = verifierMetrics{
		stages:        stages,
		verifications: reg.Counter("realconfig_verifications_total", "Verifications performed (initial loads and incremental applies).", nil),
		rulesInserted: reg.Counter("realconfig_rules_inserted_total", "FIB rule insertions across all verifications.", nil),
		rulesDeleted:  reg.Counter("realconfig_rules_deleted_total", "FIB rule deletions across all verifications.", nil),
		filterChanges: reg.Counter("realconfig_filter_changes_total", "Packet-filter rule changes across all verifications.", nil),
	}
	v.gen.Instrument(reg)
	v.stages.Instrument(reg)
}

// Timing breaks a verification down by stage.
type Timing struct {
	// Generate covers compiling configurations and incrementally
	// computing data plane (FIB) changes.
	Generate time.Duration
	// ModelUpdate is the batch update of the EC model (Table 3's T1).
	// On a sharded back half it is the wall time of the fan-out.
	ModelUpdate time.Duration
	// PolicyCheck is the incremental policy recheck (Table 3's T2).
	// On a sharded back half it is the wall time of the fan-out.
	PolicyCheck time.Duration
	// Total is the whole verification.
	Total time.Duration
}

// StageTiming pairs a canonical stage name (obs.Stage*) with its wall
// time: the unit shared by CLI output, reports and live metrics.
type StageTiming struct {
	Stage string
	D     time.Duration
}

// Stages returns the per-stage timings under their canonical names, in
// pipeline order.
func (t Timing) Stages() []StageTiming {
	return []StageTiming{
		{obs.StageGenerate, t.Generate},
		{obs.StageModelUpdate, t.ModelUpdate},
		{obs.StagePolicyCheck, t.PolicyCheck},
		{obs.StageTotal, t.Total},
	}
}

// String renders the timings as "generate=… model_update=…
// policy_check=… total=…", rounded for humans.
func (t Timing) String() string {
	var b strings.Builder
	for i, st := range t.Stages() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", st.Stage, st.D.Round(100*time.Microsecond))
	}
	return b.String()
}

// Report is the outcome of one (full or incremental) verification.
type Report struct {
	// Diff is the configuration change that triggered verification
	// (empty on the initial load).
	Diff *netcfg.NetworkDiff
	// RulesInserted/RulesDeleted count FIB rule changes (Table 3's
	// "#Rules").
	RulesInserted, RulesDeleted int
	// FilterChanges counts packet-filter rule changes.
	FilterChanges int
	// Model is the data plane model update result (affected ECs etc.).
	Model *apkeep.BatchResult
	// Check is the policy check result (affected pairs, policy events).
	Check *policy.Result
	// Engine holds the dataflow engine statistics for the epoch.
	Engine dd.EpochStats
	// Timing is the per-stage wall time.
	Timing Timing
	// TraceID identifies this verification's provenance trace in the
	// verifier's recorder ring (0 when tracing is disabled).
	TraceID uint64
}

// Violations lists, in sorted order, the policies that became violated
// in this step.
func (r *Report) Violations() []string {
	var out []string
	for _, e := range r.Check.Events {
		if !e.Satisfied {
			out = append(out, e.Policy)
		}
	}
	sort.Strings(out)
	return out
}

// Repaired lists, in sorted order, the policies that became satisfied in
// this step.
func (r *Report) Repaired() []string {
	var out []string
	for _, e := range r.Check.Events {
		if e.Satisfied {
			out = append(out, e.Policy)
		}
	}
	sort.Strings(out)
	return out
}

// New creates an empty verifier on the backend named by opts.Backend
// (empty = bdd). Validate names from user input with ValidateBackend
// first; an unknown name panics.
func New(opts Options) *Verifier { return NewOn(opts, newMonolith(opts)) }

// NewOn creates an empty verifier whose model-update and policy-check
// stages run on the given back half (e.g. a shard.Set). The generator,
// reports, metrics and traces are the same as New's; opts.Backend and
// opts.Parallel are the caller's to apply when building stages.
func NewOn(opts Options, stages Stages) *Verifier {
	var rec *trace.Recorder
	if opts.TraceApplies > 0 {
		rec = trace.NewRecorder(opts.TraceApplies)
	}
	return &Verifier{
		opts: opts,
		gen: routing.New(routing.Options{
			MaxIter:           opts.MaxIter,
			DetectOscillation: opts.DetectOscillation,
		}),
		stages: stages,
		rec:    rec,
	}
}

// Recorder exposes the provenance-trace ring (nil when tracing is
// disabled; trace.Recorder methods are nil-safe).
func (v *Verifier) Recorder() *trace.Recorder { return v.rec }

// SetTraceContext stamps the serving-layer request id and sequence
// number onto the NEXT verification's trace. Callers (the daemon's
// apply goroutine) invoke it immediately before Apply/SetNetwork, which
// consume it even when they fail, so a rejected change never lends its
// context to a later verification. With tracing disabled it is a no-op.
func (v *Verifier) SetTraceContext(reqID string, seq uint64) {
	v.nextReqID, v.nextSeq = reqID, seq
}

// takeTraceContext returns and clears the pending trace context.
func (v *Verifier) takeTraceContext() (string, uint64) {
	reqID, seq := v.nextReqID, v.nextSeq
	v.nextReqID, v.nextSeq = "", 0
	return reqID, seq
}

// ErrNotLoaded is returned by operations that need a verified network
// (Apply, Fork) before Load has succeeded.
var ErrNotLoaded = errors.New("core: no network loaded (call Load first)")

// Load performs the initial full verification of a network snapshot.
func (v *Verifier) Load(net *netcfg.Network) (*Report, error) { return v.SetNetwork(net) }

// Apply applies typed configuration changes to the current network and
// re-verifies incrementally.
func (v *Verifier) Apply(changes ...netcfg.Change) (*Report, error) {
	reqID, seq := v.takeTraceContext()
	if v.cur == nil {
		return nil, ErrNotLoaded
	}
	next := v.cur.Clone()
	for _, ch := range changes {
		if err := ch.Apply(next); err != nil {
			return nil, err
		}
	}
	return v.verify(next, reqID, seq)
}

// SetNetwork verifies an arbitrary new snapshot, reusing all state valid
// since the previous one: the cost is proportional to the semantic
// change, not the network size.
func (v *Verifier) SetNetwork(net *netcfg.Network) (*Report, error) {
	reqID, seq := v.takeTraceContext()
	return v.verify(net, reqID, seq)
}

// verify is the one pipeline: diff, generate, model update, policy
// check, report, metrics, and the trace stamped with reqID and seq.
func (v *Verifier) verify(net *netcfg.Network, reqID string, seq uint64) (*Report, error) {
	start := time.Now()
	label := "apply"
	if v.cur == nil {
		label = "load"
	}
	tr := v.rec.Begin(label)
	if tr != nil {
		tr.SetReqID(reqID)
		// Components record into the apply's trace; detach on every exit
		// so a published (immutable) trace is never written again.
		v.gen.SetTrace(tr)
		v.stages.SetTrace(tr)
		defer func() {
			v.gen.SetTrace(nil)
			v.stages.SetTrace(nil)
		}()
	}
	rep := &Report{}
	if v.cur != nil {
		rep.Diff = netcfg.DiffNetworks(v.cur, net)
	} else {
		rep.Diff = &netcfg.NetworkDiff{Devices: map[string][]netcfg.LineChange{}}
	}
	if tr != nil {
		recordDiff(tr, rep.Diff)
	}

	// Stage 1: incremental data plane generation.
	t0 := time.Now()
	s0 := tr.Now()
	v.gen.SetNetwork(net)
	stats, err := v.gen.Step()
	if err != nil {
		return nil, err
	}
	ruleChanges := v.gen.FIBChanges()
	filterChanges := v.gen.FilterChanges()
	rep.Engine = stats
	rep.Timing.Generate = time.Since(t0)
	for _, e := range ruleChanges {
		if e.Diff > 0 {
			rep.RulesInserted += int(e.Diff)
		} else {
			rep.RulesDeleted += int(-e.Diff)
		}
	}
	rep.FilterChanges = len(filterChanges)
	if tr != nil {
		tr.Span(obs.TrackPipeline, obs.StageGenerate, s0,
			trace.I("rules_inserted", int64(rep.RulesInserted)),
			trace.I("rules_deleted", int64(rep.RulesDeleted)),
			trace.I("filter_changes", int64(rep.FilterChanges)),
			trace.I("entries", int64(stats.Entries)),
			trace.I("iterations", int64(stats.Iterations)))
	}

	// Stage 2: incremental data plane model update.
	t0 = time.Now()
	s0 = tr.Now()
	rep.Model, err = v.stages.UpdateModel(ruleChanges, filterChanges, v.opts.Order)
	if err != nil {
		// The generator only retracts rules it previously emitted, so an
		// absent-rule delete here is model/generator state divergence (a
		// bug), not a user error: say so instead of passing it through.
		if errors.Is(err, apkeep.ErrAbsentRule) {
			return nil, fmt.Errorf("core: data plane model out of sync with generator: %w", err)
		}
		return nil, err
	}
	rep.Timing.ModelUpdate = time.Since(t0)
	if tr != nil {
		tr.Span(obs.TrackPipeline, obs.StageModelUpdate, s0,
			trace.I("transfers", int64(len(rep.Model.Transfers))),
			trace.I("filter_transfers", int64(len(rep.Model.FilterTransfers))),
			trace.I("merges", int64(len(rep.Model.Merges))),
			trace.I("ecs", int64(v.stages.NumECs())))
	}

	// Stage 3: incremental policy checking.
	t0 = time.Now()
	s0 = tr.Now()
	rep.Check = v.stages.Check(rep.Model, net.DeviceNames(), dataplane.Adjacencies(net))
	rep.Timing.PolicyCheck = time.Since(t0)
	if tr != nil {
		tr.Span(obs.TrackPipeline, obs.StagePolicyCheck, s0,
			trace.I("affected_ecs", int64(rep.Check.AffectedECs)),
			trace.I("affected_pairs", int64(len(rep.Check.AffectedPairs))),
			trace.I("policies_checked", int64(rep.Check.PoliciesChecked)),
			trace.I("events", int64(len(rep.Check.Events))))
	}

	v.cur = net.Clone()
	rep.Timing.Total = time.Since(start)
	for _, st := range rep.Timing.Stages() {
		v.metrics.stages[st.Stage].ObserveDuration(st.D)
	}
	v.metrics.verifications.Inc()
	v.metrics.rulesInserted.Add(uint64(rep.RulesInserted))
	v.metrics.rulesDeleted.Add(uint64(rep.RulesDeleted))
	v.metrics.filterChanges.Add(uint64(rep.FilterChanges))
	if tr != nil {
		rep.TraceID = tr.ID
		tr.Finish(seq)
	}
	return rep, nil
}

// recordDiff emits one config_change event per changed device (sorted)
// plus one per link change: the start of the causal chain every other
// trace event links back to.
func recordDiff(tr *trace.Apply, diff *netcfg.NetworkDiff) {
	devs := make([]string, 0, len(diff.Devices))
	for d := range diff.Devices {
		devs = append(devs, d)
	}
	sort.Strings(devs)
	for _, d := range devs {
		chs := diff.Devices[d]
		var b strings.Builder
		for i, c := range chs {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(c.String())
		}
		tr.Event(obs.TrackPipeline, obs.EventConfigChange,
			trace.S("device", d), trace.I("lines", int64(len(chs))), trace.S("detail", b.String()))
	}
	for _, lc := range diff.Links {
		tr.Event(obs.TrackPipeline, obs.EventConfigChange,
			trace.S("device", "(link)"), trace.I("lines", 1),
			trace.S("detail", fmt.Sprintf("%s %v", lc.Op, lc.Link)))
	}
}

// Options returns the verifier's configuration, so callers (what-if
// sessions, journal replay) can build an equivalently configured fork.
func (v *Verifier) Options() Options { return v.opts }

// Fork builds an independent verifier over a copy of the current
// network, with the same options and the given policy specification
// re-parsed against the fork's own BDD table (policy predicates are
// table-relative, so the live verifier's Policy values cannot be
// shared). The fork's state is disjoint from the live verifier: changes
// applied to it are speculative. Returns ErrNotLoaded before Load.
func (v *Verifier) Fork(policyText string) (*Verifier, error) {
	if v.cur == nil {
		return nil, ErrNotLoaded
	}
	fork, _, err := Bootstrap(v.opts, v.cur.Clone(), policyText)
	return fork, err
}

// ForkSame builds an independent verifier over a copy of the current
// network, reusing the already-compiled policy set: policies are plain
// values with backend-neutral Match headers, so they register on the
// fork directly, skipping the specification re-parse that Fork pays.
// Unlike Fork it also carries policies that were registered
// programmatically and never had a source line. Planner probes use it
// to spin up oracle forks cheaply. Returns ErrNotLoaded before Load.
func (v *Verifier) ForkSame() (*Verifier, error) {
	if v.cur == nil {
		return nil, ErrNotLoaded
	}
	return v.ForkSameAt(v.cur.Clone(), v.opts)
}

// ForkSameAt is ForkSame generalized: the fork loads the given network
// snapshot (used directly, not cloned) under the given options, then
// registers this verifier's compiled policies. Benchmarks use it to
// price a from-scratch verification of an arbitrary intermediate state,
// and the planner uses it to build a tracing fork positioned at a
// counterexample prefix. Forks are always monolithic, whatever this
// verifier's back half: speculative runs are one-shot, so shard warm-up
// would cost more than it saves.
func (v *Verifier) ForkSameAt(net *netcfg.Network, opts Options) (*Verifier, error) {
	fork := New(opts)
	if _, err := fork.Load(net); err != nil {
		return nil, err
	}
	for _, p := range v.stages.Policies() {
		fork.AddPolicy(p)
	}
	return fork, nil
}

// Bootstrap builds a verifier over a network snapshot with policies
// parsed from a specification text: the construction path shared by
// daemon startup, journal replay and what-if forks. The network is used
// directly (not cloned); pass a copy if the caller retains it.
func Bootstrap(opts Options, net *netcfg.Network, policyText string) (*Verifier, *Report, error) {
	v := New(opts)
	rep, err := v.Load(net)
	if err != nil {
		return nil, nil, err
	}
	ps, err := ParsePolicies(policyText)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range ps {
		v.AddPolicy(p)
	}
	return v, rep, nil
}

// Network returns a copy of the currently verified snapshot (nil before
// Load).
func (v *Verifier) Network() *netcfg.Network {
	if v.cur == nil {
		return nil
	}
	return v.cur.Clone()
}

// NumDevices returns the verified snapshot's device count (0 before
// Load) without copying it.
func (v *Verifier) NumDevices() int {
	if v.cur == nil {
		return 0
	}
	return len(v.cur.Devices)
}

// HasDevice reports whether the verified snapshot has the named device
// (false before Load).
func (v *Verifier) HasDevice(name string) bool {
	return v.cur != nil && v.cur.Devices[name] != nil
}

// AddPolicy registers a policy with the checker and returns its initial
// verdict. Policies can be added before or after Load.
func (v *Verifier) AddPolicy(p policy.Policy) bool { return v.stages.AddPolicy(p) }

// RemovePolicy unregisters a policy.
func (v *Verifier) RemovePolicy(name string) { v.stages.RemovePolicy(name) }

// Verdicts returns the current satisfaction of every registered policy.
func (v *Verifier) Verdicts() map[string]bool { return v.stages.Verdicts() }

// FIB returns a copy of the accumulated forwarding rules. Callers may
// mutate the returned map freely; verifier state is unaffected.
func (v *Verifier) FIB() map[dataplane.Rule]dd.Diff {
	live := v.gen.FIB()
	out := make(map[dataplane.Rule]dd.Diff, len(live))
	for r, d := range live {
		out[r] = d
	}
	return out
}

// Model exposes the data plane model backend (ECs, ports) for
// inspection, behind the backend-neutral interface. Nil unless the
// verifier was built by New.
func (v *Verifier) Model() Model {
	if m, ok := v.stages.(*monolith); ok {
		return m.model
	}
	return nil
}

// Checker exposes the policy checker for advanced queries (path traces,
// pair maps, explanations). Nil unless the verifier was built by New.
func (v *Verifier) Checker() *policy.Checker {
	if m, ok := v.stages.(*monolith); ok {
		return m.checker
	}
	return nil
}

// Generator exposes the data plane generator (per-protocol bests).
func (v *Verifier) Generator() *routing.Generator { return v.gen }

// NumECs returns the current number of packet equivalence classes
// (summed over shards, which hold overlapping slices).
func (v *Verifier) NumECs() int { return v.stages.NumECs() }

// NumPairs returns the maintained (EC, device) pair count.
func (v *Verifier) NumPairs() int { return v.stages.NumPairs() }

// NumFIBRules returns the number of live forwarding rules.
func (v *Verifier) NumFIBRules() int {
	n := 0
	for _, d := range v.gen.FIB() {
		if d > 0 {
			n++
		}
	}
	return n
}
