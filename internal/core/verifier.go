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
	"maps"
	"sort"
	"strings"
	"sync"
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
	// TraceApplies enables provenance tracing: every verification
	// records a structured trace (stage spans, per-dataflow-node epoch
	// spans, EC split/transfer/merge events, policy re-checks) into a
	// bounded ring of the last TraceApplies applies. 0 disables tracing
	// — the pipeline then pays only nil checks on its hot paths.
	TraceApplies int
}

// Verifier is an incremental configuration verifier. Load a network
// once, then Apply changes; each call re-verifies incrementally and
// returns a Report.
type Verifier struct {
	opts    Options
	gen     *routing.Generator
	model   *apkeep.Model
	checker *policy.Checker
	// cur is the verified network. Successive networks share every
	// *Config and the *Topology that no change touched, so the verifier
	// never mutates a *Config or *Topology it holds, and hands callers
	// deep copies only (Network).
	cur *netcfg.Network

	// metrics are the verifier's own instruments (nil until Instrument;
	// nil-safe). Stage histograms are indexed like Timing.Stages(). reg
	// is the registry they live on, kept so that a rollback can
	// instrument the rebuilt stages.
	metrics verifierMetrics
	reg     *obs.Registry

	// rec holds the bounded ring of per-apply provenance traces (nil
	// when Options.TraceApplies is 0; all methods nil-safe).
	rec *trace.Recorder
	// nextReqID/nextSeq are the serving-layer context stamped onto the
	// next verification's trace (see SetTraceContext); every Apply and
	// SetNetwork takes and clears them, whether or not it succeeds.
	nextReqID string
	nextSeq   uint64

	// liveNodes is the BDD node count the last collection left (0
	// before the first); see collectDue.
	liveNodes int
}

// The BDD collection rule: a verification collects the model's node
// table once it holds collectRatio times the nodes the last collection
// left, and never below collectMinNodes, where a collection costs more
// than it saves.
const (
	collectRatio    = 3
	collectMinNodes = 16 << 10
)

// collectDue reports whether the model's node table is due a
// collection under the rule above.
func (v *Verifier) collectDue() bool {
	return v.model.H.Size() >= max(collectMinNodes, collectRatio*v.liveNodes)
}

// verifierMetrics instruments the verification loop itself; stage and
// component metrics live with their packages.
type verifierMetrics struct {
	stages        [numStages]*obs.Histogram
	verifications *obs.Counter
	rulesInserted *obs.Counter
	rulesDeleted  *obs.Counter
	filterChanges *obs.Counter
}

// Instrument registers the whole pipeline's metrics on reg: the
// verifier's per-stage wall-clock histograms and verification counters,
// plus the generator's dataflow engine and the model and checker
// metrics. One call wires all four stages; components left
// uninstrumented pay only nil checks.
func (v *Verifier) Instrument(reg *obs.Registry) {
	v.reg = reg
	v.metrics = verifierMetrics{
		verifications: reg.Counter("realconfig_verifications_total", "Verifications performed (initial loads and incremental applies).", nil),
		rulesInserted: reg.Counter("realconfig_rules_inserted_total", "FIB rule insertions across all verifications.", nil),
		rulesDeleted:  reg.Counter("realconfig_rules_deleted_total", "FIB rule deletions across all verifications.", nil),
		filterChanges: reg.Counter("realconfig_filter_changes_total", "Packet-filter rule changes across all verifications.", nil),
	}
	for i, stage := range obs.Stages() {
		v.metrics.stages[i] = reg.Histogram("realconfig_stage_seconds",
			"Wall-clock time per verification stage.", nil, obs.Labels{"stage": stage})
	}
	v.gen.Instrument(reg)
	v.model.Instrument(reg)
	v.checker.Instrument(reg)
}

// Timing breaks a verification down by stage. The stages run back to
// back on one clock (see stageClock), so Netcfg through Collect add up
// to Total exactly.
type Timing struct {
	// Netcfg covers building the next network (the copy-on-write apply
	// or the snapshot copy), diffing its links against the current
	// one's and naming the devices to recompile. The line diff is part
	// of it only on a traced verification (see Report.Diff).
	Netcfg time.Duration
	// Generate covers compiling configurations and incrementally
	// computing data plane (FIB) changes.
	Generate time.Duration
	// ModelUpdate is the batch update of the EC model (Table 3's T1).
	ModelUpdate time.Duration
	// PolicyCheck is the incremental policy recheck (Table 3's T2).
	PolicyCheck time.Duration
	// Collect is the BDD node table collection, 0 when none was due.
	Collect time.Duration
	// Total is the whole verification.
	Total time.Duration
}

// numStages is len(obs.Stages()).
const numStages = 6

// StageTiming pairs a canonical stage name (obs.Stage*) with its wall
// time: the unit shared by CLI output, reports and live metrics.
type StageTiming struct {
	Stage string
	D     time.Duration
}

// Stages returns the per-stage timings under their canonical names, in
// obs.Stages() order.
func (t Timing) Stages() [numStages]StageTiming {
	return [numStages]StageTiming{
		{obs.StageNetcfg, t.Netcfg},
		{obs.StageGenerate, t.Generate},
		{obs.StageModelUpdate, t.ModelUpdate},
		{obs.StagePolicyCheck, t.PolicyCheck},
		{obs.StageCollect, t.Collect},
		{obs.StageTotal, t.Total},
	}
}

// String renders the timings as "netcfg=… generate=… … total=…",
// rounded to the microsecond.
func (t Timing) String() string {
	var b strings.Builder
	for i, st := range t.Stages() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", st.Stage, st.D.Round(time.Microsecond))
	}
	return b.String()
}

// stageClock times one verification on one clock, read once per stage
// boundary: the trace's clock when the verification is traced, so its
// pipeline spans and its Timing are one measurement, and the monotonic
// clock otherwise (see trace.Apply.Now). Each stage begins where the
// previous one ended, so the stages add up to the total.
type stageClock struct {
	tr *trace.Apply
	// start and at are readings of tr's clock, in nanoseconds: the
	// verification's start and the last stage boundary.
	start, at int64
}

// startClock starts a verification's trace, stamped with reqID, and its
// clock.
func (v *Verifier) startClock(reqID string) stageClock {
	label := "apply"
	if v.cur == nil {
		label = "load"
	}
	tr := v.rec.Begin(label)
	tr.SetReqID(reqID)
	now := tr.Now()
	return stageClock{tr: tr, start: now, at: now}
}

// lap ends the stage that began at the last boundary, stores its time in
// *d and, on a traced verification, records it as a pipeline span named
// stage with the attributes attrs builds. attrs may be nil; it is called
// only when traced, so an untraced verification builds no attributes.
func (c *stageClock) lap(d *time.Duration, stage string, attrs func() []trace.Attr) {
	now := c.tr.Now()
	*d = time.Duration(now - c.at)
	if c.tr != nil {
		var as []trace.Attr
		if attrs != nil {
			as = attrs()
		}
		c.tr.SpanAt(obs.TrackPipeline, stage, c.at, now-c.at, as...)
	}
	c.at = now
}

// total is the time from the start to the last boundary: the sum of the
// stages lapped so far.
func (c *stageClock) total() time.Duration { return time.Duration(c.at - c.start) }

// Report is the outcome of one (full or incremental) verification.
type Report struct {
	// RulesInserted/RulesDeleted count FIB rule changes (Table 3's
	// "#Rules").
	RulesInserted, RulesDeleted int
	// FilterChanges counts packet-filter rule changes.
	FilterChanges int
	// Model is the data plane model update result (affected ECs etc.).
	// Its EC handles name classes as of the update: the apply may then
	// collect the BDD table, after which a handle that is no longer an
	// EC is not a predicate to evaluate.
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

	// prev and next are the networks the verification went from (nil
	// on the initial load) and to, kept until Diff reads them. Under
	// the invariant on Verifier.cur neither is ever written again, so a
	// diff taken later equals one taken during the verification.
	prev, next *netcfg.Network
	diffOnce   sync.Once
	diff       *netcfg.NetworkDiff
}

// Diff returns the configuration change that triggered the
// verification (empty on the initial load): the line diff of every
// changed device plus the link changes. An untraced verification needs
// only the link changes, so the line diff is taken at the first call,
// once, and is safe for concurrent callers; a traced one takes it
// during the verification, to record it.
func (r *Report) Diff() *netcfg.NetworkDiff {
	r.diffOnce.Do(func() {
		if r.prev == nil {
			r.diff = &netcfg.NetworkDiff{Devices: map[string][]netcfg.LineChange{}}
		} else {
			r.diff = netcfg.DiffNetworks(r.prev, r.next)
		}
		r.prev, r.next = nil, nil
	})
	return r.diff
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

// New creates an empty verifier.
func New(opts Options) *Verifier {
	var rec *trace.Recorder
	if opts.TraceApplies > 0 {
		rec = trace.NewRecorder(opts.TraceApplies)
	}
	model := apkeep.New()
	model.AutoMerge = true // keep the EC partition minimal, as APKeep does
	return &Verifier{
		opts:    opts,
		gen:     routing.New(routing.Options{}),
		model:   model,
		checker: policy.NewChecker(model),
		rec:     rec,
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
// (Apply) before Load has succeeded.
var ErrNotLoaded = errors.New("core: no network loaded (call Load first)")

// Load performs the initial full verification of a network snapshot.
// The verifier keeps a copy of net, so the caller may go on using it.
// A Load that fails leaves the verifier unloaded.
func (v *Verifier) Load(net *netcfg.Network) (*Report, error) { return v.SetNetwork(net) }

// Apply applies typed configuration changes to the current network and
// re-verifies incrementally. The next network is built copy-on-write
// (see applyShared), so neither building nor diffing it costs more than
// the devices the changes touch. A batch that fails, to apply or to
// verify, leaves the verifier as it was (see verify).
func (v *Verifier) Apply(changes ...netcfg.Change) (*Report, error) {
	reqID, seq := v.takeTraceContext()
	if v.cur == nil {
		return nil, ErrNotLoaded
	}
	c := v.startClock(reqID)
	next, err := applyShared(v.cur, changes)
	if err != nil {
		return nil, err
	}
	return v.verify(c, next, seq)
}

// applyShared returns cur with changes applied, sharing with cur every
// *Config no change touches and the *Topology unless one edits links.
// Each touched device is cloned once, before the first change that
// touches it; cur itself is never written.
func applyShared(cur *netcfg.Network, changes []netcfg.Change) (*netcfg.Network, error) {
	next := &netcfg.Network{Devices: maps.Clone(cur.Devices), Topology: cur.Topology}
	for _, ch := range changes {
		devs, links := ch.Touches()
		for _, d := range devs {
			if cfg := next.Devices[d]; cfg != nil && cfg == cur.Devices[d] {
				next.Devices[d] = cfg.Clone()
			}
		}
		if links && next.Topology == cur.Topology {
			next.Topology = cur.Topology.Clone()
		}
		if err := ch.Apply(next); err != nil {
			return nil, err
		}
	}
	return next, nil
}

// SetNetwork verifies an arbitrary new snapshot, reusing all state valid
// since the previous one: the cost is proportional to the semantic
// change, not the network size. The verifier keeps a copy of net, so the
// caller may go on using it. A snapshot that fails to verify leaves the
// verifier as it was.
func (v *Verifier) SetNetwork(net *netcfg.Network) (*Report, error) {
	reqID, seq := v.takeTraceContext()
	c := v.startClock(reqID)
	return v.verify(c, net.Clone(), seq)
}

// verify runs the pipeline over net, on the clock c started before net
// was built, and is all or nothing: on success the verifier adopts net
// as the current network, so net must be the verifier's alone (see the
// invariant on Verifier.cur); on failure it rolls back, so the error
// leaves no trace of net.
func (v *Verifier) verify(c stageClock, net *netcfg.Network, seq uint64) (*Report, error) {
	rep, err := v.pipeline(c, net, seq)
	if err != nil {
		if rerr := v.rollback(); rerr != nil {
			return nil, errors.Join(err, rerr)
		}
		return nil, err
	}
	return rep, nil
}

// rollback follows a verification that failed part way: the generator
// may have stepped and the model and checker may have taken part of the
// update. It rebuilds all three over v.cur with the registered policies
// (Build, which v.cur may share) and instruments them on the verifier's
// registry. Before the first successful Load there is no network to
// rebuild over, and the verifier stays unloaded with its policies. So
// does a v.cur that no longer loads, which the incremental == fresh
// oracle says cannot happen; its error is returned.
func (v *Verifier) rollback() error {
	opts := v.opts
	opts.TraceApplies = 0 // the recorder stays with v
	ps := v.checker.Policies()
	fresh, _, err := Build(opts, v.cur, ps)
	if err != nil {
		fresh, _, _ = Build(opts, nil, ps)
		err = fmt.Errorf("core: rolling back to the last verified network: %w", err)
	}
	v.gen, v.model, v.checker = fresh.gen, fresh.model, fresh.checker
	v.cur, v.liveNodes = fresh.cur, fresh.liveNodes
	if v.reg != nil {
		v.Instrument(v.reg)
	}
	return err
}

// pipeline is the one verification: diff, generate, model update,
// policy check, collection, report, metrics, and the trace c started,
// finished with seq. Each stage is one lap of c. It adopts net on
// success and leaves the stages dirty on failure.
func (v *Verifier) pipeline(c stageClock, net *netcfg.Network, seq uint64) (*Report, error) {
	tr := c.tr
	if tr != nil {
		// Components record into the apply's trace; detach on every exit
		// so a published (immutable) trace is never written again.
		v.gen.SetTrace(tr)
		v.model.SetTrace(tr)
		v.checker.SetTrace(tr)
		defer func() {
			v.gen.SetTrace(nil)
			v.model.SetTrace(nil)
			v.checker.SetTrace(nil)
		}()
	}
	rep := &Report{prev: v.cur, next: net}
	var links []netcfg.LinkChange
	if v.cur != nil {
		links = netcfg.DiffLinks(v.cur.Topology, net.Topology)
	}
	if tr != nil {
		recordDiff(tr, rep.Diff())
	}
	changed := changedDevices(v.cur, net, links)
	c.lap(&rep.Timing.Netcfg, obs.StageNetcfg, func() []trace.Attr {
		return []trace.Attr{
			trace.I("devices_changed", int64(len(changed))),
			trace.I("lines", int64(rep.Diff().LineCount())),
			trace.I("links", int64(len(links)))}
	})

	// Stage 1: incremental data plane generation.
	compiled := v.gen.SetNetworkDelta(net, changed)
	stats, err := v.gen.Step()
	if err != nil {
		return nil, err
	}
	ruleChanges := v.gen.FIBChanges()
	filterChanges := v.gen.FilterChanges()
	rep.Engine = stats
	for _, e := range ruleChanges {
		if e.Diff > 0 {
			rep.RulesInserted += int(e.Diff)
		} else {
			rep.RulesDeleted += int(-e.Diff)
		}
	}
	rep.FilterChanges = len(filterChanges)
	c.lap(&rep.Timing.Generate, obs.StageGenerate, func() []trace.Attr {
		return []trace.Attr{
			trace.I("rules_inserted", int64(rep.RulesInserted)),
			trace.I("rules_deleted", int64(rep.RulesDeleted)),
			trace.I("filter_changes", int64(rep.FilterChanges)),
			trace.I("units_compiled", int64(compiled.Units)),
			trace.I("entries", int64(stats.Entries)),
			trace.I("iterations", int64(stats.Iterations))}
	})

	// Stage 2: incremental data plane model update.
	err = v.model.UpdateFilters(filterChanges)
	if err == nil {
		rep.Model, err = v.model.ApplyBatch(ruleChanges, v.opts.Order)
	}
	if err != nil {
		// The generator only retracts rules and filter lines it
		// previously emitted, so an absent-rule retraction here is
		// model/generator state divergence (a bug), not a user error:
		// say so instead of passing it through.
		if errors.Is(err, apkeep.ErrAbsentRule) {
			return nil, fmt.Errorf("core: data plane model out of sync with generator: %w", err)
		}
		return nil, err
	}
	c.lap(&rep.Timing.ModelUpdate, obs.StageModelUpdate, func() []trace.Attr {
		return []trace.Attr{
			trace.I("transfers", int64(len(rep.Model.Transfers))),
			trace.I("filter_transfers", int64(len(rep.Model.FilterTransfers))),
			trace.I("merges", int64(len(rep.Model.Merges))),
			trace.I("ecs", int64(v.model.NumECs()))}
	})

	// Stage 3: incremental policy checking.
	if compiled.TopologyChanged {
		v.checker.SetTopology(net.DeviceNames(), dataplane.Adjacencies(net))
	}
	rep.Check = v.checker.Update(rep.Model.Transfers, rep.Model.FilterTransfers, rep.Model.Merges...)
	c.lap(&rep.Timing.PolicyCheck, obs.StagePolicyCheck, func() []trace.Attr {
		return []trace.Attr{
			trace.I("affected_ecs", int64(rep.Check.AffectedECs)),
			trace.I("affected_pairs", int64(len(rep.Check.AffectedPairs))),
			trace.I("policies_checked", int64(rep.Check.PoliciesChecked)),
			trace.I("events", int64(len(rep.Check.Events)))}
	})

	// The model and checker are quiescent: every node they hold is
	// reachable from the model's roots, so the node table can be
	// collected.
	if v.collectDue() {
		v.model.Collect()
		v.liveNodes = v.model.H.Size()
		c.lap(&rep.Timing.Collect, obs.StageCollect, nil)
	}

	v.cur = net
	rep.Timing.Total = c.total()
	for i, st := range rep.Timing.Stages() {
		v.metrics.stages[i].ObserveDuration(st.D)
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

// changedDevices names the devices whose compile units an apply from
// cur to next must recompile before their link neighbours: every device
// whose *Config differs by pointer (added and removed ones included)
// and both endpoints of every added or removed link. Under the
// invariant on Verifier.cur, a shared *Config is an unchanged one. cur
// is nil on the initial load, when every device of next is changed.
func changedDevices(cur, next *netcfg.Network, links []netcfg.LinkChange) []string {
	var out []string
	for name, cfg := range next.Devices {
		if cur == nil || cur.Devices[name] != cfg {
			out = append(out, name)
		}
	}
	if cur != nil {
		for name := range cur.Devices {
			if next.Devices[name] == nil {
				out = append(out, name)
			}
		}
	}
	for _, lc := range links {
		out = append(out, lc.Link.DevA, lc.Link.DevB)
	}
	return out
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

// ForkSameAt builds an independent verifier: the fork loads a copy of
// the given network snapshot under the given options, then registers
// this verifier's compiled policies. Policies are plain values with
// model-independent Match headers, so they register on the fork
// directly, programmatic ones included, with no specification to
// re-parse. The planner builds its probe, validation and tracing forks
// with it, and benchmarks use it to price a from-scratch verification
// of an arbitrary state.
func (v *Verifier) ForkSameAt(net *netcfg.Network, opts Options) (*Verifier, error) {
	fork, _, err := Build(opts, net.Clone(), v.checker.Policies())
	return fork, err
}

// Bootstrap builds a verifier over a network snapshot with policies
// parsed from a specification text. Like Load, it keeps a copy of the
// network, so the caller may go on using it.
func Bootstrap(opts Options, net *netcfg.Network, policyText string) (*Verifier, *Report, error) {
	ps, err := ParsePolicies(policyText)
	if err != nil {
		return nil, nil, err
	}
	return Build(opts, net.Clone(), ps)
}

// Build is the one construction path of a loaded verifier: Bootstrap,
// ForkSameAt, rollback and the daemon's what-if and plan forks take it.
// It verifies net under opts from scratch and then registers ps in
// order. The verifier adopts net, so net must be the caller's alone
// and never written again (see the invariant on Verifier.cur). A nil
// net leaves the verifier unloaded, with ps registered.
func Build(opts Options, net *netcfg.Network, ps []policy.Policy) (*Verifier, *Report, error) {
	v := New(opts)
	var rep *Report
	if net != nil {
		var err error
		if rep, err = v.pipeline(v.startClock(""), net, 0); err != nil {
			return nil, nil, err
		}
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
func (v *Verifier) AddPolicy(p policy.Policy) bool { return v.checker.AddPolicy(p) }

// RemovePolicy unregisters a policy.
func (v *Verifier) RemovePolicy(name string) { v.checker.RemovePolicy(name) }

// Verdicts returns the current satisfaction of every registered policy.
func (v *Verifier) Verdicts() map[string]bool { return v.checker.Verdicts() }

// FIB returns the accumulated forwarding rules in a fresh map (the
// generator builds one per call). Callers may mutate it freely;
// verifier state is unaffected.
func (v *Verifier) FIB() map[dataplane.Rule]dd.Diff { return v.gen.FIB() }

// Model exposes the data plane model (ECs, ports) for inspection.
func (v *Verifier) Model() *apkeep.Model { return v.model }

// Checker exposes the policy checker for advanced queries (path traces,
// outcomes, explanations).
func (v *Verifier) Checker() *policy.Checker { return v.checker }

// Generator exposes the data plane generator (per-protocol bests).
func (v *Verifier) Generator() *routing.Generator { return v.gen }

// NumECs returns the current number of packet equivalence classes.
func (v *Verifier) NumECs() int { return v.model.NumECs() }

// NumPairs returns how many (src, dst) pairs have at least one
// deliverable EC.
func (v *Verifier) NumPairs() int { return v.checker.NumPairs() }

// NumFIBRules returns the number of live forwarding rules.
func (v *Verifier) NumFIBRules() int { return v.gen.NumFIBRules() }
