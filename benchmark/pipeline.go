package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"realconfig/internal/apkeep"
	"realconfig/internal/core"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/policy"
	"realconfig/internal/routing"
	"realconfig/internal/trace"
)

// Span names of the traced pipeline. The three stages reuse the
// obs.Stage* vocabulary; netcfg and core_other have no stage name yet.
const (
	spanNetcfg    = "netcfg"
	spanCoreOther = "core_other"
)

// spanLayer maps a span name to its index in layers.
var spanLayer = map[string]int{
	spanNetcfg:           0,
	obs.StageGenerate:    1,
	obs.StageModelUpdate: 2,
	obs.StagePolicyCheck: 3,
	spanCoreOther:        4,
}

const engineLayers = 5 // netcfg, generate, model, policy, core_other

// opInfo is what one operation did, as far as the benchmark checks or
// reports it. The traced pipeline fills every field; the untraced
// verifier only those a core.Report carries.
type opInfo struct {
	dur      time.Duration
	rulesIns int
	rulesDel int
	events   int // policy verdict flips
	// sig fingerprints the verdict set and rule count after a load.
	sig string

	root   time.Duration
	self   [engineLayers]time.Duration
	counts map[string]float64
}

// fingerprint is what the traced pipeline must reproduce of the untraced
// verifier, apply by apply.
func (o opInfo) fingerprint() string {
	return fmt.Sprintf("+%d -%d flips=%d %s", o.rulesIns, o.rulesDel, o.events, o.sig)
}

func reportInfo(rep *core.Report, dur time.Duration) opInfo {
	return opInfo{dur: dur, rulesIns: rep.RulesInserted, rulesDel: rep.RulesDeleted, events: len(rep.Check.Events)}
}

// pipeline drives generator -> model -> checker itself, in the order
// core.Verifier.SetNetwork does, recording a span around every call into
// a layer. It is the benchmark's traced stand-in for a core.Verifier
// with core.Options{}; the traced run checks it against one.
type pipeline struct {
	gen     *routing.Generator
	model   *apkeep.Model
	checker *policy.Checker
	cur     *netcfg.Network
	rec     *trace.Recorder
}

func newPipeline(rec *trace.Recorder) *pipeline {
	m := apkeep.New()
	m.AutoMerge = true // as core.New configures the bdd backend
	return &pipeline{gen: routing.New(routing.Options{}), model: m, checker: policy.NewChecker(m), rec: rec}
}

// laps times one op as back-to-back spans: each end closes the span that
// began where the previous one ended. The span goes to the trace at the
// recorder's microsecond clock, for the Chrome export; the layer's self
// time is kept at the nanosecond clock, for the metrics.
type laps struct {
	tr    *trace.Apply
	info  opInfo
	start time.Time
	at    time.Time
	atUS  int64
}

func (p *pipeline) begin(label string) *laps {
	l := &laps{tr: p.rec.Begin(label), start: time.Now()}
	l.at, l.atUS = l.start, l.tr.Now()
	return l
}

func (l *laps) end(name string, attrs ...trace.Attr) {
	l.tr.Span(obs.TrackPipeline, name, l.atUS, attrs...)
	now := time.Now()
	l.info.self[spanLayer[name]] += now.Sub(l.at)
	l.at, l.atUS = now, l.tr.Now()
}

func (l *laps) finish() opInfo {
	l.tr.Finish(0)
	l.info.root = time.Since(l.start)
	l.info.dur = l.info.root
	return l.info
}

// load is core.Bootstrap: full verification, then policy registration.
func (p *pipeline) load(net *netcfg.Network, policyText string) (opInfo, error) {
	l := p.begin("load")
	if err := p.verify(l, net); err != nil {
		return opInfo{}, err
	}
	ps, err := core.ParsePolicies(policyText)
	if err != nil {
		return opInfo{}, err
	}
	l.end(spanCoreOther)
	for _, pol := range ps {
		if !p.checker.AddPolicy(pol) {
			l.info.counts["policy_events"]++
		}
	}
	l.info.counts["policies_checked"] += float64(len(ps))
	l.end(obs.StagePolicyCheck, trace.I("policies", int64(len(ps))))
	return l.finish(), nil
}

// apply is core.Verifier.Apply.
func (p *pipeline) apply(batch []netcfg.Change) (opInfo, error) { return p.applyRaw(batch, nil) }

// applyRaw is apply preceded, when raws is not nil, by the typed decode
// of the change batch the daemon does before it calls Apply.
func (p *pipeline) applyRaw(batch []netcfg.Change, raws []json.RawMessage) (opInfo, error) {
	l := p.begin("apply")
	if raws != nil {
		var err error
		if batch, err = netcfg.DecodeChanges(raws); err != nil {
			return opInfo{}, err
		}
	}
	next := p.cur.Clone()
	for _, ch := range batch {
		if err := ch.Apply(next); err != nil {
			return opInfo{}, err
		}
	}
	l.end(spanNetcfg, trace.I("changes", int64(len(batch))))
	if err := p.verify(l, next); err != nil {
		return opInfo{}, err
	}
	return l.finish(), nil
}

func (p *pipeline) verify(l *laps, net *netcfg.Network) error {
	info := &l.info
	lines := 0
	if p.cur != nil {
		lines = netcfg.DiffNetworks(p.cur, net).LineCount()
	}
	l.end(spanNetcfg, trace.I("lines", int64(lines)))

	p.gen.SetNetwork(net)
	stats, err := p.gen.Step()
	if err != nil {
		return err
	}
	ruleChanges := p.gen.FIBChanges()
	filterChanges := p.gen.FilterChanges()
	l.end(obs.StageGenerate,
		trace.I("entries", int64(stats.Entries)), trace.I("iterations", int64(stats.Iterations)),
		trace.I("rule_changes", int64(len(ruleChanges))), trace.I("filter_changes", int64(len(filterChanges))))

	for _, e := range ruleChanges {
		if e.Diff > 0 {
			info.rulesIns += int(e.Diff)
		} else {
			info.rulesDel += int(-e.Diff)
		}
	}
	l.end(spanCoreOther)

	if err := p.model.UpdateFilters(filterChanges); err != nil {
		return err
	}
	res, err := p.model.ApplyBatch(ruleChanges, core.Options{}.Order)
	if err != nil {
		return err
	}
	l.end(obs.StageModelUpdate, trace.I("transfers", int64(len(res.Transfers))))

	devs := net.DeviceNames()
	adjs := dataplane.Adjacencies(net)
	l.end(spanCoreOther)

	p.checker.SetTopology(devs, adjs)
	check := p.checker.Update(res.Transfers, res.FilterTransfers, res.Merges...)
	l.end(obs.StagePolicyCheck,
		trace.I("policies_checked", int64(check.PoliciesChecked)), trace.I("events", int64(len(check.Events))))

	p.cur = net.Clone()
	l.end(spanNetcfg)

	// Report building, which a core.Verifier does inside the apply too.
	info.events = len(check.Events)
	info.counts = map[string]float64{
		"dd_entries":       float64(stats.Entries),
		"dd_iterations":    float64(stats.Iterations),
		"rules_changed":    float64(info.rulesIns + info.rulesDel),
		"ecs_affected":     float64(res.DistinctECs()),
		"transfers":        float64(len(res.Transfers)),
		"pairs_affected":   float64(len(check.AffectedPairs)),
		"policies_checked": float64(check.PoliciesChecked),
		"policy_events":    float64(len(check.Events)),
	}
	l.end(spanCoreOther)
	return nil
}

// loadSig fingerprints a freshly loaded verifier state: every verdict by
// name, and the live rule count.
func loadSig(verdicts map[string]bool, fib map[dataplane.Rule]dd.Diff) string {
	names := make([]string, 0, len(verdicts))
	for name := range verdicts {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		fmt.Fprintf(h, "%s=%t\n", name, verdicts[name])
	}
	return fmt.Sprintf("verdicts=%d:%x rules=%d", len(names), h.Sum64(), liveRules(fib))
}

func liveRules(fib map[dataplane.Rule]dd.Diff) int {
	n := 0
	for _, d := range fib {
		if d > 0 {
			n++
		}
	}
	return n
}
