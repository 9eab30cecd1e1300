package main

import (
	"fmt"
	"runtime"
	"time"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
	"realconfig/internal/simulate"
	"realconfig/internal/trace"
)

// engine performs one operation and reports what it did; it times itself
// so that untimed bookkeeping can follow the timed call.
type engine func(batch []netcfg.Change) (opInfo, error)

// phase is what one driven stretch of rounds produced.
type phase struct {
	opMS      []float64       // latency of every completed op
	opEnd     []time.Duration // when it completed, from the phase's start
	infos     []opInfo
	attempted int
	failed    int
}

// rateSlices is how many equal slices of a phase opsPerS takes the median
// over.
const rateSlices = 10

// opsPerS is the median, over equal slices of the phase, of the ops
// completed per second in the slice. Every slice still contains its slow
// ops, so a heavier tail lowers it; but unlike ops over elapsed time, a
// stall of the shared box that covers a slice or two does not move it.
func (p phase) opsPerS() float64 {
	if len(p.opEnd) == 0 {
		return 0
	}
	total := p.opEnd[len(p.opEnd)-1]
	var rates []float64
	var from time.Duration
	i := 0
	for k := 1; k <= rateSlices; k++ {
		ops, to := 0, from
		for ; i < len(p.opEnd) && p.opEnd[i] <= total*time.Duration(k)/rateSlices; i++ {
			ops++
			to = p.opEnd[i]
		}
		if ops > 0 {
			rates = append(rates, float64(ops)/(to-from).Seconds())
			from = to
		}
	}
	return median(rates)
}

// drive runs whole rounds, one caller, closed loop, until at least
// minRounds rounds are done and d has passed.
func drive(next func() round, apply engine, minRounds int, d time.Duration) phase {
	var p phase
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < d; n++ {
		for _, batch := range next() {
			info, err := apply(batch)
			p.attempted++
			if err != nil {
				p.failed++
				fmt.Printf("op %d failed: %v\n", p.attempted, err)
				continue
			}
			p.opMS = append(p.opMS, ms(info.dur))
			p.opEnd = append(p.opEnd, time.Since(start))
			p.infos = append(p.infos, info)
		}
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// oneOp is the round of workloads whose op takes no changes (a load).
func oneOp() round { return round{nil} }

// bootstrap builds the network and a verifier over it, as a daemon start
// does. The whole call is the library workloads' set-up; the op it
// reports is the core.Bootstrap alone, like the traced pipeline's load.
func (s spec) bootstrap() (*core.Verifier, opInfo, error) {
	net, err := s.build()
	if err != nil {
		return nil, opInfo{}, err
	}
	text := s.policyText(net)
	t0 := time.Now()
	v, rep, err := core.Bootstrap(core.Options{}, net.Network, text)
	if err != nil {
		return nil, opInfo{}, err
	}
	info := reportInfo(rep, time.Since(t0))
	info.sig = loadSig(v.Verdicts(), v.FIB())
	return v, info, nil
}

// repeatSetup sets up at least c.setups times, and again until
// c.setupBudget has passed, so that a set-up of milliseconds is measured
// as often as it takes for its median to be steady. release drops the
// previous instance; it and the collection after it are not timed.
func repeatSetup(c config, release, build func() error) ([]float64, error) {
	const maxSetups = 25
	var secs []float64
	start := time.Now()
	for len(secs) < c.setups || (time.Since(start) < c.setupBudget && len(secs) < maxSetups) {
		if err := release(); err != nil {
			return nil, err
		}
		runtime.GC() // the previous instance must not count towards this one's heap
		t0 := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

// footprintRounds is the fixed number of rounds after which peak_rss_mb
// is read. It is a count, not a time: the model's tables grow with every
// change, so over a timed window a faster program would apply more
// changes and look larger.
func (s spec) footprintRounds() int {
	if s.kind == kindLoad {
		return 2
	}
	return 32
}

// subject is the verifier under test. load replaces it with a fresh
// Bootstrap, as a restarted daemon would: into an empty heap, so the
// previous verifier is dropped and collected first, untimed, and no load
// pays for its predecessor's garbage.
type subject struct {
	s spec
	v *core.Verifier
}

func (t *subject) load([]netcfg.Change) (opInfo, error) {
	t.v = nil
	runtime.GC()
	var info opInfo
	var err error
	t.v, info, err = t.s.bootstrap()
	return info, err
}

func (t *subject) apply(batch []netcfg.Change) (opInfo, error) {
	t0 := time.Now()
	rep, err := t.v.Apply(batch...)
	if err != nil {
		return opInfo{}, err
	}
	return reportInfo(rep, time.Since(t0)), nil
}

// runLibrary is the gated run of a library workload.
func runLibrary(s spec, c config) (*record, error) {
	rec := newRecord(s, c)
	t := &subject{s: s}
	setups, err := repeatSetup(c,
		func() error { t.v = nil; return nil },
		func() (err error) { t.v, _, err = s.bootstrap(); return err })
	if err != nil {
		return nil, err
	}
	net, err := s.build()
	if err != nil {
		return nil, err
	}
	next, apply := oneOp, engine(t.load)
	if s.kind != kindLoad {
		next, apply = s.rounds(net, c.seed), t.apply
	}

	rec.count(drive(next, apply, s.footprintRounds(), 0))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rec.count(drive(next, apply, 1, c.warmup))
	runtime.GC()
	p := drive(next, apply, 1, c.window)
	rec.count(p)
	if s.kind == kindLoad {
		// Loads leave nothing behind to grow, and where the collector's
		// cycles fall moves one load's peak by a tenth: the highest of all
		// the run's loads is steadier than that of the first few.
		if rss, err = peakRSSMB(); err != nil {
			return nil, err
		}
	}

	rec.set("setup_s", median(setups), len(setups))
	rec.set("op_p50_ms", median(p.opMS), len(p.opMS))
	rec.set("ops_per_s", p.opsPerS(), p.attempted-p.failed)
	rec.set("peak_rss_mb", rss, 1)
	rec.diag("op_p99_ms", "ms", quantile(p.opMS, 0.99), len(p.opMS))
	rec.diag("op_max_ms", "ms", quantile(p.opMS, 1), len(p.opMS))

	rec.check("no op failed", rec.Failed == 0, fmt.Sprintf("%d of %d", rec.Failed, rec.Attempted))
	checkVerifier(rec, s, t.v)
	if s.kind == kindLoad {
		checkSameLoads(rec, p.infos)
	} else {
		checkFlips(rec, p.infos)
	}
	return rec, nil
}

// checkVerifier checks a verifier that should be back at the base
// network: that it is, its FIB against the from-scratch simulator (the
// comparison the dd-vs-simulate differential tests make), and its
// verdicts against a fresh Bootstrap of the network it ended on.
func checkVerifier(rec *record, s spec, v *core.Verifier) {
	net, err := s.build()
	if err != nil {
		rec.check("rebuild network", false, err.Error())
		return
	}
	final := v.Network()
	diff := netcfg.DiffNetworks(net.Network, final)
	rec.check("network returned to base", diff.Empty(), fmt.Sprintf("%d lines differ", diff.LineCount()))

	want, err := simulate.Run(final)
	if err != nil {
		rec.check("simulate final network", false, err.Error())
		return
	}
	extra, missing := 0, len(want.Rules)
	for rule, d := range v.FIB() {
		switch {
		case d <= 0:
		case d == 1 && want.Rules[rule]:
			missing--
		default:
			extra++
		}
	}
	rec.check("final FIB equals simulate.Run", extra == 0 && missing == 0,
		fmt.Sprintf("%d rules, %d extra, %d missing", len(want.Rules), extra, missing))

	fresh, _, err := core.Bootstrap(core.Options{}, final, s.policyText(net))
	if err != nil {
		rec.check("fresh Bootstrap of final network", false, err.Error())
		return
	}
	got, wantV := v.Verdicts(), fresh.Verdicts()
	rec.check("final verdicts equal a fresh Bootstrap", sameVerdicts(got, wantV),
		fmt.Sprintf("%d verdicts", len(wantV)))
}

func sameVerdicts(a, b map[string]bool) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for name, ok := range a {
		if other, have := b[name]; !have || other != ok {
			return false
		}
	}
	return true
}

func checkFlips(rec *record, infos []opInfo) {
	flips := 0
	for _, in := range infos {
		flips += in.events
	}
	rec.check("some apply flipped a verdict", flips > 0, fmt.Sprintf("%d flips in %d applies", flips, len(infos)))
}

func checkSameLoads(rec *record, infos []opInfo) {
	same := len(infos) > 0
	for _, in := range infos {
		same = same && in.fingerprint() == infos[0].fingerprint()
	}
	detail := ""
	if len(infos) > 0 {
		detail = infos[0].fingerprint()
	}
	rec.check("every load gave the same verdicts and rule count", same, detail)
}

// tracedWarmRounds is the fixed warm-up of a traced phase. It is a count,
// not a time, so that the untraced and the traced phase see the same
// round sequence from the same position.
func (s spec) tracedWarmRounds() int {
	if s.kind == kindLoad {
		return 1
	}
	return 8
}

// runLibraryTraced is the per-layer run: the untraced verifier and the
// traced pipeline each run the same seeded sequence for half the window.
func runLibraryTraced(s spec, c config) (*record, error) {
	rec := newRecord(s, c)
	ring := trace.NewRecorder(traceRing)
	net, err := s.build()
	if err != nil {
		return nil, err
	}
	text := s.policyText(net)

	t := &subject{s: s}
	var p *pipeline
	plain := engine(t.load)
	traced := engine(func([]netcfg.Change) (opInfo, error) {
		fresh, err := s.build()
		if err != nil {
			return opInfo{}, err
		}
		p = nil
		runtime.GC()
		p = newPipeline(ring)
		info, err := p.load(fresh.Network, text)
		if err == nil {
			info.sig = loadSig(p.checker.Verdicts(), p.gen.FIB())
		}
		return info, err
	})
	nextPlain, nextTraced := oneOp, oneOp
	if s.kind != kindLoad {
		if _, err := plain(nil); err != nil {
			return nil, err
		}
		if _, err := traced(nil); err != nil {
			return nil, err
		}
		plain, traced = t.apply, p.apply
		nextPlain, nextTraced = s.rounds(net, c.seed), s.rounds(net, c.seed)
	}

	warm := s.tracedWarmRounds()
	rec.count(drive(nextPlain, plain, warm, 0))
	runtime.GC()
	up := drive(nextPlain, plain, 1, c.window/2)
	rec.count(up)
	rec.count(drive(nextTraced, traced, warm, 0))
	runtime.GC()
	tp := drive(nextTraced, traced, 1, c.window/2)
	rec.count(tp)

	got := layerMetrics(tp, median(up.opMS))
	for _, d := range perLayer {
		rec.set(d.Name, got[d.Name], len(tp.opMS))
	}

	rec.check("no op failed", rec.Failed == 0, fmt.Sprintf("%d of %d", rec.Failed, rec.Attempted))
	n := min(len(up.infos), len(tp.infos))
	same := n > 0
	for i := 0; i < n && same; i++ {
		same = up.infos[i].fingerprint() == tp.infos[i].fingerprint()
	}
	rec.check("traced pipeline reproduces the verifier's rule counts and flips", same, fmt.Sprintf("%d ops compared", n))
	rec.check("traced pipeline ends on the verifier's verdicts", sameVerdicts(t.v.Verdicts(), p.checker.Verdicts()), "")
	rec.check("layer self times sum to within 5% of the root", within(got["self_sum_share"], 1, 0.05),
		fmt.Sprintf("sum/root = %.4f", got["self_sum_share"]))
	return rec, writeTrace(rec, ring)
}

func within(x, want, tol float64) bool { return x >= want-tol && x <= want+tol }

// countOps is the prefix of traced ops the work counters are averaged
// over; fixed, so one seed gives the same counts on every run.
const countOps = 64

// layerMetrics reduces a traced phase to the per-layer metrics. A
// layer's self time is the median over ops. Medians of parts do not add
// up to the median of the whole, so a layer's share is taken over sums:
// its self time over all ops as a share of all root spans. untracedMS is
// the median op latency of the same sequence on the untraced verifier.
func layerMetrics(tp phase, untracedMS float64) map[string]float64 {
	got := make(map[string]float64)
	for _, d := range perLayer {
		got[d.Name] = 0
	}
	var root []float64
	var rootSum time.Duration
	var selfSum [engineLayers]time.Duration
	self := make([][]float64, engineLayers)
	for _, in := range tp.infos {
		root = append(root, ms(in.root))
		rootSum += in.root
		for j, d := range in.self {
			self[j] = append(self[j], ms(d))
			selfSum[j] += d
		}
	}
	got["root_ms"] = median(root)
	for j := 0; j < engineLayers; j++ {
		got[layers[j]+"_self_ms"] = median(self[j])
		if rootSum > 0 {
			got[layers[j]+"_share"] = float64(selfSum[j]) / float64(rootSum)
			got["self_sum_share"] += got[layers[j]+"_share"]
		}
	}
	counted := tp.infos[:min(len(tp.infos), countOps)]
	for _, in := range counted {
		for name, n := range in.counts {
			got[name] += n / float64(len(counted))
		}
	}
	if got["policies_checked"] > 0 {
		got["recheck_yield"] = got["policy_events"] / got["policies_checked"]
	}
	if untracedMS > 0 {
		got["trace_overhead_share"] = (median(tp.opMS) - untracedMS) / untracedMS
	}
	return got
}
