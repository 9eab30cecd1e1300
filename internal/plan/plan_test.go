package plan_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/plan"
	"realconfig/internal/topology"
	"realconfig/internal/trace"
)

// diamondFixture builds the planner's canonical order-dependence case on
// a static-only diamond a—{b,c}—d. P (10.9.9.0/24) lives on d; a routes
// P via b, and b and c both route it to d. The batch swings a's static
// from b to c:
//
//	[0] remove a's static via b — alone, a blackholes P (no IGP backup),
//	[1] add a static via c — safe any time.
//
// So [1 0] is the only safe order, and each step is its own wave.
func diamondFixture(t *testing.T) (*core.Verifier, []netcfg.Change) {
	t.Helper()
	addr := netcfg.MustAddr
	n := netcfg.NewNetwork()
	dev := func(name string, intfs ...*netcfg.Interface) *netcfg.Config {
		cfg := &netcfg.Config{Hostname: name, Interfaces: intfs}
		n.Devices[name] = cfg
		return cfg
	}
	intf := func(name, cidr string) *netcfg.Interface {
		p := netcfg.MustPrefix(cidr) // cidr is the interface address with its mask length
		return &netcfg.Interface{Name: name, Addr: netcfg.InterfaceAddr{Addr: addr(strings.Split(cidr, "/")[0]), Len: p.Len}}
	}
	p99 := netcfg.MustPrefix("10.9.9.0/24")
	a := dev("a", intf("eth0", "10.1.0.1/30"), intf("eth1", "10.1.1.1/30"))
	b := dev("b", intf("eth0", "10.1.0.2/30"), intf("eth1", "10.1.2.1/30"))
	c := dev("c", intf("eth0", "10.1.1.2/30"), intf("eth1", "10.1.3.1/30"))
	dev("d", intf("eth0", "10.1.2.2/30"), intf("eth1", "10.1.3.2/30"), intf("lo0", "10.9.9.1/24"))
	n.Topology.Add("a", "eth0", "b", "eth0")
	n.Topology.Add("a", "eth1", "c", "eth0")
	n.Topology.Add("b", "eth1", "d", "eth0")
	n.Topology.Add("c", "eth1", "d", "eth1")
	a.StaticRoutes = []netcfg.StaticRoute{{Prefix: p99, NextHop: addr("10.1.0.2")}}
	b.StaticRoutes = []netcfg.StaticRoute{{Prefix: p99, NextHop: addr("10.1.2.2")}}
	c.StaticRoutes = []netcfg.StaticRoute{{Prefix: p99, NextHop: addr("10.1.3.2")}}

	v, _, err := core.Bootstrap(core.Options{},
		n,
		"reach a-to-d a d 10.9.9.0/24 all\nblackholefree no-blackhole 10.9.9.0/24\n")
	if err != nil {
		t.Fatal(err)
	}
	for name, sat := range v.Verdicts() {
		if !sat {
			t.Fatalf("diamond base state violates %s", name)
		}
	}
	return v, []netcfg.Change{
		netcfg.RemoveStaticRoute{Device: "a", Route: netcfg.StaticRoute{Prefix: p99, NextHop: addr("10.1.0.2")}},
		netcfg.AddStaticRoute{Device: "a", Route: netcfg.StaticRoute{Prefix: p99, NextHop: addr("10.1.1.2")}},
	}
}

func wavesOf(p *plan.Plan) [][]int {
	var out [][]int
	for _, wave := range p.Waves {
		var w []int
		for _, st := range wave {
			w = append(w, st.Index)
		}
		out = append(out, w)
	}
	return out
}

func sameWaves(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestSearchDiamond checks the planner reorders the add-before-remove
// batch and emits one wave per step.
func TestSearchDiamond(t *testing.T) {
	v, batch := diamondFixture(t)
	res, err := plan.Search(v, batch, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatalf("no plan found: %v", res.Counterexample)
	}
	if got := wavesOf(res.Plan); !sameWaves(got, [][]int{{1}, {0}}) {
		t.Fatalf("waves = %v, want [[1] [0]]", got)
	}
	if len(res.Plan.Order) != 2 || res.Plan.Order[0].Index != 1 || res.Plan.Order[1].Index != 0 {
		t.Fatalf("order = %v, want [1 0]", res.Plan.Order)
	}
	if len(res.Plan.Reports) != 2 {
		t.Fatalf("got %d validation reports, want 2", len(res.Plan.Reports))
	}
	// State {}: both candidates probed; state {1}: one. No revisits.
	if res.Stats.Probes != 3 {
		t.Fatalf("probes = %d, want 3", res.Stats.Probes)
	}
	// The planner must not have touched the base verifier.
	for name, sat := range v.Verdicts() {
		if !sat {
			t.Fatalf("base verifier violated %s after Search", name)
		}
	}
	if len(v.Network().Devices["a"].StaticRoutes) != 1 {
		t.Fatal("base network mutated by Search")
	}
}

// TestSearchCounterexample plans a batch that is doomed from the base
// state (the removal alone) and checks the minimal counterexample names
// the policies and carries a provenance explanation.
func TestSearchCounterexample(t *testing.T) {
	v, batch := diamondFixture(t)
	res, err := plan.Search(v, batch[:1], plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != nil {
		t.Fatal("found a plan for an unorderable batch")
	}
	ce := res.Counterexample
	if ce == nil {
		t.Fatal("no counterexample")
	}
	if len(ce.Prefix) != 0 {
		t.Fatalf("counterexample prefix = %v, want empty", ce.Prefix)
	}
	if ce.Failing.Index != 0 {
		t.Fatalf("failing step = %d, want 0", ce.Failing.Index)
	}
	if len(ce.Violated) != 2 || ce.Violated[0] != "a-to-d" || ce.Violated[1] != "no-blackhole" {
		t.Fatalf("violated = %v, want [a-to-d no-blackhole]", ce.Violated)
	}
	if ce.Explain == "" {
		t.Fatal("counterexample has no explanation")
	}
	if !strings.Contains(ce.String(), "a-to-d") {
		t.Fatalf("rendering does not name the policy:\n%s", ce.String())
	}
}

// TestSearchRing plans the generator's order-dependent ring batch: the
// cost change must land in a wave of its own before everything else,
// with the same effort on every run.
func TestSearchRing(t *testing.T) {
	net, err := topology.Ring(6, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := core.Bootstrap(core.Options{}, net.Network, plan.RingPolicies(net))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := plan.RingBatch(net, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Search(v, batch, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatalf("no plan found: %v", res.Counterexample)
	}
	if got := wavesOf(res.Plan); !sameWaves(got, [][]int{{1}, {0, 2, 3, 4, 5}}) {
		t.Fatalf("waves = %v, want [[1] [0 2 3 4 5]]", got)
	}
	// The search walks one safe path (6+5+4+3+2+1 probes, no backtracking);
	// wave grouping then reuses 4 memoized probes of state {1}.
	if res.Stats.Probes != 21 {
		t.Fatalf("probes = %d, want 21", res.Stats.Probes)
	}
	if res.Stats.MemoHits != 4 {
		t.Fatalf("memo hits = %d, want 4", res.Stats.MemoHits)
	}
	// No change fails to apply, so each probe leaves the one fork on its
	// state plus its candidate, and every probe after the first
	// repositions it.
	if res.Stats.Rebuilds != 20 {
		t.Fatalf("rebuilds = %d, want 20", res.Stats.Rebuilds)
	}
}

// TestSearchBudget checks probe-budget exhaustion is a loud error.
func TestSearchBudget(t *testing.T) {
	net, err := topology.Ring(6, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := core.Bootstrap(core.Options{}, net.Network, plan.RingPolicies(net))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := plan.RingBatch(net, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Search(v, batch, plan.Options{MaxProbes: 5}); !errors.Is(err, plan.ErrProbeBudget) {
		t.Fatalf("Search with 5-probe budget = %v, want ErrProbeBudget", err)
	}
}

// TestSearchInstrumented checks the metrics and the recorded trace.
func TestSearchInstrumented(t *testing.T) {
	v, batch := diamondFixture(t)
	reg := obs.NewRegistry()
	m := plan.NewMetrics(reg)
	rec := trace.NewRecorder(8)
	res, err := plan.Search(v, batch, plan.Options{
		Metrics:  m,
		Recorder: rec,
		ReqID:    "req-42",
		Seq:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatalf("no plan found: %v", res.Counterexample)
	}
	if got := m.Searches.Value(); got != 1 {
		t.Fatalf("searches counter = %d, want 1", got)
	}
	if got := m.Planned.Value(); got != 1 {
		t.Fatalf("planned counter = %d, want 1", got)
	}
	if got := m.Probes.Value(); got != uint64(res.Stats.Probes) {
		t.Fatalf("probes counter = %d, want %d", got, res.Stats.Probes)
	}
	if m.Seconds.Count() != 1 {
		t.Fatal("latency histogram not observed")
	}

	tr := rec.Latest()
	if tr == nil || tr.Label != "plan" {
		t.Fatalf("latest trace = %+v, want label plan", tr)
	}
	if tr.ReqID != "req-42" || tr.Seq != 7 {
		t.Fatalf("trace context = (%q, %d), want (req-42, 7)", tr.ReqID, tr.Seq)
	}
	probes := 0
	for _, e := range tr.Events {
		if e.Track == obs.TrackPlan && e.Kind == obs.EventProbe {
			probes++
		}
	}
	if probes != res.Stats.Probes {
		t.Fatalf("trace has %d probe events, want %d", probes, res.Stats.Probes)
	}
	span := false
	for _, s := range tr.Spans {
		if s.Track == obs.TrackPlan && s.Name == "search" {
			span = true
		}
	}
	if !span {
		t.Fatal("trace has no plan search span")
	}
}

// TestSearchElapsedIsSpan: under a counting recorder clock,
// Stats.Elapsed and the search span are one measurement.
func TestSearchElapsedIsSpan(t *testing.T) {
	v, batch := diamondFixture(t)
	rec := trace.NewRecorder(1)
	var tick int64
	rec.SetClock(func() int64 { tick++; return tick })
	res, err := plan.Search(v, batch, plan.Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	var spans []trace.Span
	for _, s := range rec.Latest().Spans {
		if s.Track == obs.TrackPlan && s.Name == "search" {
			spans = append(spans, s)
		}
	}
	if len(spans) != 1 {
		t.Fatalf("%d search spans, want 1", len(spans))
	}
	if got := time.Duration(spans[0].DurUS) * time.Microsecond; res.Stats.Elapsed <= 0 || got != res.Stats.Elapsed {
		t.Fatalf("search span lasts %v, Stats.Elapsed = %v", got, res.Stats.Elapsed)
	}
}

// TestSearchErrors covers the argument guards.
func TestSearchErrors(t *testing.T) {
	v, _ := diamondFixture(t)
	if _, err := plan.Search(v, nil, plan.Options{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := plan.Search(core.New(core.Options{}), []netcfg.Change{netcfg.AddLink{}}, plan.Options{}); !errors.Is(err, core.ErrNotLoaded) {
		t.Fatalf("unloaded base = %v, want ErrNotLoaded", err)
	}
}
