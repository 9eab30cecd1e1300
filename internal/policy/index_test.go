package policy

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// refScan is the relevance scan the registration index replaced, kept
// here as its oracle: the ECs an Update must treat as affected (the
// transferred ones resolved through merges, plus the classes the model
// created), whether or not they survived the batch, and per EC the
// devices whose behaviour for it changed.
func refScan(before map[apkeep.ECID]*ecResult, m *apkeep.Model, br *apkeep.BatchResult) map[apkeep.ECID]map[string]struct{} {
	alias := make(map[apkeep.ECID]apkeep.ECID)
	for _, me := range br.Merges {
		alias[me.A], alias[me.B] = me.Result, me.Result
	}
	resolve := func(ec apkeep.ECID) apkeep.ECID {
		for {
			next, ok := alias[ec]
			if !ok {
				return ec
			}
			ec = next
		}
	}
	affected := make(map[apkeep.ECID]map[string]struct{})
	mark := func(ec apkeep.ECID, dev string) {
		if affected[ec] == nil {
			affected[ec] = make(map[string]struct{})
		}
		if dev != "" {
			affected[ec][dev] = struct{}{}
		}
	}
	for _, t := range br.Transfers {
		mark(resolve(t.EC), m.DevName(t.Device))
	}
	for _, t := range br.FilterTransfers {
		mark(resolve(t.EC), m.DevName(t.Key.Device))
	}
	for _, ec := range m.AppendLive(nil) {
		if _, ok := before[ec]; !ok {
			mark(ec, "")
		}
	}
	return affected
}

// snapshot copies the checker's walk results, keyed by EC id.
func snapshot(c *Checker) map[apkeep.ECID]*ecResult {
	out := make(map[apkeep.ECID]*ecResult, len(c.ecs))
	for id, r := range c.ecs {
		if r != nil {
			out[apkeep.ECID(id)] = r
		}
	}
	return out
}

// predicates records each affected EC's predicate. Take it before the
// Update: an id split away in the batch is freed by it.
func predicates(m *apkeep.Model, affected map[apkeep.ECID]map[string]struct{}) map[apkeep.ECID]bdd.Node {
	nodes := make(map[apkeep.ECID]bdd.Node, len(affected))
	for ec := range affected {
		nodes[ec] = m.Node(ec)
	}
	return nodes
}

// refPoliciesChecked counts, by brute force, the registered policies
// whose header overlaps an affected EC's predicate.
func refPoliciesChecked(c *Checker, nodes map[apkeep.ECID]bdd.Node) int {
	n := 0
	for _, rec := range c.policies {
		for _, ec := range nodes {
			if c.model.MatchOverlaps(rec.p.Header(), ec) {
				n++
				break
			}
		}
	}
	return n
}

// nameView renders an EC result as the name-keyed maps the checker kept
// before device ids: walked outcomes, next hops and delivered pairs.
func nameView(c *Checker, r *ecResult) (outcomes map[string]Outcome, next map[string]string, pairs map[Pair]struct{}) {
	outcomes = make(map[string]Outcome)
	next = make(map[string]string)
	pairs = make(map[Pair]struct{})
	for id, o := range r.outcomes {
		if o.Kind == notWalked {
			continue
		}
		outcomes[c.model.DevName(apkeep.DevID(id))] = o
		if o.Kind == Delivered {
			pairs[Pair{Src: c.model.DevName(apkeep.DevID(id)), Dst: o.At}] = struct{}{}
		}
	}
	for id, d := range r.next {
		if d >= 0 {
			next[c.model.DevName(apkeep.DevID(id))] = c.model.DevName(d)
		}
	}
	return outcomes, next, pairs
}

// refReverseReach is the map-based reverse reach the CSR traversal
// replaced: it adds to out every device that reaches one of the targets
// by following next pointers (targets included).
func refReverseReach(next map[string]string, targets map[string]struct{}, out map[string]struct{}) {
	rev := make(map[string][]string, len(next))
	for s, d := range next {
		rev[d] = append(rev[d], s)
	}
	var stack []string
	for d := range targets {
		if _, ok := out[d]; !ok {
			out[d] = struct{}{}
		}
		stack = append(stack, d)
	}
	// BFS over reverse edges; out doubles as the visited set, so callers
	// accumulating across graphs must pass a fresh set per EC.
	seen := make(map[string]struct{}, len(targets))
	for d := range targets {
		seen[d] = struct{}{}
	}
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range rev[d] {
			if _, ok := seen[s]; ok {
				continue
			}
			seen[s] = struct{}{}
			out[s] = struct{}{}
			stack = append(stack, s)
		}
	}
}

// refAffectedPairs replays the old append-and-scan pair accounting over
// name-keyed views of the checker's results before and after an Update.
func refAffectedPairs(before map[apkeep.ECID]*ecResult, c *Checker, affected map[apkeep.ECID]map[string]struct{}) []Pair {
	var list []Pair
	appendPair := func(p Pair) {
		for _, ex := range list {
			if ex == p {
				return
			}
		}
		list = append(list, p)
	}
	for ec, r := range before {
		if c.result(ec) == nil {
			_, _, pairs := nameView(c, r)
			for p := range pairs {
				appendPair(p)
			}
		}
	}
	for ec, devs := range affected {
		r := c.result(ec)
		if r == nil || len(devs) == 0 {
			continue
		}
		sources := make(map[string]struct{})
		var oldOutcomes map[string]Outcome
		if old := before[ec]; old != nil {
			var oldNext map[string]string
			oldOutcomes, oldNext, _ = nameView(c, old)
			refReverseReach(oldNext, devs, sources)
		}
		outcomes, next, _ := nameView(c, r)
		refReverseReach(next, devs, sources)
		for s := range sources {
			if o, ok := oldOutcomes[s]; ok && o.Kind == Delivered {
				appendPair(Pair{Src: s, Dst: o.At})
			}
			if o, ok := outcomes[s]; ok && o.Kind == Delivered {
				appendPair(Pair{Src: s, Dst: o.At})
			}
		}
	}
	return list
}

// checkIndex requires every entry to hold exactly the walked ECs that
// overlap its header and exactly the records of the policies registered
// on it, each record pointing back at its entry, and every EC result to
// list exactly its entries.
func checkIndex(t *testing.T, where string, c *Checker) {
	t.Helper()
	names := make(map[dataplane.Match]map[string]struct{})
	for name, rec := range c.policies {
		if rec.p.Name() != name {
			t.Fatalf("%s: record of %s holds policy %s", where, name, rec.p.Name())
		}
		if names[rec.p.Header()] == nil {
			names[rec.p.Header()] = make(map[string]struct{})
		}
		names[rec.p.Header()][name] = struct{}{}
	}
	if len(names) != len(c.index) {
		t.Fatalf("%s: %d index entries for %d distinct headers", where, len(c.index), len(names))
	}
	members := 0
	for hdr, e := range c.index {
		recs := make(map[string]struct{}, len(e.recs))
		for _, rec := range e.recs {
			if rec.entry != e || c.policies[rec.p.Name()] != rec {
				t.Fatalf("%s: entry %+v holds a stale record of %s", where, hdr, rec.p.Name())
			}
			recs[rec.p.Name()] = struct{}{}
		}
		if len(recs) != len(e.recs) || !reflect.DeepEqual(recs, names[hdr]) {
			t.Fatalf("%s: entry %+v records %v, want %v", where, hdr, recs, names[hdr])
		}
		if want := c.overlapping(hdr); !slices.Equal(e.ecs.AppendTo(nil), want.AppendTo(nil)) {
			t.Fatalf("%s: entry %+v holds %d ECs, want %d", where, hdr, e.ecs.Len(), want.Len())
		}
		members += e.ecs.Len()
	}
	for ec, r := range snapshot(c) {
		for _, e := range r.hdrs {
			if !e.ecs.Has(ec) || c.index[e.hdr] != e {
				t.Fatalf("%s: EC %d lists a stale entry %+v", where, ec, e.hdr)
			}
		}
		members -= len(r.hdrs)
	}
	if members != 0 {
		t.Fatalf("%s: entry and EC memberships disagree by %d", where, members)
	}
}

// oraclePolicies is the registered mix: all four kinds, every reach
// mode, many policies sharing one header, MatchAll and the tcp/22
// match.
func oraclePolicies(devs []string) []Policy {
	shared := dataplane.Match{Dst: netcfg.MustPrefix("10.0.0.0/24")}
	ssh := dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22}
	ps := []Policy{
		LoopFree{PolicyName: "loop-all", Scope: dataplane.MatchAll},
		LoopFree{PolicyName: "loop-ssh", Scope: ssh},
		BlackholeFree{PolicyName: "bh-10", Scope: dataplane.Match{Dst: netcfg.MustPrefix("10.0.0.0/8")}},
		BlackholeFree{PolicyName: "bh-192", Scope: dataplane.Match{Dst: netcfg.MustPrefix("192.168.0.0/16")}},
		Waypoint{PolicyName: "wp-shared", Src: devs[0], Dst: devs[2], Via: devs[1], Hdr: shared},
		Waypoint{PolicyName: "wp-ssh", Src: devs[3], Dst: devs[1], Via: devs[2], Hdr: ssh},
		Reachability{PolicyName: "reach-any", Src: devs[1], Dst: devs[4], Hdr: dataplane.MatchAll, Mode: ReachSome},
		Reachability{PolicyName: "reach-ssh", Src: devs[2], Dst: devs[0], Hdr: ssh, Mode: ReachNone},
		Reachability{PolicyName: "reach-1", Src: devs[4], Dst: devs[3], Hdr: dataplane.Match{Dst: netcfg.MustPrefix("10.0.1.0/24")}, Mode: ReachAll},
	}
	modes := []ReachMode{ReachAll, ReachSome, ReachNone}
	for i, dst := range devs {
		for j, mode := range modes {
			ps = append(ps, Reachability{
				PolicyName: fmt.Sprintf("shared-%s-%d", dst, j),
				Src:        devs[(i+j+1)%len(devs)], Dst: dst, Hdr: shared, Mode: mode,
			})
		}
	}
	return ps
}

// churn draws one random rule/filter batch the way
// TestCheckerIncrementalEqualsRebuild does, updating the installed sets.
func churn(rng *rand.Rand, devs []string, rules map[dataplane.Rule]bool, filters map[dataplane.FilterRule]bool) ([]dd.Entry[dataplane.Rule], []dd.Entry[dataplane.FilterRule]) {
	var rb []dd.Entry[dataplane.Rule]
	var fb []dd.Entry[dataplane.FilterRule]
	for n := 1 + rng.Intn(3); n > 0; n-- {
		if rng.Intn(4) == 0 {
			f := randomFilter(rng, devs)
			if filters[f] {
				fb = append(fb, dd.Entry[dataplane.FilterRule]{Val: f, Diff: -1})
				delete(filters, f)
			} else {
				fb = append(fb, dd.Entry[dataplane.FilterRule]{Val: f, Diff: 1})
				filters[f] = true
			}
			continue
		}
		r := randomRule(rng, devs)
		if rules[r] {
			rb = append(rb, dd.Entry[dataplane.Rule]{Val: r, Diff: -1})
			delete(rules, r)
			continue
		}
		conflict := false
		for ex := range rules {
			if ex.Device == r.Device && ex.Prefix == r.Prefix {
				conflict = true
			}
		}
		if !conflict {
			rb = append(rb, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
			rules[r] = true
		}
	}
	return rb, fb
}

// oracleCase is one configuration the index oracle runs under.
type oracleCase struct {
	name string
	// newModel builds an empty model.
	newModel func() *apkeep.Model
}

// TestIndexOracle churns seeded rule/filter batches through a checker
// with a registered policy mix and, after every batch, requires the
// verdicts of a freshly built checker, the brute-force recheck count,
// and the old append-and-scan affected-pair set.
func TestIndexOracle(t *testing.T) {
	bddModel := func(autoMerge bool) func() *apkeep.Model {
		return func() *apkeep.Model {
			m := apkeep.New()
			m.AutoMerge = autoMerge
			return m
		}
	}
	cases := []oracleCase{
		{name: "automerge", newModel: bddModel(true)},
		{name: "no-automerge", newModel: bddModel(false)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runIndexOracle(t, tc) })
	}
}

func runIndexOracle(t *testing.T, tc oracleCase) {
	rng := rand.New(rand.NewSource(123))
	devs := []string{"a", "b", "c", "d", "e"}
	adjs := ringAdjs(devs)
	build := func(m *apkeep.Model) *Checker {
		c := NewChecker(m)
		c.SetTopology(devs, adjs)
		return c
	}

	model := tc.newModel()
	inc := build(model)
	inc.Update(nil, nil)
	for _, p := range oraclePolicies(devs) {
		inc.AddPolicy(p)
	}
	installedRules := map[dataplane.Rule]bool{}
	installedFilters := map[dataplane.FilterRule]bool{}

	for step := 0; step < 40; step++ {
		where := fmt.Sprintf("step %d", step)
		switch step {
		case 12: // re-register under an existing name, onto a new header
			inc.AddPolicy(Reachability{PolicyName: "shared-a-0", Src: "b", Dst: "a",
				Hdr: dataplane.Match{Dst: netcfg.MustPrefix("10.0.2.0/24")}, Mode: ReachSome})
		case 20: // drop the only policy on a header, then one of many
			inc.RemovePolicy("bh-192")
			inc.RemovePolicy("shared-b-1")
		case 28: // re-register onto the shared header, vacating 10.0.2.0/24
			inc.AddPolicy(Reachability{PolicyName: "shared-a-0", Src: "c", Dst: "a",
				Hdr: dataplane.Match{Dst: netcfg.MustPrefix("10.0.0.0/24")}, Mode: ReachAll})
		}
		checkIndex(t, where+" (registration)", inc)

		rules, filters := churn(rng, devs, installedRules, installedFilters)
		before := snapshot(inc)
		if err := model.UpdateFilters(filters); err != nil {
			t.Fatal(err)
		}
		br, err := model.ApplyBatch(rules, apkeep.InsertFirst)
		if err != nil {
			t.Fatal(err)
		}
		affected := refScan(before, model, br)
		nodes := predicates(model, affected)
		res := inc.Update(br.Transfers, br.FilterTransfers, br.Merges...)
		checkIndex(t, where, inc)

		if want := refPoliciesChecked(inc, nodes); res.PoliciesChecked != want {
			t.Fatalf("%s: PoliciesChecked = %d, brute force %d", where, res.PoliciesChecked, want)
		}
		for i := 1; i < len(res.AffectedPairs); i++ {
			a, b := res.AffectedPairs[i-1], res.AffectedPairs[i]
			if a.Src > b.Src || (a.Src == b.Src && a.Dst >= b.Dst) {
				t.Fatalf("%s: AffectedPairs not sorted and duplicate-free: %v", where, res.AffectedPairs)
			}
		}
		want := refAffectedPairs(before, inc, affected)
		got := make(map[Pair]struct{}, len(res.AffectedPairs))
		for _, p := range res.AffectedPairs {
			got[p] = struct{}{}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d affected pairs, append-and-scan %d", where, len(got), len(want))
		}
		for _, p := range want {
			if _, ok := got[p]; !ok {
				t.Fatalf("%s: append-and-scan pair %v missing", where, p)
			}
		}

		fmodel := tc.newModel()
		var frules []dd.Entry[dataplane.Rule]
		for r := range installedRules {
			frules = append(frules, dd.Entry[dataplane.Rule]{Val: r, Diff: 1})
		}
		var ffilters []dd.Entry[dataplane.FilterRule]
		for f := range installedFilters {
			ffilters = append(ffilters, dd.Entry[dataplane.FilterRule]{Val: f, Diff: 1})
		}
		if err := fmodel.UpdateFilters(ffilters); err != nil {
			t.Fatal(err)
		}
		if _, err := fmodel.ApplyBatch(frules, apkeep.InsertFirst); err != nil {
			t.Fatal(err)
		}
		fresh := build(fmodel)
		fresh.Update(nil, nil)
		for _, p := range inc.Policies() {
			fresh.AddPolicy(p)
		}
		if got, want := inc.Verdicts(), fresh.Verdicts(); !reflect.DeepEqual(got, want) {
			for name, v := range want {
				if got[name] != v {
					t.Errorf("%s: %s incremental %v, fresh %v", where, name, got[name], v)
				}
			}
			t.FailNow()
		}
	}
}

// TestTracedRecheckMatchesScan runs traced Updates whose batch
// transfers an EC and then splits it away, and requires the recheck
// events in sorted policy order, each listing exactly the affected ECs
// the relevance scan found overlapping its header. One batch changes a
// loaded model; the other is the first load of a model whose checker
// had its policies registered before any rule.
func TestTracedRecheckMatchesScan(t *testing.T) {
	ps := []Policy{
		Reachability{PolicyName: "z-whole", Src: "a", Dst: "c", Hdr: dataplane.Match{Dst: netcfg.MustPrefix("10.9.0.0/24")}, Mode: ReachAll},
		Reachability{PolicyName: "m-low", Src: "a", Dst: "c", Hdr: dataplane.Match{Dst: netcfg.MustPrefix("10.9.0.0/25")}, Mode: ReachSome},
		Waypoint{PolicyName: "b-high", Src: "a", Dst: "c", Via: "b", Hdr: dataplane.Match{Dst: netcfg.MustPrefix("10.9.0.128/25")}},
		LoopFree{PolicyName: "a-loops", Scope: dataplane.MatchAll},
		Reachability{PolicyName: "q-elsewhere", Src: "a", Dst: "c", Hdr: dataplane.Match{Dst: netcfg.MustPrefix("172.16.0.0/12")}, Mode: ReachNone},
		Reachability{PolicyName: "s-ssh", Src: "a", Dst: "c", Hdr: dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22}, Mode: ReachNone},
	}
	fwd := dataplane.Rule{Device: "b", Prefix: netcfg.MustPrefix("10.9.0.0/24"), Action: dataplane.Forward, NextHop: "c", OutIntf: "eth1"}

	t.Run("change", func(t *testing.T) {
		m, c := lineModel(t)
		c.Update(nil, nil)
		for _, p := range ps {
			c.AddPolicy(p)
		}
		before := snapshot(c)
		// Delete-first: removing b's /24 transfers the /24 EC to drop at
		// b, then b's new /25 splits that EC away.
		low := fwd
		low.Prefix = netcfg.MustPrefix("10.9.0.0/25")
		br, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: fwd, Diff: -1}, {Val: low, Diff: 1}}, apkeep.DeleteFirst)
		if err != nil {
			t.Fatal(err)
		}
		checkTracedRecheck(t, c, before, br)
	})

	t.Run("first load", func(t *testing.T) {
		m := apkeep.New()
		c := NewChecker(m)
		c.SetTopology([]string{"a", "b", "c"}, []dataplane.Adjacency{
			{Dev: "a", LocalIntf: "eth0", Peer: "b", PeerIntf: "eth0"},
			{Dev: "b", LocalIntf: "eth0", Peer: "a", PeerIntf: "eth0"},
			{Dev: "b", LocalIntf: "eth1", Peer: "c", PeerIntf: "eth0"},
			{Dev: "c", LocalIntf: "eth0", Peer: "b", PeerIntf: "eth1"},
		})
		for _, p := range ps {
			c.AddPolicy(p)
		}
		// Binding the ACL transfers the SSH class, which the rules then
		// split away.
		if err := m.UpdateFilters([]dd.Entry[dataplane.FilterRule]{
			{Val: dataplane.FilterRule{Device: "c", Intf: "eth0", Dir: dataplane.In, Seq: 10, Action: netcfg.Deny,
				Match: dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22}}, Diff: 1},
			{Val: dataplane.FilterRule{Device: "c", Intf: "eth0", Dir: dataplane.In, Seq: 20, Action: netcfg.Permit,
				Match: dataplane.MatchAll}, Diff: 1},
		}); err != nil {
			t.Fatal(err)
		}
		deliver := dataplane.Rule{Device: "c", Prefix: fwd.Prefix, Action: dataplane.Deliver, OutIntf: "lo0"}
		br, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{{Val: fwd, Diff: 1}, {Val: deliver, Diff: 1}}, apkeep.InsertFirst)
		if err != nil {
			t.Fatal(err)
		}
		checkTracedRecheck(t, c, nil, br)
	})
}

// checkTracedRecheck runs c's Update over br under a trace and compares
// its recheck events with the relevance scan. before is the checker's
// walk results before the batch.
func checkTracedRecheck(t *testing.T, c *Checker, before map[apkeep.ECID]*ecResult, br *apkeep.BatchResult) {
	t.Helper()
	m := c.model
	affected := refScan(before, m, br)
	nodes := predicates(m, affected) // the Update frees the gone ids
	gone := 0
	for ec, node := range nodes {
		if node == bdd.False {
			t.Fatalf("affected EC %d was freed before the checker read the batch", ec)
		}
		if !m.Live(ec) {
			gone++
		}
	}
	if gone == 0 {
		t.Fatal("batch split no transferred EC away; the test needs one")
	}

	rec := trace.NewRecorder(4)
	a := rec.Begin("apply")
	c.SetTrace(a)
	c.Update(br.Transfers, br.FilterTransfers, br.Merges...)
	c.SetTrace(nil)

	type recheck struct{ policy, ecs string }
	var want []recheck
	for _, p := range c.Policies() {
		var rel []bdd.Node
		for _, ec := range nodes {
			if m.MatchOverlaps(p.Header(), ec) {
				rel = append(rel, ec)
			}
		}
		if len(rel) > 0 {
			want = append(want, recheck{p.Name(), joinNodes(rel)})
		}
	}
	var got []recheck
	for _, ev := range a.Events {
		if ev.Kind != obs.EventPolicyRecheck {
			continue
		}
		name, _ := trace.Get(ev.Attrs, "policy")
		ecs, _ := trace.Get(ev.Attrs, "ecs")
		got = append(got, recheck{name, ecs})
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].policy < got[j].policy }) {
		t.Errorf("rechecks not in sorted policy order: %v", got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rechecks = %v\nscan    = %v", got, want)
	}
}

// TestExplainDeterministic repeats each Explain case 20 times: when
// several ECs in the header fail, the one holding the header's lowest
// packet is reported, and a header overlapping no EC gets its own
// message.
func TestExplainDeterministic(t *testing.T) {
	m, c := lineModel(t)
	// c delivers each /26 of 10.9.0.0/24 on its own interface (four
	// ECs), and b stops forwarding the /24: every one fails at b.
	batch := []dd.Entry[dataplane.Rule]{{Val: dataplane.Rule{Device: "b", Prefix: netcfg.MustPrefix("10.9.0.0/24"),
		Action: dataplane.Forward, NextHop: "c", OutIntf: "eth1"}, Diff: -1}}
	for i, p := range []string{"10.9.0.0/26", "10.9.0.64/26", "10.9.0.128/26", "10.9.0.192/26"} {
		batch = append(batch, dd.Entry[dataplane.Rule]{Val: dataplane.Rule{Device: "c", Prefix: netcfg.MustPrefix(p),
			Action: dataplane.Deliver, OutIntf: fmt.Sprintf("lo%d", i+1)}, Diff: 1})
	}
	if _, err := m.ApplyBatch(batch, apkeep.InsertFirst); err != nil {
		t.Fatal(err)
	}
	c.Update(nil, nil)
	whole := dataplane.Match{Dst: netcfg.MustPrefix("10.9.0.0/24")}
	upper := dataplane.Match{Dst: netcfg.MustPrefix("10.9.0.128/25")}
	c.AddPolicy(Reachability{PolicyName: "whole", Src: "a", Dst: "c", Hdr: whole, Mode: ReachAll})
	// lowest renders the account of the EC overlapping hdr that holds
	// its lowest packet.
	lowest := func(hdr dataplane.Match) string {
		var pkts []bdd.Packet
		for _, ec := range c.overlapping(hdr).AppendTo(nil) {
			pkt, _ := c.model.WitnessIn(hdr, c.model.Node(ec))
			pkts = append(pkts, pkt)
		}
		if len(pkts) < 2 {
			t.Fatalf("%+v overlaps %d ECs; the test needs several failing", hdr, len(pkts))
		}
		return fmt.Sprintf("packet %v: dropped at b (path [a b])", slices.MinFunc(pkts, func(a, b bdd.Packet) int {
			return cmp.Or(cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Proto, b.Proto), cmp.Compare(a.DstPort, b.DstPort))
		}))
	}

	_, healthy := lineModel(t)
	healthy.Update(nil, nil)
	// A checker before its first Update caches no EC, so none overlaps
	// the header.
	empty := NewChecker(apkeep.New())
	empty.SetTopology([]string{"a", "c"}, nil)

	cases := []struct {
		name string
		c    *Checker
		hdr  dataplane.Match
		want string
	}{
		{"registered", c, whole, lowest(whole)},
		{"unregistered", c, upper, lowest(upper)},
		{"delivered", healthy, whole, "all packets delivered"},
		{"no-ecs", empty, whole, "no packets in the header space"},
	}
	for _, tc := range cases {
		for i := 0; i < 20; i++ {
			if got := tc.c.Explain("a", "c", tc.hdr); got != tc.want {
				t.Fatalf("%s: run %d Explain = %q, want %q", tc.name, i, got, tc.want)
			}
		}
	}
}
