package policy

import (
	"sort"
	"strconv"
	"strings"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// Provenance tracing for the checker. When a trace is attached, every
// policy re-check records an event on the policy track carrying the
// verdict transition and the affected ECs that made the policy relevant
// (those overlapping its header, including ECs split away within the
// batch) — the last link of the config change → rule → EC → verdict
// chain. Tracing switches the recheck loop to sorted policy order so
// event sequences are deterministic; untraced checks pay one nil test.

// tracedRecheck is Update's recheck of the touched entries' records
// under tracing: in policy name order, each recorded with the affected
// ECs that made it relevant.
func (c *Checker) tracedRecheck(touched map[*hdrEntry][]apkeep.ECID, res *Result) {
	type recheck struct {
		rec *registered
		rs  []*ecResult
		ecs []bdd.Node // the predicates of the affected ECs overlapping its header
	}
	var todo []recheck
	for e, ids := range touched {
		rs := c.results(e.ecs)
		ecs := make([]bdd.Node, len(ids))
		for i, id := range ids {
			ecs[i] = c.model.Node(id)
		}
		for _, rec := range e.recs {
			todo = append(todo, recheck{rec, rs, ecs})
		}
	}
	sort.Slice(todo, func(i, j int) bool { return todo[i].rec.p.Name() < todo[j].rec.p.Name() })
	for _, r := range todo {
		was, now := c.recheck(r.rec, r.rs, res)
		c.tr.Event(obs.TrackPolicy, obs.EventPolicyRecheck,
			trace.S("policy", r.rec.p.Name()), trace.S("from", verdictStr(was)), trace.S("to", verdictStr(now)),
			trace.S("ecs", joinNodes(r.ecs)))
	}
}

// SetTrace attaches a provenance trace to subsequent Update calls.
// Pass nil to detach.
func (c *Checker) SetTrace(a *trace.Apply) { c.tr = a }

// verdictStr renders a verdict for event attributes.
func verdictStr(ok bool) string {
	if ok {
		return "pass"
	}
	return "fail"
}

// joinNodes renders EC ids ascending as a comma-separated list.
func joinNodes(ns []bdd.Node) string {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	var b strings.Builder
	for i, n := range ns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(n), 10))
	}
	return b.String()
}
