package policy

import (
	"sort"
	"strconv"
	"strings"

	"realconfig/internal/bdd"
	"realconfig/internal/trace"
)

// Provenance tracing for the checker. When a trace is attached, every
// policy re-check records an event on the policy track carrying the
// verdict transition and the affected ECs that made the policy relevant
// (those overlapping its header, including ECs split away within the
// batch) — the last link of the config change → rule → EC → verdict
// chain. Tracing switches the recheck loop to sorted policy order so
// event sequences are deterministic; untraced checks pay one nil test.

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
