package plan

import "realconfig/internal/obs"

// Metrics are the planner's instruments. The zero value (and nil
// fields) are valid no-ops, so the planner runs uninstrumented unless a
// registry is supplied.
type Metrics struct {
	// Searches counts Search invocations; Planned and Counterexamples
	// split them by outcome.
	Searches        *obs.Counter
	Planned         *obs.Counter
	Counterexamples *obs.Counter
	// Probes counts executed oracle probes, MemoHits probe results
	// served from the memo table, Rebuilds fork repositionings.
	Probes   *obs.Counter
	MemoHits *obs.Counter
	Rebuilds *obs.Counter
	// Seconds is the end-to-end search latency distribution.
	Seconds *obs.Histogram
}

// NewMetrics registers the planner's instruments with reg (nil reg
// yields a no-op Metrics).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return &Metrics{}
	}
	return &Metrics{
		Searches:        reg.Counter("realconfig_plan_searches_total", "Update-planner searches started.", nil),
		Planned:         reg.Counter("realconfig_plan_found_total", "Searches that produced a safe ordering.", nil),
		Counterexamples: reg.Counter("realconfig_plan_counterexamples_total", "Searches that proved no safe ordering exists.", nil),
		Probes:          reg.Counter("realconfig_plan_probes_total", "Oracle probes executed on planner forks.", nil),
		MemoHits:        reg.Counter("realconfig_plan_memo_hits_total", "Probe results served from the prefix memo table.", nil),
		Rebuilds:        reg.Counter("realconfig_plan_fork_rebuilds_total", "Probes whose fork was first repositioned to the probed state by a SetNetwork.", nil),
		Seconds:         reg.Histogram("realconfig_plan_seconds", "End-to-end planner search latency.", nil, nil),
	}
}
