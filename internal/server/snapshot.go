package server

import (
	"slices"
	"strings"

	"realconfig/internal/core"
)

// Verdict is one policy's current satisfaction, as served by the API.
type Verdict struct {
	Policy    string `json:"policy"`
	Satisfied bool   `json:"satisfied"`
}

// TimingJSON is a verification's per-stage wall time in nanoseconds
// (core.Timing): the stages before totalNs add up to it.
type TimingJSON struct {
	NetcfgNS      int64 `json:"netcfgNs"`
	GenerateNS    int64 `json:"generateNs"`
	ModelUpdateNS int64 `json:"modelUpdateNs"`
	PolicyCheckNS int64 `json:"policyCheckNs"`
	CollectNS     int64 `json:"collectNs"`
	TotalNS       int64 `json:"totalNs"`
}

// ReportJSON is the wire form of a core.Report: what one verification
// touched at every stage, plus the policy flips it caused.
type ReportJSON struct {
	LinesChanged    int        `json:"linesChanged"`
	RulesInserted   int        `json:"rulesInserted"`
	RulesDeleted    int        `json:"rulesDeleted"`
	FilterChanges   int        `json:"filterChanges"`
	AffectedECs     int        `json:"affectedECs"`
	AffectedPairs   int        `json:"affectedPairs"`
	PoliciesChecked int        `json:"policiesChecked"`
	Violated        []string   `json:"violated"`
	Repaired        []string   `json:"repaired"`
	Timing          TimingJSON `json:"timing"`
	// TraceID names the provenance trace this verification recorded
	// (fetch via GET /v1/applies/{id}/trace; 0 = tracing disabled).
	TraceID uint64 `json:"traceId,omitempty"`
}

func reportJSON(rep *core.Report) *ReportJSON {
	if rep == nil {
		return nil
	}
	return &ReportJSON{
		LinesChanged:    rep.Diff().LineCount(),
		RulesInserted:   rep.RulesInserted,
		RulesDeleted:    rep.RulesDeleted,
		FilterChanges:   rep.FilterChanges,
		AffectedECs:     rep.Model.AffectedECs(),
		AffectedPairs:   len(rep.Check.AffectedPairs),
		PoliciesChecked: rep.Check.PoliciesChecked,
		Violated:        rep.Violations(),
		Repaired:        rep.Repaired(),
		TraceID:         rep.TraceID,
		Timing: TimingJSON{
			NetcfgNS:      rep.Timing.Netcfg.Nanoseconds(),
			GenerateNS:    rep.Timing.Generate.Nanoseconds(),
			ModelUpdateNS: rep.Timing.ModelUpdate.Nanoseconds(),
			PolicyCheckNS: rep.Timing.PolicyCheck.Nanoseconds(),
			CollectNS:     rep.Timing.Collect.Nanoseconds(),
			TotalNS:       rep.Timing.Total.Nanoseconds(),
		},
	}
}

// Snapshot is the immutable state published after every applied write.
// Read endpoints serve it straight from an atomic pointer, so concurrent
// readers never block behind a verification and never observe a torn
// view: a snapshot is fully built before it is published and never
// mutated after.
type Snapshot struct {
	// Seq counts journaled writes (change batches and policy ops) since
	// the initial load; replaying the journal reproduces it exactly.
	Seq uint64 `json:"seq"`
	// Counters describing the verified state.
	Devices  int `json:"devices"`
	Policies int `json:"policies"`
	ECs      int `json:"ecs"`
	FIBRules int `json:"fibRules"`
	Pairs    int `json:"pairs"`
	// Verdicts is every registered policy's satisfaction, sorted by name.
	Verdicts []Verdict `json:"verdicts"`
	// Violations lists the currently violated policies, sorted.
	Violations []string `json:"violations"`
	// LastReport is the most recent verification's report (the initial
	// load's until the first write).
	LastReport *ReportJSON `json:"lastReport"`
}

// buildSnapshot captures the verifier's current state. Must run on the
// owning tenant's apply goroutine (it reads live verifier state).
func buildSnapshot(v *core.Verifier, seq uint64, rep *ReportJSON) *Snapshot {
	verdicts := v.Verdicts()
	s := &Snapshot{
		Seq:        seq,
		Policies:   len(verdicts),
		ECs:        v.NumECs(),
		Pairs:      v.NumPairs(),
		FIBRules:   v.NumFIBRules(),
		Devices:    v.NumDevices(),
		Verdicts:   appendVerdicts(make([]Verdict, 0, len(verdicts)), verdicts),
		Violations: []string{},
		LastReport: rep,
	}
	for _, vd := range s.Verdicts {
		if !vd.Satisfied {
			s.Violations = append(s.Violations, vd.Policy)
		}
	}
	return s
}

// appendVerdicts appends each policy's satisfaction to out, sorted by
// name.
func appendVerdicts(out []Verdict, verdicts map[string]bool) []Verdict {
	start := len(out)
	for name, sat := range verdicts {
		out = append(out, Verdict{Policy: name, Satisfied: sat})
	}
	slices.SortFunc(out[start:], func(a, b Verdict) int { return strings.Compare(a.Policy, b.Policy) })
	return out
}
