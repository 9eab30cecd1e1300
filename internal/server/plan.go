package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"realconfig/internal/netcfg"
	"realconfig/internal/plan"
)

// errPlanStale is returned when a write lands between a plan's snapshot
// capture and its journaling, invalidating the ordering's safety proof.
var errPlanStale = errors.New("server: state changed while planning; retry")

// planRequest is the body of POST /v1/plan: the change batch to order,
// plus an optional probe budget.
type planRequest struct {
	Changes []json.RawMessage `json:"changes"`
	// MaxProbes bounds the search (0 = planner default).
	MaxProbes int `json:"maxProbes,omitempty"`
}

// planStepJSON is one change of the batch inside a plan response,
// identified by its index in the submitted batch (the handle a client
// uses to execute the plan via POST /v1/changes).
type planStepJSON struct {
	Index  int    `json:"index"`
	Change string `json:"change"`
	// Report is the step's verification report from the planner's
	// validation replay (linear steps only).
	Report *ReportJSON `json:"report,omitempty"`
}

// planJSON is a found safe ordering.
type planJSON struct {
	// Waves groups the order into deployment waves whose changes can
	// roll out concurrently; Steps is the flat linearization with
	// per-step verification reports.
	Waves [][]planStepJSON `json:"waves"`
	Steps []planStepJSON   `json:"steps"`
}

// planCounterexampleJSON reports that no safe ordering exists.
type planCounterexampleJSON struct {
	Prefix   []planStepJSON `json:"prefix"`
	Failing  planStepJSON   `json:"failing"`
	Violated []string       `json:"violated,omitempty"`
	ApplyErr string         `json:"applyError,omitempty"`
	Explain  string         `json:"explain,omitempty"`
	Text     string         `json:"text"`
}

// planStatsJSON is the search effort summary.
type planStatsJSON struct {
	Probes    int   `json:"probes"`
	MemoHits  int   `json:"memoHits"`
	Rebuilds  int   `json:"rebuilds"`
	ElapsedUS int64 `json:"elapsedUs"`
}

// planResponse answers POST /v1/plan. Exactly one of Plan and
// Counterexample is set; Seq is the daemon state the plan was computed
// against (after journaling, the bumped sequence).
type planResponse struct {
	Seq            uint64                  `json:"seq"`
	Planned        bool                    `json:"planned"`
	Plan           *planJSON               `json:"plan,omitempty"`
	Counterexample *planCounterexampleJSON `json:"counterexample,omitempty"`
	Stats          planStatsJSON           `json:"stats"`
}

func planSteps(steps []plan.Step) []planStepJSON {
	out := make([]planStepJSON, 0, len(steps))
	for _, st := range steps {
		out = append(out, planStepJSON{Index: st.Index, Change: st.Change.String()})
	}
	return out
}

// handlePlan searches for a violation-free ordering of the posted
// batch, using the live state like a what-if: the apply goroutine only
// captures a snapshot, and the search runs on the request goroutine
// against a bootstrapped fork. A found plan is journaled (with its wave
// grouping, as an audit record) and bumps the sequence number.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	t := s.tenantFrom(r)
	if s.rejectReplicaWrite(w, r, t) {
		return
	}
	var req planRequest
	body := http.MaxBytesReader(w, r.Body, 8<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		badRequest(w, r, "bad request body: "+err.Error())
		return
	}
	if len(req.Changes) == 0 {
		badRequest(w, r, "empty change batch")
		return
	}
	batch, err := netcfg.DecodeChanges(req.Changes)
	if err != nil {
		badRequest(w, r, err.Error())
		return
	}
	rid := reqIDFrom(r)
	ctx, cancel := context.WithTimeout(r.Context(), t.applyTimeout)
	defer cancel()
	t0 := time.Now()
	defer func() { t.m.planSeconds.ObserveDuration(time.Since(t0)) }()

	base, seq, err := t.fork(ctx)
	if err != nil {
		t.m.planErrors.Inc()
		writeError(w, r, err)
		return
	}
	res, err := plan.Search(base, batch, plan.Options{
		MaxProbes: req.MaxProbes,
		Metrics:   t.planM,
		Recorder:  t.verifier.Recorder(),
		ReqID:     rid,
		Seq:       seq,
	})
	if err != nil {
		t.m.planErrors.Inc()
		t.log.Warn("plan failed", "req_id", rid, "changes", len(batch), "err", err)
		writeError(w, r, err)
		return
	}

	out := planResponse{
		Seq: seq,
		Stats: planStatsJSON{
			Probes:    res.Stats.Probes,
			MemoHits:  res.Stats.MemoHits,
			Rebuilds:  res.Stats.Rebuilds,
			ElapsedUS: res.Stats.Elapsed.Microseconds(),
		},
	}
	if ce := res.Counterexample; ce != nil {
		out.Counterexample = &planCounterexampleJSON{
			Prefix:   planSteps(ce.Prefix),
			Failing:  planStepJSON{Index: ce.Failing.Index, Change: ce.Failing.Change.String()},
			Violated: ce.Violated,
			ApplyErr: ce.ApplyErr,
			Explain:  ce.Explain,
			Text:     ce.String(),
		}
		t.log.Info("plan found counterexample",
			"req_id", rid, "changes", len(batch), "probes", res.Stats.Probes,
			"dur_ms", time.Since(t0).Milliseconds())
		writeJSON(w, http.StatusOK, out)
		return
	}

	p := res.Plan
	out.Planned = true
	out.Plan = &planJSON{Steps: planSteps(p.Order)}
	waves := make([][]int, 0, len(p.Waves))
	for _, wave := range p.Waves {
		out.Plan.Waves = append(out.Plan.Waves, planSteps(wave))
		idx := make([]int, 0, len(wave))
		for _, st := range wave {
			idx = append(idx, st.Index)
		}
		waves = append(waves, idx)
	}
	for i := range p.Reports {
		out.Plan.Steps[i].Report = reportJSON(p.Reports[i])
	}

	// Journal the planning decision and bump the sequence. The plan was
	// computed against seq; reject if a write slipped in between, so the
	// audit record never refers to a state the plan did not see.
	seqRes, err := t.do(ctx, func() (any, error) {
		if t.seq != seq {
			return nil, errPlanStale
		}
		if _, err := t.commit(Entry{Op: opPlan, Changes: req.Changes, Waves: waves}); err != nil {
			return nil, err
		}
		return t.seq, nil
	})
	if err != nil {
		t.m.planErrors.Inc()
		writeError(w, r, err)
		return
	}
	out.Seq = seqRes.(uint64)
	t.log.Info("planned",
		"req_id", rid, "seq", out.Seq, "changes", len(batch), "waves", len(waves),
		"probes", res.Stats.Probes, "memo_hits", res.Stats.MemoHits,
		"dur_ms", time.Since(t0).Milliseconds())
	w.Header().Set(seqHeader, strconv.FormatUint(out.Seq, 10))
	writeJSON(w, http.StatusOK, out)
}
