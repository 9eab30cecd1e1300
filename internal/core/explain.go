package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"realconfig/internal/apkeep"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// Explanation answers "which configuration change flipped this policy,
// through which rules and equivalence classes" by walking one apply's
// provenance trace backwards along the paper's Figure-1 causal chain:
// policy_recheck → affected ECs → ec_merge/ec_split ancestry →
// ec_transfer/filter_flip rules → config_change.
type Explanation struct {
	// ApplyID / Seq / ReqID identify the apply the explanation is drawn
	// from (the most recent one in the ring where the verdict changed,
	// else the most recent recheck).
	ApplyID uint64 `json:"applyId"`
	Seq     uint64 `json:"seq"`
	ReqID   string `json:"reqId,omitempty"`
	Policy  string `json:"policy"`
	// From/To are the verdict transition of that recheck ("pass",
	// "fail"; From is "unchecked" on first evaluation).
	From string `json:"from"`
	To   string `json:"to"`
	// ECs are the equivalence classes that made the policy relevant,
	// plus every pre-merge/pre-split ancestor seen walking backwards.
	ECs []uint64 `json:"ecs"`
	// Rules are the rule updates (and filter bindings) that split or
	// moved those ECs, deduplicated, most recent first.
	Rules []string `json:"rules"`
	// Transfers render the EC moves behind the flip, most recent first:
	// "device ec=N from -> to (rule)".
	Transfers []string `json:"transfers"`
	// Changes are the apply's config line changes, "device: detail".
	Changes []string `json:"changes"`
}

// String renders the explanation as a short human-readable block.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %s: %s -> %s (apply %d", e.Policy, e.From, e.To, e.ApplyID)
	if e.Seq != 0 {
		fmt.Fprintf(&b, ", seq %d", e.Seq)
	}
	b.WriteString(")\n")
	for _, c := range e.Changes {
		fmt.Fprintf(&b, "  change: %s\n", c)
	}
	for _, r := range e.Rules {
		fmt.Fprintf(&b, "  rule:   %s\n", r)
	}
	for _, t := range e.Transfers {
		fmt.Fprintf(&b, "  moved:  %s\n", t)
	}
	if len(e.ECs) > 0 {
		b.WriteString("  ecs:    ")
		for i, ec := range e.ECs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(ec, 10))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Explain walks the recorded apply traces, newest first, for the most
// recent verdict flip of the named policy (falling back to its most
// recent recheck if no flip is in the ring) and reconstructs the causal
// chain from config change to verdict. It requires tracing
// (Options.TraceApplies > 0) and at least one recorded recheck of the
// policy.
func (v *Verifier) Explain(policyID string) (*Explanation, error) {
	if v.rec == nil {
		return nil, fmt.Errorf("core: tracing disabled (Options.TraceApplies = 0)")
	}
	chosen, evIdx := findRecheck(v.rec, policyID)
	if chosen == nil {
		return nil, fmt.Errorf("core: no recorded recheck of policy %q in the trace ring", policyID)
	}
	ev := chosen.Events[evIdx]
	out := &Explanation{
		ApplyID: chosen.ID,
		Seq:     chosen.Seq,
		ReqID:   chosen.ReqID,
		Policy:  policyID,
	}
	out.From, _ = trace.Get(ev.Attrs, "from")
	out.To, _ = trace.Get(ev.Attrs, "to")

	// Seed the EC set with the classes that made the policy relevant.
	ecs := make(map[uint64]struct{})
	if list, ok := trace.Get(ev.Attrs, "ecs"); ok && list != "" {
		for _, f := range strings.Split(list, ",") {
			if n, err := strconv.ParseUint(f, 10, 64); err == nil {
				ecs[n] = struct{}{}
			}
		}
	}
	inSet := func(e trace.Event, key string) bool {
		s, ok := trace.Get(e.Attrs, key)
		if !ok {
			return false
		}
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return false
		}
		_, hit := ecs[n]
		return hit
	}
	addEC := func(e trace.Event, key string) {
		if s, ok := trace.Get(e.Attrs, key); ok {
			if n, err := strconv.ParseUint(s, 10, 64); err == nil {
				ecs[n] = struct{}{}
			}
		}
	}
	seenRules := make(map[string]struct{})
	addRule := func(r string) {
		if r == "" {
			return
		}
		if _, ok := seenRules[r]; ok {
			return
		}
		seenRules[r] = struct{}{}
		out.Rules = append(out.Rules, r)
	}
	// A block move's events list all its rules.
	addRules := func(list string) {
		for _, r := range strings.Split(list, apkeep.RuleSep) {
			addRule(r)
		}
	}

	// Walk the earlier events backwards, growing the EC set through
	// merge/split ancestry and collecting the rules that touched it.
	for i := evIdx - 1; i >= 0; i-- {
		e := chosen.Events[i]
		switch e.Kind {
		case obs.EventECMerge:
			// ec = merge(a, b): earlier events reference the halves.
			if inSet(e, "ec") {
				addEC(e, "a")
				addEC(e, "b")
			}
		case obs.EventECSplit:
			// in/out = split(ec): earlier events reference the parent.
			if inSet(e, "in") || inSet(e, "out") {
				addEC(e, "ec")
				if r, ok := trace.Get(e.Attrs, "rule"); ok {
					addRules(r)
				}
			}
		case obs.EventECTransfer:
			if inSet(e, "ec") {
				rule, _ := trace.Get(e.Attrs, "rule")
				addRules(rule)
				dev, _ := trace.Get(e.Attrs, "device")
				ecID, _ := trace.Get(e.Attrs, "ec")
				from, _ := trace.Get(e.Attrs, "from")
				to, _ := trace.Get(e.Attrs, "to")
				out.Transfers = append(out.Transfers,
					fmt.Sprintf("%s ec=%s %s -> %s (%s)", dev, ecID, from, to, rule))
			}
		case obs.EventFilterFlip:
			if inSet(e, "ec") {
				if f, ok := trace.Get(e.Attrs, "filter"); ok {
					action, _ := trace.Get(e.Attrs, "action")
					addRule("filter " + f + " (" + action + ")")
				}
			}
		case obs.EventConfigChange:
			dev, _ := trace.Get(e.Attrs, "device")
			detail, _ := trace.Get(e.Attrs, "detail")
			out.Changes = append(out.Changes, dev+": "+detail)
		}
	}
	// Changes were collected newest-first like everything else; restore
	// recording (= sorted-device) order.
	for i, j := 0, len(out.Changes)-1; i < j; i, j = i+1, j-1 {
		out.Changes[i], out.Changes[j] = out.Changes[j], out.Changes[i]
	}
	for ec := range ecs {
		out.ECs = append(out.ECs, ec)
	}
	sort.Slice(out.ECs, func(i, j int) bool { return out.ECs[i] < out.ECs[j] })
	return out, nil
}

// findRecheck returns the newest apply (and event index) where the
// policy's verdict flipped, else its newest recheck, else (nil, 0).
func findRecheck(rec *trace.Recorder, policyID string) (*trace.Apply, int) {
	var fbApply *trace.Apply
	fbIdx := 0
	for _, s := range rec.Applies() { // newest first
		a := rec.Get(s.ID)
		if a == nil {
			continue
		}
		for i := len(a.Events) - 1; i >= 0; i-- {
			e := a.Events[i]
			if e.Kind != obs.EventPolicyRecheck {
				continue
			}
			if p, _ := trace.Get(e.Attrs, "policy"); p != policyID {
				continue
			}
			from, _ := trace.Get(e.Attrs, "from")
			to, _ := trace.Get(e.Attrs, "to")
			if from != to {
				return a, i
			}
			if fbApply == nil {
				fbApply, fbIdx = a, i
			}
			break // only the latest recheck per apply matters
		}
	}
	return fbApply, fbIdx
}
