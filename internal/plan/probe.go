// The planner's oracle: one warm fork of the base verifier, owned by
// the searcher, answering "is change c safe at state S?". Candidates are
// probed one at a time in index order, so the states the fork visits,
// and with them Stats.Rebuilds, are fixed by the batch.

package plan

import (
	"errors"
	"fmt"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
)

type probeResult struct {
	safe bool
	// violated names policies newly violated by the candidate (sorted);
	// applyErr is set instead when the candidate does not apply at all.
	violated []string
	applyErr string
}

// forkProbe builds the searcher's warm fork at the base state (s.at
// empty). Probe applies are disposable, so the fork is not traced.
func (s *searcher) forkProbe() error {
	opts := s.base.Options()
	opts.TraceApplies = 0
	fork, _, err := core.Build(opts, s.baseNet, s.base.Checker().Policies())
	if err != nil {
		return fmt.Errorf("plan: forking the probe verifier: %w", err)
	}
	s.fork = fork
	return nil
}

// probe answers whether the candidate is safe at the state. The fork
// steps forward with one copy-on-write Apply of the candidate and stays
// on state+cand; a later probe at another state repositions it. Apply
// is all or nothing, so a candidate that fails to apply or to verify
// leaves the fork at the state. The error is an oracle failure, not an
// unsafe probe.
func (s *searcher) probe(state []int, cand int) (probeResult, error) {
	if !sameSet(s.at, state) {
		if err := s.reposition(state); err != nil {
			return probeResult{}, err
		}
	}
	if _, err := s.fork.Apply(s.batch[cand]); err != nil {
		return probeResult{applyErr: err.Error()}, nil
	}
	s.at = sortedInsert(state, cand)
	violated := s.newViolations(s.fork.Verdicts())
	return probeResult{safe: len(violated) == 0, violated: violated}, nil
}

// reposition moves the warm fork to the canonical network of the state
// by one SetNetwork: an incremental diff, however the fork got where it
// is, over the devices the two states' changes touch. Each one counts
// as a rebuild.
func (s *searcher) reposition(state []int) error {
	net, err := canonicalNet(s.baseNet, s.batch, state)
	if err != nil {
		return err
	}
	if _, err := s.fork.SetNetwork(net); err != nil {
		return fmt.Errorf("plan: repositioning probe fork at %v: %w", state, err)
	}
	s.at = append([]int(nil), state...)
	s.stats.Rebuilds++
	s.m.Rebuilds.Inc()
	return nil
}

// canonicalNet derives the canonical network of a change set from the
// base snapshot in one copy-on-write step: the set's changes applied in
// index order. A failure here means the batch's changes do not commute
// (a change's applicability depended on the order the set was assembled
// in), which the planner rejects.
func canonicalNet(base *netcfg.Network, batch []netcfg.Change, state []int) (*netcfg.Network, error) {
	changes := make([]netcfg.Change, len(state))
	for j, i := range state {
		changes[j] = batch[i]
	}
	net, err := base.With(changes...)
	var ce *netcfg.ChangeError
	if errors.As(err, &ce) {
		return nil, fmt.Errorf("plan: batch changes do not commute: %v fails at canonical state %v: %w", changes[ce.Index], state, ce.Err)
	}
	return net, err
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedInsert returns a new sorted slice with v added.
func sortedInsert(s []int, v int) []int {
	out := make([]int, 0, len(s)+1)
	done := false
	for _, x := range s {
		if !done && v < x {
			out = append(out, v)
			done = true
		}
		out = append(out, x)
	}
	if !done {
		out = append(out, v)
	}
	return out
}
