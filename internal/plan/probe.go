// The planner's oracle: a bounded pool of workers, each owning one fork
// of the base verifier, answering "is change c safe at state S?".
//
// Concurrency contract: the coordinator (Search) owns all bookkeeping;
// workers only read the immutable inputs captured in the searcher
// (baseNet, batch, baseViol) plus the base verifier — which Search
// never mutates — and mutate exclusively their own forks. Probe jobs
// and replies travel over channels, so the pool is race-free without
// locks.

package plan

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
)

func defaultWorkers() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

type probeJob struct {
	// state is the sorted index set of the already-applied prefix.
	state []int
	// cand is the batch index of the candidate change to probe.
	cand  int
	reply chan<- probeReply
}

type probeReply struct {
	cand    int
	res     probeResult
	rebuilt bool
	err     error // oracle infrastructure failure, not an unsafe probe
}

type probeResult struct {
	safe bool
	// violated names policies newly violated by the candidate (sorted);
	// applyErr is set instead when the candidate does not apply at all.
	violated []string
	applyErr string
}

type pool struct {
	jobs chan probeJob
	wg   sync.WaitGroup
}

// newPool forks the base verifier once per worker (sequentially — fork
// construction reads the base's BDD table) and starts the worker loops.
func newPool(s *searcher, n int) (*pool, error) {
	p := &pool{jobs: make(chan probeJob, len(s.batch))}
	opts := s.base.Options()
	opts.TraceApplies = 0 // probe forks are disposable; don't trace them
	for i := 0; i < n; i++ {
		fork, err := s.base.ForkSameAt(s.baseNet, opts)
		if err != nil {
			close(p.jobs)
			return nil, fmt.Errorf("plan: forking probe worker: %w", err)
		}
		w := &worker{s: s, fork: fork, at: []int{}}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				res, rebuilt, err := w.probe(job)
				job.reply <- probeReply{cand: job.cand, res: res, rebuilt: rebuilt, err: err}
			}
		}()
	}
	return p, nil
}

func (p *pool) close() {
	close(p.jobs)
	p.wg.Wait()
}

type worker struct {
	s *searcher
	// fork is the worker's warm verifier; at is the sorted change set it
	// currently sits on.
	fork *core.Verifier
	at   []int
}

// probe answers whether the candidate is safe at the state, and whether
// the fork had to be repositioned there first. The fork steps forward
// with one copy-on-write Apply of the candidate and stays on
// state+cand; a later probe at another state repositions it. Apply is
// all or nothing, so a candidate that fails to apply or to verify
// leaves the fork at the state.
func (w *worker) probe(job probeJob) (probeResult, bool, error) {
	rebuilt := false
	if !sameSet(w.at, job.state) {
		if err := w.reposition(job.state); err != nil {
			return probeResult{}, false, err
		}
		rebuilt = true
	}
	if _, err := w.fork.Apply(w.s.batch[job.cand]); err != nil {
		return probeResult{applyErr: err.Error()}, rebuilt, nil
	}
	w.at = sortedInsert(job.state, job.cand)
	return w.evaluate(), rebuilt, nil
}

// reposition moves the warm fork to the canonical network of the state
// by one SetNetwork: an incremental diff, however the fork got where it
// is.
func (w *worker) reposition(state []int) error {
	net, err := canonicalNet(w.s.baseNet, w.s.batch, state)
	if err != nil {
		return err
	}
	if _, err := w.fork.SetNetwork(net); err != nil {
		return fmt.Errorf("plan: repositioning probe fork at %v: %w", state, err)
	}
	w.at = append([]int(nil), state...)
	return nil
}

// evaluate compares the fork's verdicts to the base state's: the probe
// is safe iff it introduces no new violation.
func (w *worker) evaluate() probeResult {
	var violated []string
	for name, sat := range w.fork.Verdicts() {
		if !sat && !w.s.baseViol[name] {
			violated = append(violated, name)
		}
	}
	sort.Strings(violated)
	return probeResult{safe: len(violated) == 0, violated: violated}
}

// canonicalNet builds the canonical network of a change set: the base
// snapshot with the set's changes applied in index order. A failure
// here means the batch's changes do not commute (a change's
// applicability depended on the order the set was assembled in), which
// the planner rejects.
func canonicalNet(base *netcfg.Network, batch []netcfg.Change, state []int) (*netcfg.Network, error) {
	net := base.Clone()
	for _, i := range state {
		if err := batch[i].Apply(net); err != nil {
			return nil, fmt.Errorf("plan: batch changes do not commute: %v fails at canonical state %v: %w", batch[i], state, err)
		}
	}
	return net, nil
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
