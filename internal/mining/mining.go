// Package mining implements Config2Spec-style specification mining
// (paper section 2): given a network and a failure model, it determines
// which candidate policies hold under *every* condition, using the
// incremental verifier to exploit the similarity between conditions.
// The paper motivates this workload as a major beneficiary of INCV: a
// from-scratch tool "can take over 12 hours to infer all policies" on a
// mid-size network because every failure condition recomputes the data
// plane; incrementally, each condition costs only its delta.
package mining

import (
	"fmt"
	"sort"
	"time"

	"realconfig/internal/core"
	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
)

// FailureModel enumerates the network conditions to explore.
type FailureModel struct {
	// MaxLinkFailures is the number of simultaneous link failures to
	// consider (currently 0 or 1; k-failure enumeration grows
	// combinatorially and is clipped to single failures).
	MaxLinkFailures int
	// Limit caps the number of failure conditions explored (0 = all).
	Limit int
}

// Spec is one mined specification with the evidence gathered for it.
type Spec struct {
	Policy policy.Policy
	// Holds is true when the policy held under the base network and
	// every explored condition.
	Holds bool
	// BrokenBy names the first condition that violated it ("" if none).
	BrokenBy string
}

// Result is a completed mining run.
type Result struct {
	Specs      []Spec
	Conditions int           // failure conditions explored (incl. base)
	Elapsed    time.Duration // total wall time
}

// Mined returns the specifications that survived every condition,
// sorted by name.
func (r *Result) Mined() []policy.Policy {
	var out []policy.Policy
	for _, s := range r.Specs {
		if s.Holds {
			out = append(out, s.Policy)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Mine verifies candidate policies under the base network and under
// every condition of the failure model, returning which candidates are
// real specifications. Candidates are produced by the builder AGAINST
// MINE'S OWN VERIFIER, because policy header predicates are BDD nodes
// tied to one verifier's table and must not cross verifiers. The input
// network is not modified: the verifier loads its own copy (Load).
func Mine(net *netcfg.Network, buildCandidates func(*core.Verifier) []policy.Policy, fm FailureModel, opts core.Options) (*Result, error) {
	start := time.Now()
	v := core.New(opts)
	if _, err := v.Load(net); err != nil {
		return nil, err
	}
	candidates := buildCandidates(v)
	res := &Result{Conditions: 1}
	state := make(map[string]*Spec, len(candidates))
	for _, p := range candidates {
		s := &Spec{Policy: p, Holds: v.AddPolicy(p)}
		if !s.Holds {
			s.BrokenBy = "base network"
		}
		state[p.Name()] = s
	}

	if fm.MaxLinkFailures > 0 {
		links := append([]netcfg.Link(nil), net.Topology.Links...)
		if fm.Limit > 0 && fm.Limit < len(links) {
			links = links[:fm.Limit]
		}
		for _, l := range links {
			cond := fmt.Sprintf("failure of %s/%s -- %s/%s", l.DevA, l.IntfA, l.DevB, l.IntfB)
			if _, err := v.Apply(netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: true}); err != nil {
				return nil, err
			}
			res.Conditions++
			for name, sat := range v.Verdicts() {
				if s := state[name]; s != nil && s.Holds && !sat {
					s.Holds = false
					s.BrokenBy = cond
				}
			}
			if _, err := v.Apply(netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: false}); err != nil {
				return nil, err
			}
		}
	}

	for _, p := range candidates {
		res.Specs = append(res.Specs, *state[p.Name()])
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// ReachabilityCandidates builds the standard candidate set: directed
// all-pairs host-prefix reachability for the given devices and prefixes.
// This is the policy space Config2Spec enumerates for reachability.
func ReachabilityCandidates(v *core.Verifier, hostPrefix map[string]netcfg.Prefix, devices []string) []policy.Policy {
	var out []policy.Policy
	sorted := append([]string(nil), devices...)
	sort.Strings(sorted)
	for _, src := range sorted {
		for _, dst := range sorted {
			if src == dst {
				continue
			}
			p, ok := hostPrefix[dst]
			if !ok {
				continue
			}
			out = append(out, policy.Reachability{
				PolicyName: fmt.Sprintf("reach/%s->%s", src, dst),
				Src:        src, Dst: dst,
				Hdr:  dataplane.Match{Dst: p},
				Mode: policy.ReachAll,
			})
		}
	}
	return out
}
