package policy

import (
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
)

// The registration index: the paper's "policies registered on affected
// ECs", keyed by header space. Policies sharing a header (the common
// case: dozens of reachability policies per host prefix) share one
// entry, which holds their names and the walked ECs overlapping the
// header. Membership is computed once, when an EC is first walked (or
// when a header is first registered), so an apply tests an EC against
// the ~entries rather than every policy, and a recheck evaluates a
// policy over its entry's ECs rather than the whole model.

// hdrEntry is one registered header space.
type hdrEntry struct {
	hdr   dataplane.Match
	names map[string]struct{}   // policies registered on hdr
	ecs   map[bdd.Node]struct{} // walked ECs overlapping hdr
}

// overlapping returns the walked ECs whose packets intersect hdr.
func (c *Checker) overlapping(hdr dataplane.Match) map[bdd.Node]struct{} {
	out := make(map[bdd.Node]struct{})
	for ec := range c.ecs {
		if c.model.MatchOverlaps(hdr, ec) {
			out[ec] = struct{}{}
		}
	}
	return out
}

// headerECs returns the walked ECs overlapping hdr: the index entry's
// set when hdr is registered (live; do not modify), else a fresh scan.
func (c *Checker) headerECs(hdr dataplane.Match) map[bdd.Node]struct{} {
	if e := c.index[hdr]; e != nil {
		return e.ecs
	}
	return c.overlapping(hdr)
}

// register files name under hdr, creating the entry on first use.
func (c *Checker) register(name string, hdr dataplane.Match) {
	e := c.index[hdr]
	if e == nil {
		e = &hdrEntry{hdr: hdr, names: make(map[string]struct{}), ecs: c.overlapping(hdr)}
		for ec := range e.ecs {
			r := c.ecs[ec]
			r.hdrs = append(r.hdrs, e)
		}
		c.index[hdr] = e
	}
	e.names[name] = struct{}{}
}

// unregister removes name from hdr's entry, dropping the entry (and its
// EC memberships) when no policy is left on it.
func (c *Checker) unregister(name string, hdr dataplane.Match) {
	e := c.index[hdr]
	if e == nil {
		return
	}
	delete(e.names, name)
	if len(e.names) > 0 {
		return
	}
	delete(c.index, hdr)
	for ec := range e.ecs {
		r := c.ecs[ec]
		r.hdrs = dropEntry(r.hdrs, e)
	}
}

// join computes a newly walked EC's memberships.
func (c *Checker) join(ec bdd.Node, r *ecResult) {
	for _, e := range c.index {
		if c.model.MatchOverlaps(e.hdr, ec) {
			e.ecs[ec] = struct{}{}
			r.hdrs = append(r.hdrs, e)
		}
	}
}

// dropEntry removes e from hdrs in place.
func dropEntry(hdrs []*hdrEntry, e *hdrEntry) []*hdrEntry {
	for i, h := range hdrs {
		if h == e {
			return append(hdrs[:i], hdrs[i+1:]...)
		}
	}
	return hdrs
}
