package policy

import (
	"slices"

	"realconfig/internal/apkeep"
	"realconfig/internal/dataplane"
	"realconfig/internal/obs"
)

// The registration index: the paper's "policies registered on affected
// ECs", keyed by header space. Policies sharing a header (the common
// case: dozens of reachability policies per host prefix) share one
// entry, which holds their registration records and the walked ECs
// overlapping the header. Membership is computed once, when an EC is
// first walked (or when a header is first registered), so an apply tests
// an EC against the ~entries rather than every policy, and a recheck
// evaluates each record on a touched entry over one slice of the
// entry's EC results, gathered once for all of them.

// hdrEntry is one registered header space.
type hdrEntry struct {
	hdr  dataplane.Match
	recs []*registered            // policies registered on hdr
	ecs  map[apkeep.ECID]struct{} // walked ECs overlapping hdr
}

// registered is a policy's registration record: everything a recheck
// reads, so it needs no lookup by name.
type registered struct {
	p Policy
	// kind evaluates p when p is one of this package's kinds (nil for a
	// kind defined elsewhere, which is rechecked by Eval).
	kind    kindCheck
	entry   *hdrEntry
	verdict bool
	// src and via are the ids of p's source and waypoint devices, -1
	// until the model interns the name (ids are append-only, so once
	// found an id never changes).
	src, via apkeep.DevID
	// hist times p's rechecks (nil when not instrumented).
	hist *obs.Histogram
}

// kindCheck is implemented by the package's policy kinds: check decides
// the policy over rs, the walked results of the ECs overlapping its
// header, with src and via the ids of its source and waypoint devices
// (-1 when it has none or the name was never interned). Eval and the
// recheck both call it.
type kindCheck interface {
	devices() (src, via string)
	check(src, via apkeep.DevID, rs []*ecResult) bool
}

// eval decides rec's policy over rs, the results of its entry's ECs.
func (c *Checker) eval(rec *registered, rs []*ecResult) bool {
	if rec.kind == nil {
		return rec.p.Eval(c)
	}
	src, via := rec.kind.devices()
	if rec.src < 0 && src != "" {
		rec.src = c.model.DevOf(src)
	}
	if rec.via < 0 && via != "" {
		rec.via = c.model.DevOf(via)
	}
	return rec.kind.check(rec.src, rec.via, rs)
}

// results lists the walked results of a set of ECs.
func (c *Checker) results(ecs map[apkeep.ECID]struct{}) []*ecResult {
	rs := make([]*ecResult, 0, len(ecs))
	for ec := range ecs {
		rs = append(rs, c.ecs[ec])
	}
	return rs
}

// overlapping returns the walked ECs whose packets intersect hdr.
func (c *Checker) overlapping(hdr dataplane.Match) map[apkeep.ECID]struct{} {
	out := make(map[apkeep.ECID]struct{})
	for id, r := range c.ecs {
		if r != nil && c.model.MatchOverlaps(hdr, c.model.Node(apkeep.ECID(id))) {
			out[apkeep.ECID(id)] = struct{}{}
		}
	}
	return out
}

// headerECs returns the walked ECs overlapping hdr: the index entry's
// set when hdr is registered (live; do not modify), else a fresh scan.
func (c *Checker) headerECs(hdr dataplane.Match) map[apkeep.ECID]struct{} {
	if e := c.index[hdr]; e != nil {
		return e.ecs
	}
	return c.overlapping(hdr)
}

// register files rec under its policy's header, creating the entry on
// first use.
func (c *Checker) register(rec *registered) {
	hdr := rec.p.Header()
	e := c.index[hdr]
	if e == nil {
		e = &hdrEntry{hdr: hdr, ecs: c.overlapping(hdr)}
		for ec := range e.ecs {
			r := c.ecs[ec]
			r.hdrs = append(r.hdrs, e)
		}
		c.index[hdr] = e
	}
	e.recs = append(e.recs, rec)
	rec.entry = e
}

// unregister removes rec from its entry, dropping the entry (and its EC
// memberships) when no policy is left on it.
func (c *Checker) unregister(rec *registered) {
	e := rec.entry
	if i := slices.Index(e.recs, rec); i >= 0 {
		e.recs = slices.Delete(e.recs, i, i+1)
	}
	if len(e.recs) > 0 {
		return
	}
	delete(c.index, e.hdr)
	for ec := range e.ecs {
		r := c.ecs[ec]
		r.hdrs = dropEntry(r.hdrs, e)
	}
}

// join computes a newly walked EC's memberships.
func (c *Checker) join(ec apkeep.ECID, r *ecResult) {
	node := c.model.Node(ec)
	for _, e := range c.index {
		if c.model.MatchOverlaps(e.hdr, node) {
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
