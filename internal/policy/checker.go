// Package policy is RealConfig's incremental network policy checker. It
// consumes data plane model changes (EC port transfers from the apkeep
// model) and recomputes forwarding outcomes only for affected equivalence
// classes, maintaining the two maps the paper describes: each EC's
// forwarding behaviour (paths), and each node pair's deliverable ECs.
// Registered policies (reachability, waypoint, loop-freedom,
// blackhole-freedom) are indexed by the packets they "register" on, so a
// change rechecks only the policies whose header space intersects an
// affected EC.
package policy

import (
	"sort"

	"realconfig/internal/apkeep"
	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// Kind classifies the fate of a packet injected at a device.
type Kind uint8

// Outcome kinds.
const (
	// Delivered: the packet reached a device that delivers its
	// destination locally.
	Delivered Kind = iota
	// Dropped: a device had no route (or a drop route) for it.
	Dropped
	// Filtered: an ACL discarded it on the way.
	Filtered
	// Looped: it entered a forwarding loop.
	Looped
)

func (k Kind) String() string {
	switch k {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case Filtered:
		return "filtered"
	default:
		return "looped"
	}
}

// Outcome is the fate of an EC's packets injected at some device.
type Outcome struct {
	Kind Kind
	// At is where the fate was sealed: the delivering device, the
	// dropping device, or the device whose filter discarded the packet.
	At string
}

// Pair is a directed (source, destination-device) pair.
type Pair struct {
	Src, Dst string
}

// ecResult caches one EC's forwarding behaviour.
type ecResult struct {
	outcomes map[string]Outcome
	// next is the EC's functional forwarding graph: each device's
	// successor (devices whose packets terminate locally are absent).
	next  map[string]string
	pairs map[Pair]struct{} // delivered pairs
	// hdrs are the index entries whose header overlaps the EC.
	hdrs []*hdrEntry
}

// Checker incrementally maintains forwarding outcomes and policy
// verdicts over a data plane model backend.
type Checker struct {
	model Model

	// scope confines index membership and witnesses to a shard's slice
	// of the destination space (scoped=false means the full space). Set
	// via SetScope; requires a ScopedModel backend.
	scope  bdd.Node
	scoped bool

	devices []string
	// ingress maps (device, egress interface) to the neighbor and its
	// ingress interface, for ACL lookups along walks.
	ingress map[[2]string][2]string

	ecs   map[bdd.Node]*ecResult
	pairs map[Pair]map[bdd.Node]struct{}

	policies map[string]Policy
	verdicts map[string]bool
	// index is the registration index: one entry per distinct policy
	// header, holding its policies and the walked ECs overlapping it.
	index map[dataplane.Match]*hdrEntry

	// parallelism is the worker count for EC walks (<=1 = sequential).
	parallelism int

	// metrics are the checker's live instruments (nil until Instrument;
	// every method is nil-safe).
	metrics CheckerMetrics

	// tr is the provenance trace of the in-flight apply (nil = tracing
	// off). Set per-apply via SetTrace.
	tr *trace.Apply
}

// CheckerMetrics are the checker's live instruments: cumulative work
// counters plus the registered/derived-state gauges.
type CheckerMetrics struct {
	// Updates counts Update calls; PoliciesChecked policy
	// re-evaluations; AffectedECs EC behaviour recomputations;
	// AffectedPairs (src, dst) pairs whose deliverable set changed.
	Updates         *obs.Counter
	PoliciesChecked *obs.Counter
	AffectedECs     *obs.Counter
	AffectedPairs   *obs.Counter
	// Policies is the number of registered policies; Pairs the number of
	// (src, dst) pairs with at least one deliverable EC.
	Policies *obs.Gauge
	Pairs    *obs.Gauge
}

// Instrument registers the checker's counters and gauges on reg.
func (c *Checker) Instrument(reg *obs.Registry) {
	c.metrics = CheckerMetrics{
		Updates:         reg.Counter("realconfig_policy_updates_total", "Incremental policy-check batches processed.", nil),
		PoliciesChecked: reg.Counter("realconfig_policy_checks_total", "Policy re-evaluations performed (registered policies intersecting an affected EC).", nil),
		AffectedECs:     reg.Counter("realconfig_policy_affected_ecs_total", "ECs whose forwarding behaviour was recomputed.", nil),
		AffectedPairs:   reg.Counter("realconfig_policy_affected_pairs_total", "(src, dst) pairs whose deliverable-EC set changed.", nil),
		Policies:        reg.Gauge("realconfig_policy_policies", "Registered policies.", nil),
		Pairs:           reg.Gauge("realconfig_policy_pairs", "(src, dst) pairs with at least one deliverable EC.", nil),
	}
	c.metrics.Policies.Set(int64(len(c.policies)))
	c.metrics.Pairs.Set(int64(len(c.pairs)))
}

// SetParallelism enables the paper's section-6 "parallelize verification
// over independent ECs" optimization: affected ECs' forwarding walks are
// recomputed by n workers. Walks only read the model, so this is safe;
// results are merged sequentially, keeping output deterministic.
func (c *Checker) SetParallelism(n int) { c.parallelism = n }

// NewChecker creates a checker over a model backend. Call SetTopology
// before the first Update.
func NewChecker(m Model) *Checker {
	return &Checker{
		model:    m,
		ingress:  make(map[[2]string][2]string),
		ecs:      make(map[bdd.Node]*ecResult),
		pairs:    make(map[Pair]map[bdd.Node]struct{}),
		policies: make(map[string]Policy),
		verdicts: make(map[string]bool),
		index:    make(map[dataplane.Match]*hdrEntry),
	}
}

// Model returns the backend the checker evaluates against.
func (c *Checker) Model() Model { return c.model }

// SetScope confines the checker's index membership and witnesses to a
// slice of the destination space, given as a predicate in the backend's
// BDD table. The shard layer scopes each unit's checker to its slice so
// a policy's header space only "registers" where it intersects the
// slice. Call it before the first Update or AddPolicy: memberships are
// computed once. Panics if the backend does not support scoping
// (sharding is a bdd-backend feature).
func (c *Checker) SetScope(space bdd.Node) {
	if _, ok := c.model.(ScopedModel); !ok {
		panic("policy: SetScope requires a ScopedModel backend (sharding is bdd-only)")
	}
	c.scope = space
	c.scoped = true
}

// MatchOverlaps reports whether m's packet space intersects ec, confined
// to the checker's scope when one is set.
func (c *Checker) MatchOverlaps(m dataplane.Match, ec bdd.Node) bool {
	if c.scoped {
		return c.model.(ScopedModel).MatchOverlapsIn(m, c.scope, ec)
	}
	return c.model.MatchOverlaps(m, ec)
}

// WitnessIn returns a concrete packet in the intersection of m and ec,
// confined to the checker's scope when one is set.
func (c *Checker) WitnessIn(m dataplane.Match, ec bdd.Node) (bdd.Packet, bool) {
	if c.scoped {
		return c.model.(ScopedModel).WitnessInScope(m, c.scope, ec)
	}
	return c.model.WitnessIn(m, ec)
}

// SetTopology installs the device list and adjacency view used for walks
// and filter lookups. Call again whenever the topology changes.
func (c *Checker) SetTopology(devices []string, adjs []dataplane.Adjacency) {
	c.devices = append([]string(nil), devices...)
	sort.Strings(c.devices)
	c.ingress = make(map[[2]string][2]string, len(adjs))
	for _, a := range adjs {
		c.ingress[[2]string{a.Dev, a.LocalIntf}] = [2]string{a.Peer, a.PeerIntf}
	}
}

// Ingress resolves a (device, egress interface) to the neighbor and its
// ingress interface, per the installed topology.
func (c *Checker) Ingress(dev, outIntf string) ([2]string, bool) {
	in, ok := c.ingress[[2]string{dev, outIntf}]
	return in, ok
}

// PairECs returns the ECs deliverable from src to dst (live; do not
// modify).
func (c *Checker) PairECs(src, dst string) map[bdd.Node]struct{} {
	return c.pairs[Pair{Src: src, Dst: dst}]
}

// NumPairs returns how many (src, dst) pairs currently have at least one
// deliverable EC.
func (c *Checker) NumPairs() int { return len(c.pairs) }

// OutcomeOf returns the cached fate of ec injected at src.
func (c *Checker) OutcomeOf(ec bdd.Node, src string) (Outcome, bool) {
	r := c.ecs[ec]
	if r == nil {
		return Outcome{}, false
	}
	o, ok := r.outcomes[src]
	return o, ok
}

// PolicyEvent reports a policy whose satisfaction flipped.
type PolicyEvent struct {
	Policy    string
	Satisfied bool
}

// Result summarizes one incremental check.
type Result struct {
	// AffectedECs is the number of ECs whose behaviour was recomputed.
	AffectedECs int
	// AffectedPairs lists pairs whose deliverable-EC set changed.
	AffectedPairs []Pair
	// Events are policy satisfaction flips (including first
	// evaluations of newly violated policies).
	Events []PolicyEvent
	// PoliciesChecked counts policy re-evaluations performed.
	PoliciesChecked int
}

// Update processes a batch of model changes: it recomputes outcomes for
// affected ECs (moved ports, filter flips, splits), updates the pair
// map, and rechecks exactly the registered policies whose header space
// intersects an affected EC. When the model re-minimized its partition
// (AutoMerge), pass the merge events so transfers on merged-away classes
// are attributed to their surviving union.
func (c *Checker) Update(transfers []apkeep.Transfer, ftransfers []apkeep.FilterTransfer, merges ...apkeep.MergeEvent) *Result {
	res := &Result{}
	alias := make(map[bdd.Node]bdd.Node, 2*len(merges))
	for _, me := range merges {
		alias[me.A] = me.Result
		alias[me.B] = me.Result
	}
	resolve := func(ec bdd.Node) bdd.Node {
		for {
			next, ok := alias[ec]
			if !ok {
				return ec
			}
			ec = next
		}
	}
	affected := make(map[bdd.Node]struct{})
	// changedDevs tracks, per EC, the devices whose behaviour for that
	// EC changed; paths through them are the "modified paths" whose end
	// points define the affected pairs (the paper's #Pairs metric).
	changedDevs := make(map[bdd.Node]map[string]struct{})
	mark := func(ec bdd.Node, dev string) {
		affected[ec] = struct{}{}
		set := changedDevs[ec]
		if set == nil {
			set = make(map[string]struct{})
			changedDevs[ec] = set
		}
		set[dev] = struct{}{}
	}
	for _, t := range transfers {
		mark(resolve(t.EC), t.Device)
	}
	for _, t := range ftransfers {
		mark(resolve(t.EC), t.Key.Device)
	}
	// ECs created by splits (present in the model, absent here) must be
	// computed; vanished ECs (split away) must be retired.
	pairs := make(map[Pair]struct{})
	current := c.model.ECs()
	for ec := range current {
		if _, ok := c.ecs[ec]; !ok {
			affected[ec] = struct{}{}
		}
	}
	for ec := range c.ecs {
		if _, ok := current[ec]; !ok {
			c.retire(ec, pairs)
		}
	}
	live := make([]bdd.Node, 0, len(affected))
	var gone []bdd.Node // transferred, then split away within the batch
	for ec := range affected {
		if _, ok := current[ec]; ok {
			live = append(live, ec)
		} else {
			gone = append(gone, ec)
		}
	}
	results := c.walkAll(live)
	joined := make(map[*hdrEntry]struct{}) // entries a new EC joined
	for i, ec := range live {
		isNew := c.ecs[ec] == nil
		c.merge(ec, results[i], changedDevs[ec], pairs)
		if isNew {
			for _, e := range results[i].hdrs {
				joined[e] = struct{}{}
			}
		}
		res.AffectedECs++
	}
	for e := range joined {
		c.reconfirm(e)
	}

	// Recheck the policies registered on affected packets: the union of
	// the affected ECs' index entries. A split-away EC's packets live on
	// in new, affected ECs, so it only needs the direct overlap test to
	// list itself in a traced recheck's ecs attribute.
	touched := make(map[*hdrEntry][]bdd.Node)
	for _, ec := range live {
		for _, e := range c.ecs[ec].hdrs {
			touched[e] = append(touched[e], ec)
		}
	}
	if c.tr != nil {
		for _, ec := range gone {
			for _, e := range c.index {
				if c.MatchOverlaps(e.hdr, ec) {
					touched[e] = append(touched[e], ec)
				}
			}
		}
	}
	type recheck struct {
		name string
		ecs  []bdd.Node // the affected ECs overlapping its header
	}
	var todo []recheck
	for e, ecs := range touched {
		for name := range e.names {
			todo = append(todo, recheck{name, ecs})
		}
	}
	if c.tr != nil {
		// Sorted, so traced event sequences are deterministic.
		sort.Slice(todo, func(i, j int) bool { return todo[i].name < todo[j].name })
	}
	for _, r := range todo {
		res.PoliciesChecked++
		now := c.policies[r.name].Eval(c)
		was, known := c.verdicts[r.name]
		if !known || was != now {
			c.verdicts[r.name] = now
			res.Events = append(res.Events, PolicyEvent{Policy: r.name, Satisfied: now})
		}
		if c.tr != nil {
			from := "unchecked"
			if known {
				from = verdictStr(was)
			}
			c.tr.Event(obs.TrackPolicy, obs.EventPolicyRecheck,
				trace.S("policy", r.name), trace.S("from", from), trace.S("to", verdictStr(now)),
				trace.S("ecs", joinNodes(r.ecs)))
		}
	}
	sort.Slice(res.Events, func(i, j int) bool { return res.Events[i].Policy < res.Events[j].Policy })
	res.AffectedPairs = SortedPairs(pairs)
	c.metrics.Updates.Inc()
	c.metrics.PoliciesChecked.Add(uint64(res.PoliciesChecked))
	c.metrics.AffectedECs.Add(uint64(res.AffectedECs))
	c.metrics.AffectedPairs.Add(uint64(len(res.AffectedPairs)))
	c.metrics.Pairs.Set(int64(len(c.pairs)))
	return res
}

// retire removes a vanished EC, its pair contributions and its index
// memberships, collecting the pairs it leaves.
func (c *Checker) retire(ec bdd.Node, affected map[Pair]struct{}) {
	r := c.ecs[ec]
	if r == nil {
		return
	}
	delete(c.ecs, ec)
	for _, e := range r.hdrs {
		delete(e.ecs, ec)
	}
	for p := range r.pairs {
		if set := c.pairs[p]; set != nil {
			delete(set, ec)
			if len(set) == 0 {
				delete(c.pairs, p)
			}
			affected[p] = struct{}{}
		}
	}
}

// merge installs a freshly walked result for an EC: it carries over the
// EC's index memberships (computing them for a new EC), refreshes the
// pair map with the delta and collects the pairs whose paths were
// modified — the end points of every old or new path traversing a device
// whose behaviour for this EC changed.
func (c *Checker) merge(ec bdd.Node, r *ecResult, devs map[string]struct{}, affected map[Pair]struct{}) {
	old := c.ecs[ec]
	c.ecs[ec] = r
	if old == nil {
		c.join(ec, r)
	} else {
		r.hdrs = old.hdrs
	}
	// Pair map maintenance (delivery-set delta).
	for p := range r.pairs {
		if old == nil || !contains(old.pairs, p) {
			set := c.pairs[p]
			if set == nil {
				set = make(map[bdd.Node]struct{})
				c.pairs[p] = set
			}
			set[ec] = struct{}{}
		}
	}
	if old != nil {
		for p := range old.pairs {
			if !contains(r.pairs, p) {
				if set := c.pairs[p]; set != nil {
					delete(set, ec)
					if len(set) == 0 {
						delete(c.pairs, p)
					}
				}
			}
		}
	}
	if len(devs) == 0 {
		return // pure split: behaviour unchanged, no modified paths
	}
	// Sources whose old or new walk traverses a changed device.
	sources := make(map[string]struct{}, len(devs))
	if old != nil {
		reverseReach(old.next, devs, sources)
	}
	reverseReach(r.next, devs, sources)
	for s := range sources {
		if old != nil {
			if o, ok := old.outcomes[s]; ok && o.Kind == Delivered {
				affected[Pair{Src: s, Dst: o.At}] = struct{}{}
			}
		}
		if o, ok := r.outcomes[s]; ok && o.Kind == Delivered {
			affected[Pair{Src: s, Dst: o.At}] = struct{}{}
		}
	}
}

// reverseReach adds to out every device that reaches one of the targets
// by following next pointers (targets included).
func reverseReach(next map[string]string, targets map[string]struct{}, out map[string]struct{}) {
	rev := make(map[string][]string, len(next))
	for s, d := range next {
		rev[d] = append(rev[d], s)
	}
	var stack []string
	for d := range targets {
		if _, ok := out[d]; !ok {
			out[d] = struct{}{}
		}
		stack = append(stack, d)
	}
	// BFS over reverse edges; out doubles as the visited set, so callers
	// accumulating across graphs must pass a fresh set per EC.
	seen := make(map[string]struct{}, len(targets))
	for d := range targets {
		seen[d] = struct{}{}
	}
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range rev[d] {
			if _, ok := seen[s]; ok {
				continue
			}
			seen[s] = struct{}{}
			out[s] = struct{}{}
			stack = append(stack, s)
		}
	}
}

// SortedPairs lists a pair set ordered by source, then destination (nil
// when empty).
func SortedPairs(set map[Pair]struct{}) []Pair {
	var out []Pair
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

func contains(set map[Pair]struct{}, p Pair) bool {
	_, ok := set[p]
	return ok
}
