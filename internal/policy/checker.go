// Package policy is RealConfig's incremental network policy checker. It
// consumes data plane model changes (EC port transfers from the apkeep
// model) and recomputes forwarding outcomes only for affected equivalence
// classes. Of the two maps the paper describes it stores only each EC's
// forwarding behaviour (paths); the (src, dst) pair view is read off
// those, and kept only as a count of the ECs deliverable along each pair.
// Registered policies (reachability, waypoint, loop-freedom,
// blackhole-freedom) are indexed by the packets they "register" on, so a
// change rechecks only the policies whose header space intersects an
// affected EC.
package policy

import (
	"fmt"
	"sort"
	"time"

	"realconfig/internal/apkeep"
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

	// notWalked marks, in an ecResult, a device the EC was not walked
	// from. It never leaves the package.
	notWalked
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

// ecResult caches one EC's forwarding behaviour, indexed by the model's
// device ids. Both slices are as long as the device table was when the
// EC was walked; a device interned later reads as not walked.
type ecResult struct {
	// outcomes[id] is the fate of the EC's packets injected at device
	// id (Kind notWalked where the walk neither started nor passed).
	outcomes []Outcome
	// next is the EC's functional forwarding graph: next[id] is the
	// device the packet moves on to from id, or -1 where the walk ends
	// at id. The EC's delivered pairs are read off outcomes.
	next []apkeep.DevID
	// hdrs are the index entries whose header overlaps the EC.
	hdrs []*hdrEntry
}

// outcome returns the fate of the EC's packets injected at device id
// (an id of -1, or one interned after the walk, reads as not walked).
func (r *ecResult) outcome(id apkeep.DevID) Outcome {
	if id < 0 || int(id) >= len(r.outcomes) {
		return Outcome{Kind: notWalked}
	}
	return r.outcomes[id]
}

// link is one of a device's egress interfaces and the neighbor and
// ingress interface it leads to.
type link struct {
	intf     string
	peer     apkeep.DevID
	peerIntf string
}

// Checker incrementally maintains forwarding outcomes and policy
// verdicts over an APKeep data plane model.
type Checker struct {
	// model owns the device table: the checker names devices by the
	// model's ids, which never change, so cached ecResults stay valid
	// across SetTopology.
	model *apkeep.Model

	// order lists the live devices' ids sorted by name, the order walks
	// start in, and live[id] says whether id is among them. moved lists
	// the ids that joined or left the live set since the last Update,
	// which re-walks every cached EC for them.
	order []apkeep.DevID
	live  []bool
	moved []apkeep.DevID
	// links[id] lists device id's adjacencies, for ACL lookups along
	// walks (a device has a handful, so a scan beats a hash).
	links [][]link

	// scratch is walk's scratch; reach is merge's; aff is Update's. All
	// are reused across batches.
	scratch walkScratch
	reach   reach
	aff     affected

	// ecs holds each walked EC's result, indexed by its model id (nil
	// for an id that is no EC or was not walked yet). synced records
	// that the first Update walked every EC; after it, the model's
	// churn lists the ECs to walk and to retire. pairs[p] counts the
	// walked ECs deliverable along p; a pair with none has no key.
	ecs    []*ecResult
	synced bool
	pairs  map[Pair]int32

	// policies maps a name to its registration record.
	policies map[string]*registered
	// index is the registration index: one entry per distinct policy
	// header, holding its records and the walked ECs overlapping it.
	index map[dataplane.Match]*hdrEntry

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
	// RecheckSeconds times each policy re-evaluation in Update, by
	// policy kind (kindOf); a kind without an entry is not timed.
	RecheckSeconds map[string]*obs.Histogram
}

// policyKinds are the kind label values of
// realconfig_policy_recheck_seconds.
var policyKinds = []string{"reach", "waypoint", "loopfree", "blackholefree"}

// kindOf names a policy's kind for metrics and returns its check, on a
// copy so that a recheck calls it without copying the policy ("" and nil
// for a kind defined outside this package).
func kindOf(p Policy) (string, kindCheck) {
	switch p := p.(type) {
	case Reachability:
		return "reach", &p
	case Waypoint:
		return "waypoint", &p
	case LoopFree:
		return "loopfree", &p
	case BlackholeFree:
		return "blackholefree", &p
	}
	return "", nil
}

// Instrument registers the checker's counters, gauges and histograms on
// reg.
func (c *Checker) Instrument(reg *obs.Registry) {
	c.metrics = CheckerMetrics{
		Updates:         reg.Counter("realconfig_policy_updates_total", "Incremental policy-check batches processed.", nil),
		PoliciesChecked: reg.Counter("realconfig_policy_checks_total", "Policy re-evaluations performed (registered policies intersecting an affected EC).", nil),
		AffectedECs:     reg.Counter("realconfig_policy_affected_ecs_total", "ECs whose forwarding behaviour was recomputed.", nil),
		AffectedPairs:   reg.Counter("realconfig_policy_affected_pairs_total", "(src, dst) pairs whose deliverable-EC set changed.", nil),
		Policies:        reg.Gauge("realconfig_policy_policies", "Registered policies.", nil),
		Pairs:           reg.Gauge("realconfig_policy_pairs", "(src, dst) pairs with at least one deliverable EC.", nil),
		RecheckSeconds:  make(map[string]*obs.Histogram, len(policyKinds)),
	}
	for _, kind := range policyKinds {
		c.metrics.RecheckSeconds[kind] = reg.Histogram("realconfig_policy_recheck_seconds",
			"Wall-clock time of one policy re-evaluation in an incremental check, by policy kind.", nil, obs.Labels{"kind": kind})
	}
	for _, rec := range c.policies {
		name, _ := kindOf(rec.p)
		rec.hist = c.metrics.RecheckSeconds[name]
	}
	c.metrics.Policies.Set(int64(len(c.policies)))
	c.metrics.Pairs.Set(int64(len(c.pairs)))
}

// NewChecker creates a checker over a data plane model and makes it the
// model's reader: from here on the model's retired ids wait for the
// checker's Update. Call SetTopology before the first Update.
func NewChecker(m *apkeep.Model) *Checker {
	m.Churn()
	return &Checker{
		model:    m,
		pairs:    make(map[Pair]int32),
		policies: make(map[string]*registered),
		index:    make(map[dataplane.Match]*hdrEntry),
	}
}

// Model returns the data plane model the checker evaluates against.
func (c *Checker) Model() *apkeep.Model { return c.model }

// SetTopology installs the device list and adjacency view used for walks
// and filter lookups. Call again whenever the topology changes. When the
// set of devices changes, the next Update re-walks every cached EC, so
// each EC has an outcome at exactly the live devices.
func (c *Checker) SetTopology(devices []string, adjs []dataplane.Adjacency) {
	m := c.model
	c.order = make([]apkeep.DevID, len(devices))
	for i, d := range devices {
		c.order[i] = m.Intern(d)
	}
	sort.Slice(c.order, func(i, j int) bool { return m.DevName(c.order[i]) < m.DevName(c.order[j]) })
	for id := range c.links {
		c.links[id] = c.links[id][:0]
	}
	for _, a := range adjs {
		dev, peer := m.Intern(a.Dev), m.Intern(a.Peer)
		for len(c.links) < m.NumColumns() {
			c.links = append(c.links, nil)
		}
		c.links[dev] = append(c.links[dev], link{intf: a.LocalIntf, peer: peer, peerIntf: a.PeerIntf})
	}
	// The devices that joined or left the live set are those whose mark
	// flips.
	live := make([]bool, m.NumColumns())
	for _, id := range c.order {
		live[id] = true
	}
	for id, now := range live {
		if was := id < len(c.live) && c.live[id]; was != now {
			c.moved = append(c.moved, apkeep.DevID(id))
		}
	}
	c.live = live
}

// ingress resolves device id's egress interface to the link it is on.
// A later adjacency for the same interface overrides an earlier one.
func (c *Checker) ingress(dev apkeep.DevID, intf string) (link, bool) {
	if dev >= 0 && int(dev) < len(c.links) {
		ls := c.links[dev]
		for i := len(ls) - 1; i >= 0; i-- {
			if ls[i].intf == intf {
				return ls[i], true
			}
		}
	}
	return link{}, false
}

// Ingress resolves a (device, egress interface) to the neighbor and its
// ingress interface, per the installed topology.
func (c *Checker) Ingress(dev, outIntf string) ([2]string, bool) {
	l, ok := c.ingress(c.model.DevOf(dev), outIntf)
	if !ok {
		return [2]string{}, false
	}
	return [2]string{c.model.DevName(l.peer), l.peerIntf}, true
}

// NumPairs returns how many (src, dst) pairs currently have at least one
// deliverable EC.
func (c *Checker) NumPairs() int { return len(c.pairs) }

// Outcome returns the cached fate of EC id injected at src.
func (c *Checker) Outcome(id apkeep.ECID, src string) (Outcome, bool) {
	r := c.result(id)
	if r == nil {
		return Outcome{}, false
	}
	if o := r.outcome(c.model.DevOf(src)); o.Kind != notWalked {
		return o, true
	}
	return Outcome{}, false
}

// result returns EC id's walked result (nil when there is none).
func (c *Checker) result(id apkeep.ECID) *ecResult {
	if int(id) < len(c.ecs) {
		return c.ecs[id]
	}
	return nil
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
// counts, and rechecks exactly the registered policies whose header space
// intersects an affected EC. When the model re-minimized its partition
// (AutoMerge), pass the merge events so transfers on merged-away classes
// are attributed to their surviving union. The ECs born and retired
// since the last Update come from the model's churn, which Update then
// releases: one checker reads a model, and it sees every batch.
func (c *Checker) Update(transfers []apkeep.Transfer, ftransfers []apkeep.FilterTransfer, merges ...apkeep.MergeEvent) *Result {
	res := &Result{}
	m := c.model
	var alias map[apkeep.ECID]apkeep.ECID
	if len(merges) > 0 {
		alias = make(map[apkeep.ECID]apkeep.ECID, 2*len(merges))
		for _, me := range merges {
			alias[me.A] = me.Result
			alias[me.B] = me.Result
		}
	}
	resolve := func(id apkeep.ECID) apkeep.ECID {
		for {
			next, ok := alias[id]
			if !ok {
				return id
			}
			id = next
		}
	}
	// aff collects the affected ECs and, per EC, the devices whose
	// behaviour for it changed; paths through them are the "modified
	// paths" whose end points define the affected pairs (the paper's
	// #Pairs metric). A device outside the topology has no path through
	// it.
	aff := &c.aff
	aff.reset(m.NumSlots())
	mark := func(id apkeep.ECID, dev apkeep.DevID) {
		i := aff.add(id)
		aff.devs[i] = append(aff.devs[i], dev)
	}
	for _, t := range transfers {
		mark(resolve(t.EC), t.Device)
	}
	for _, t := range ftransfers {
		mark(resolve(t.EC), t.Key.Device)
	}
	// ECs the model created must be computed, and ECs it retired must
	// be retired here; the first Update walks every EC. When devices
	// joined or left the topology, every other EC is re-walked with them
	// as its changed devices.
	pairs := make(map[Pair]struct{})
	born, retired := m.Churn()
	if c.synced {
		for _, id := range retired {
			c.retire(id, pairs)
		}
		for _, id := range born {
			if m.Live(id) && c.result(id) == nil {
				aff.add(id)
			}
		}
	} else {
		for _, id := range m.AppendLive(nil) {
			aff.add(id)
		}
		c.synced = true
	}
	if len(c.moved) > 0 {
		for id, r := range c.ecs {
			if r != nil {
				i := aff.add(apkeep.ECID(id))
				aff.devs[i] = append(aff.devs[i], c.moved...)
			}
		}
		c.moved = c.moved[:0]
	}
	for len(c.ecs) < m.NumSlots() {
		c.ecs = append(c.ecs, nil)
	}
	// gone are the ECs transferred, then split away within the batch.
	var gone []apkeep.ECID
	var live []apkeep.ECID
	var liveDevs [][]apkeep.DevID
	for i, id := range aff.ids {
		if m.Live(id) {
			live = append(live, id)
			liveDevs = append(liveDevs, aff.devs[i])
		} else {
			gone = append(gone, id)
		}
	}
	for i, id := range live {
		c.merge(id, c.walk(id), liveDevs[i], pairs)
		res.AffectedECs++
	}

	// Recheck the policies registered on affected packets: the union of
	// the affected ECs' index entries. A split-away EC's packets live on
	// in new, affected ECs, so it only needs the direct overlap test to
	// list itself in a traced recheck's ecs attribute.
	touched := make(map[*hdrEntry][]apkeep.ECID)
	for _, id := range live {
		for _, e := range c.ecs[id].hdrs {
			touched[e] = append(touched[e], id)
		}
	}
	// Each touched entry's results are gathered once, after the merges
	// joined the new ECs, and every record on the entry reads them.
	if c.tr != nil {
		for _, id := range gone {
			for _, e := range c.index {
				if m.MatchOverlaps(e.hdr, m.Node(id)) {
					touched[e] = append(touched[e], id)
				}
			}
		}
		c.tracedRecheck(touched, res)
	} else {
		for e := range touched {
			rs := c.results(e.ecs)
			for _, rec := range e.recs {
				c.recheck(rec, rs, res)
			}
		}
	}
	m.Release()
	sort.Slice(res.Events, func(i, j int) bool { return res.Events[i].Policy < res.Events[j].Policy })
	res.AffectedPairs = sortedPairs(pairs)
	c.metrics.Updates.Inc()
	c.metrics.PoliciesChecked.Add(uint64(res.PoliciesChecked))
	c.metrics.AffectedECs.Add(uint64(res.AffectedECs))
	c.metrics.AffectedPairs.Add(uint64(len(res.AffectedPairs)))
	c.metrics.Pairs.Set(int64(len(c.pairs)))
	return res
}

// affected is Update's set of affected ECs, in first-marked order, with
// each one's changed devices.
type affected struct {
	ids  []apkeep.ECID
	devs [][]apkeep.DevID
	// pos[id] is id's index in ids plus one (0: not marked).
	pos []int32
}

// reset empties the set for ids below n.
func (a *affected) reset(n int) {
	for _, id := range a.ids {
		a.pos[id] = 0
	}
	a.ids = a.ids[:0]
	a.devs = a.devs[:0]
	if len(a.pos) < n {
		a.pos = append(a.pos, make([]int32, n-len(a.pos))...)
	}
}

// add marks id and returns its index.
func (a *affected) add(id apkeep.ECID) int {
	if p := a.pos[id]; p > 0 {
		return int(p - 1)
	}
	a.ids = append(a.ids, id)
	if len(a.devs) < cap(a.devs) {
		a.devs = a.devs[:len(a.devs)+1]
		a.devs[len(a.devs)-1] = a.devs[len(a.devs)-1][:0]
	} else {
		a.devs = append(a.devs, nil)
	}
	a.pos[id] = int32(len(a.ids))
	return len(a.ids) - 1
}

// recheck re-evaluates rec over rs, its entry's results, timing it and
// recording a flip, and returns the verdicts before and after.
func (c *Checker) recheck(rec *registered, rs []*ecResult, res *Result) (was, now bool) {
	res.PoliciesChecked++
	var start time.Time
	if rec.hist != nil {
		start = time.Now()
	}
	was, now = rec.verdict, c.eval(rec, rs)
	if rec.hist != nil {
		rec.hist.ObserveDuration(time.Since(start))
	}
	if was != now {
		rec.verdict = now
		res.Events = append(res.Events, PolicyEvent{Policy: rec.p.Name(), Satisfied: now})
	}
	return was, now
}

// retire removes a vanished EC, its pair counts and its index
// memberships, collecting the pairs it leaves.
func (c *Checker) retire(ec apkeep.ECID, affected map[Pair]struct{}) {
	r := c.result(ec)
	if r == nil {
		return
	}
	c.ecs[ec] = nil
	for _, e := range r.hdrs {
		delete(e.ecs, ec)
	}
	for id, o := range r.outcomes {
		if o.Kind == Delivered {
			p := Pair{Src: c.model.DevName(apkeep.DevID(id)), Dst: o.At}
			c.dropPair(p)
			affected[p] = struct{}{}
		}
	}
}

// CheckRoots verifies that every EC the checker keys state by is live
// in the model: its walk results and the registration index (the pair
// counts hold no ids). The model's CheckRoots covers the model's own
// maps; together they make the model's ECs a sufficient root set for
// Model.Collect. Meant for tests, after an Update.
func (c *Checker) CheckRoots() error {
	check := func(where string, id apkeep.ECID) error {
		if !c.model.Live(id) {
			return fmt.Errorf("policy: %s holds id %d, which is not an EC", where, id)
		}
		return nil
	}
	for id, r := range c.ecs {
		if r == nil {
			continue
		}
		if err := check("walk results", apkeep.ECID(id)); err != nil {
			return err
		}
	}
	for _, e := range c.index {
		for ec := range e.ecs {
			if err := check("header index", ec); err != nil {
				return err
			}
		}
	}
	return nil
}

// addPair and dropPair count one EC more or less deliverable along p.
func (c *Checker) addPair(p Pair) { c.pairs[p]++ }

func (c *Checker) dropPair(p Pair) {
	if c.pairs[p] <= 1 {
		delete(c.pairs, p)
	} else {
		c.pairs[p]--
	}
}

// unwalked stands in for the previous result of a new EC.
var unwalked = &ecResult{}

// merge installs a freshly walked result for an EC: it carries over the
// EC's index memberships (computing them for a new EC), refreshes the
// pair counts with the delta and collects the pairs whose paths were
// modified — the end points of every old or new path traversing a device
// whose behaviour for this EC changed.
func (c *Checker) merge(ec apkeep.ECID, r *ecResult, devs []apkeep.DevID, affected map[Pair]struct{}) {
	old := c.ecs[ec]
	c.ecs[ec] = r
	if old == nil {
		c.join(ec, r)
		old = unwalked
	} else {
		r.hdrs = old.hdrs
	}
	// Pair counts: a device's delivered pair can change only where its
	// outcome did.
	name := c.model.DevName
	for id := range apkeep.DevID(max(len(old.outcomes), len(r.outcomes))) {
		was, now := old.outcome(id), r.outcome(id)
		if was == now {
			continue
		}
		if was.Kind == Delivered {
			c.dropPair(Pair{Src: name(id), Dst: was.At})
		}
		if now.Kind == Delivered {
			c.addPair(Pair{Src: name(id), Dst: now.At})
		}
	}
	if len(devs) == 0 {
		return // pure split: behaviour unchanged, no modified paths
	}
	// Sources whose old or new walk traverses a changed device.
	for _, s := range c.reach.sources(devs, old.next, r.next) {
		if o := old.outcome(s); o.Kind == Delivered {
			affected[Pair{Src: name(s), Dst: o.At}] = struct{}{}
		}
		if o := r.outcome(s); o.Kind == Delivered {
			affected[Pair{Src: name(s), Dst: o.At}] = struct{}{}
		}
	}
}

// reach finds the devices whose walk traverses a changed device, by a
// reverse traversal of each EC forwarding graph over a CSR (compressed
// sparse row) reverse adjacency. Its slices are scratch, reused from
// call to call.
type reach struct {
	// pred[off[d]:off[d+1]] are the devices whose next is d.
	off   []int32
	pred  []apkeep.DevID
	seen  []bool // visited in the current graph
	in    []bool // in out
	stack []apkeep.DevID
	out   []apkeep.DevID
}

// sources returns every device that reaches one of targets by following
// next in any of graphs, targets included. The slice is valid until the
// next call.
func (s *reach) sources(targets []apkeep.DevID, graphs ...[]apkeep.DevID) []apkeep.DevID {
	for _, id := range s.out {
		s.in[id] = false
	}
	s.out = s.out[:0]
	for _, t := range targets {
		s.add(t)
	}
	for _, next := range graphs {
		n := len(next)
		s.off = zeroed(s.off, n+1)
		for _, d := range next {
			if d >= 0 {
				s.off[d]++
			}
		}
		for d := 1; d <= n; d++ {
			s.off[d] += s.off[d-1]
		}
		// off[d] now ends d's run; filling each run backwards leaves it
		// at the run's start.
		s.pred = zeroed(s.pred, int(s.off[n]))
		for v, d := range next {
			if d >= 0 {
				s.off[d]--
				s.pred[s.off[d]] = apkeep.DevID(v)
			}
		}
		s.seen = zeroed(s.seen, n)
		s.stack = s.stack[:0]
		for _, t := range targets {
			if int(t) < n && !s.seen[t] {
				s.seen[t] = true
				s.stack = append(s.stack, t)
			}
		}
		for len(s.stack) > 0 {
			d := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			for _, v := range s.pred[s.off[d]:s.off[d+1]] {
				if !s.seen[v] {
					s.seen[v] = true
					s.add(v)
					s.stack = append(s.stack, v)
				}
			}
		}
	}
	return s.out
}

// add puts a device in out once.
func (s *reach) add(id apkeep.DevID) {
	if int(id) >= len(s.in) {
		s.in = append(s.in, make([]bool, int(id)+1-len(s.in))...)
	}
	if !s.in[id] {
		s.in[id] = true
		s.out = append(s.out, id)
	}
}

// zeroed returns buf resized to n zero elements, reusing its array when
// it is large enough.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// sortedPairs lists a pair set ordered by source, then destination (nil
// when empty).
func sortedPairs(set map[Pair]struct{}) []Pair {
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
