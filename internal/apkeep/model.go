// Package apkeep implements an incremental data plane model in the style
// of APKeep (NSDI '20), extended with the batch mode RealConfig needs:
// the network's packet space is maintained as a minimal partition of
// equivalence classes (ECs, represented as BDD predicates), each device
// maps every EC to one logical port (a forwarding action), and rule
// insertions/deletions move ECs between ports, splitting them only when
// a rule boundary cuts through an existing class.
//
// Each EC has a dense id in the model's EC table (table.go), and every
// per-EC structure — here, in the destination index and in the policy
// checker — is a slice indexed by it. Each device likewise has a dense
// id in the model's device table, which the checker walks by. Behaviour
// is stored EC-major: each EC has one row of interned port ids, one
// column per device id, so splitting an EC copies one row, merging two
// drops one, and comparing two compares their rows, however many devices
// the network has.
//
// Every loop of the model runs in one defined order: EC sets (ECSet)
// iterate by ascending id, and rules and filter bindings are sorted. A
// run is therefore a function of its inputs alone, and an attached
// provenance trace (trace.go) only records it.
//
// Longest-prefix-match semantics are handled structurally: a rule's
// effective packet space is its prefix minus all longer prefixes with
// rules on the same device, and deleting a rule hands its space back to
// the longest covering prefix (or the default drop port).
//
// Per-update work is kept proportional to the change, not the model:
// a destination-interval index (see index.go) narrows every split to
// the ECs that can intersect the rule's prefix, and per-device prefix
// tries answer the two LPM queries (shadowing prefixes, covering
// owner) without scanning the installed rule set.
//
// A batch of rule updates is applied in a configurable Order
// (insertion-first or deletion-first). As the paper's Table 3 shows, the
// order matters: insertion-first moves ECs directly from old to new
// ports, while deletion-first detours them through the drop port and
// touches roughly twice as many ECs. Within each order class, adjacent
// prefixes that one device hands to one port move as aligned blocks,
// once per block instead of once per rule (batch.go).
package apkeep

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// Port is a logical forwarding action on a device. Every EC maps to
// exactly one port per device; the zero value is the default drop port.
type Port struct {
	Action  dataplane.Action
	NextHop string
	OutIntf string
}

// DropPort is the default port: packets with no matching rule.
var DropPort = Port{Action: dataplane.Drop}

// ErrAbsentRule reports a deletion of a rule the model does not hold.
// Callers can match it with errors.Is to tell caller error apart from
// model corruption.
var ErrAbsentRule = errors.New("apkeep: delete of absent rule")

func (p Port) String() string {
	switch p.Action {
	case dataplane.Forward:
		return fmt.Sprintf("fwd(%s,%s)", p.NextHop, p.OutIntf)
	case dataplane.Deliver:
		return "deliver"
	default:
		return "drop"
	}
}

// portOf extracts the port a FIB rule forwards to.
func portOf(r dataplane.Rule) Port {
	switch r.Action {
	case dataplane.Forward:
		return Port{Action: dataplane.Forward, NextHop: r.NextHop, OutIntf: r.OutIntf}
	case dataplane.Deliver:
		return Port{Action: dataplane.Deliver, OutIntf: r.OutIntf}
	default:
		return DropPort
	}
}

// Transfer records one EC changing port on one device: the unit of data
// plane model change handed to the policy checker.
type Transfer struct {
	Device DevID
	EC     ECID
	Old    Port
	New    Port
}

// DevID is a device's dense id in the model's device table, and its
// column in every EC's row. Ids are handed out append-only, in the order
// names are first seen, so they only identify: every order is by name.
type DevID int32

// devState is one device's slice of the model.
type devState struct {
	name string
	// rules indexes the ports installed per prefix; the last element of
	// a prefix's stack owns its packet space. (Two live rules for one
	// prefix only occur transiently inside a batch, e.g.
	// insertion-before-deletion.)
	rules prefixTrie
	// filters are the device's ACL bindings, one per (interface,
	// direction): a handful at most, so a scan beats a hash.
	filters []*filterState
}

// OpStats counts the work the model's hot paths perform. Tests and
// benchmarks use it to assert that updates examine candidate ECs, not
// the whole partition. The same signals are exported live through
// ModelMetrics (see Instrument): OpStats is the resettable test-facing
// snapshot, the registry is the monitoring surface.
type OpStats struct {
	SplitCalls      int // split invocations
	SplitCandidates int // ECs examined across all splits
	SplitFull       int // splits that had no hint and scanned the partition
}

// ModelMetrics are the model's live instruments (nil until Instrument;
// every method is nil-safe). The split counters mirror OpStats
// cumulatively — they are never reset, so scrape deltas stay meaningful
// across ResetOps.
type ModelMetrics struct {
	SplitCalls      *obs.Counter
	SplitCandidates *obs.Counter
	SplitFull       *obs.Counter
	// Transfers counts EC port moves; FilterTransfers filter-status
	// flips; Merges partition re-minimizations. All per ApplyBatch.
	Transfers       *obs.Counter
	FilterTransfers *obs.Counter
	Merges          *obs.Counter
	// ECs is the current partition size, set after every batch.
	ECs *obs.Gauge
	// Nodes is the live BDD node count the last collection left (0
	// before the first): unlike the allocated count between collections,
	// it depends only on the model's state, not on the order of the work
	// that built it, so a replica reads what its leader reads.
	// Collections counts collections.
	Nodes       *obs.Gauge
	Collections *obs.Counter
}

// Instrument registers the model's counters and gauges on reg.
func (m *Model) Instrument(reg *obs.Registry) {
	m.metrics = ModelMetrics{
		SplitCalls:      reg.Counter("realconfig_apkeep_split_calls_total", "EC split invocations.", nil),
		SplitCandidates: reg.Counter("realconfig_apkeep_split_candidates_total", "Candidate ECs examined across splits (the change-proportional work).", nil),
		SplitFull:       reg.Counter("realconfig_apkeep_split_full_total", "Splits without a destination hint that scanned the whole partition.", nil),
		Transfers:       reg.Counter("realconfig_apkeep_transfers_total", "EC port moves applied to the data plane model.", nil),
		FilterTransfers: reg.Counter("realconfig_apkeep_filter_transfers_total", "EC filter-status flips from ACL updates.", nil),
		Merges:          reg.Counter("realconfig_apkeep_merges_total", "EC pairs merged re-minimizing the partition.", nil),
		ECs:             reg.Gauge("realconfig_apkeep_ecs", "Current equivalence-class partition size.", nil),
		Nodes:           reg.Gauge("realconfig_bdd_nodes", "Live BDD nodes left by the last node-table collection.", nil),
		Collections:     reg.Counter("realconfig_bdd_collections_total", "BDD node-table collections.", nil),
	}
	m.metrics.ECs.Set(int64(m.live))
}

// Model is the incremental data plane model.
type Model struct {
	H *bdd.Headers

	// slots is the EC table, indexed by ECID; its live slots are the
	// current partition of the packet space, live counts them, and free
	// lists the ids ready for reuse. born and retired are the churn
	// since the last Release; read records that a checker consumes it.
	// graveyard maps the predicates of retired ids to them during a
	// merge pass (table.go, revive).
	slots     []ecSlot
	live      int
	free      []ECID
	born      []ECID
	retired   []ECID
	read      bool
	graveyard map[bdd.Node]ECID
	// idx narrows destination-bounded splits to candidate ECs.
	idx *ecIndex

	// devIDs interns device names; devs[id] is device id's state.
	devIDs map[string]DevID
	devs   []devState

	// portTab maps the port ids of the slots' rows to ports (id 0 is
	// DropPort) and portIDs interns them. Columns and port ids are
	// append-only: bounded by the devices and ports ever installed.
	portTab []Port
	portIDs map[Port]uint32
	// filterSeq numbers filter bindings for their signature facts.
	filterSeq uint64

	// transfers accumulates EC moves since the last TakeTransfers.
	transfers  []Transfer
	ftransfers []FilterTransfer

	// AutoMerge makes ApplyBatch re-minimize the partition by merging
	// behaviourally identical classes (APKeep's "minimum number of ECs"
	// property). Merging is also available explicitly via MergeECs.
	AutoMerge bool
	// bySig heads each signature's bucket of classes, linked through
	// the slots; dirty lists the classes touched since the last merge
	// pass (each once: a slot's dirty bit says whether it is listed).
	bySig map[uint64]ECID
	dirty []ECID

	ops     OpStats
	metrics ModelMetrics

	// preds caches interned Match predicates (policies re-test the same
	// header spaces on every update).
	preds map[dataplane.Match]bdd.Node

	// tr is the provenance trace of the in-flight apply (nil = tracing
	// off).
	tr *trace.Apply
	// run holds the exact rule moves queued for one block move
	// (batch.go).
	run moveRun

	// cands and inside are split's scratch.
	cands, inside []ECID
	// matches is allowOf's scratch.
	matches []dataplane.Match
}

// New creates a model whose packet space is a single EC (everything
// dropped everywhere).
func New() *Model {
	h := bdd.NewHeaders()
	m := &Model{
		H:       h,
		devIDs:  make(map[string]DevID),
		portTab: []Port{DropPort},
		portIDs: map[Port]uint32{DropPort: 0},
		bySig:   make(map[uint64]ECID),
	}
	root := m.alloc(bdd.True)
	m.Release() // a checker's first Update walks every EC, the root too
	m.idx = newECIndex(root)
	m.indexSig(root, 0)
	return m
}

// ECs returns the predicates of the current equivalence classes, in a
// fresh map (off the hot path: updates and the checker use ids).
func (m *Model) ECs() map[bdd.Node]struct{} {
	out := make(map[bdd.Node]struct{}, m.live)
	for i := range m.slots {
		if s := &m.slots[i]; s.state == slotLive {
			out[s.node] = struct{}{}
		}
	}
	return out
}

// NumECs returns the partition size.
func (m *Model) NumECs() int { return m.live }

// Ops returns the accumulated hot-path work counters.
func (m *Model) Ops() OpStats { return m.ops }

// ResetOps clears the work counters.
func (m *Model) ResetOps() { m.ops = OpStats{} }

// PortAt returns the port of an EC on a device (DropPort by default).
func (m *Model) PortAt(dev DevID, id ECID) Port {
	if row := m.slots[id].row; int(dev) < len(row) {
		return m.portTab[row[dev]]
	}
	return DropPort
}

// Intern returns a device's id, adding the device to the table on first
// sight.
func (m *Model) Intern(name string) DevID {
	id, ok := m.devIDs[name]
	if !ok {
		id = DevID(len(m.devs))
		m.devs = append(m.devs, devState{name: name})
		m.devIDs[name] = id
	}
	return id
}

// DevOf returns a device's id, or -1 for a name the model never
// interned.
func (m *Model) DevOf(name string) DevID {
	if id, ok := m.devIDs[name]; ok {
		return id
	}
	return -1
}

// DevName returns a device's name.
func (m *Model) DevName(id DevID) string { return m.devs[id].name }

// portID interns a port.
func (m *Model) portID(p Port) uint32 {
	id, ok := m.portIDs[p]
	if !ok {
		id = uint32(len(m.portTab))
		m.portTab = append(m.portTab, p)
		m.portIDs[p] = id
	}
	return id
}

// split refines the partition so that pred is a union of ECs, and
// returns the ECs inside pred (valid until the next split). Split parts
// inherit the original EC's port on every device and its status at
// every filter binding. The hint bounds pred's destination footprint so
// only the index's candidate ECs are examined; use fullRange when pred
// is not destination-bounded. label is the "rule" attribute of the
// split events (traced applies only).
func (m *Model) split(pred bdd.Node, hint dstHint, label string) []ECID {
	if pred == bdd.False {
		return nil
	}
	m.ops.SplitCalls++
	m.metrics.SplitCalls.Inc()
	var cands []ECID
	if hint.dstRange == fullRange.dstRange {
		m.ops.SplitFull++
		m.metrics.SplitFull.Inc()
		cands = m.AppendLive(m.cands[:0])
	} else {
		m.idx.prepare(hint.dstRange)
		cands = m.idx.candidates(m.cands[:0], hint.dstRange)
	}
	m.cands = cands
	m.ops.SplitCandidates += len(cands)
	m.metrics.SplitCandidates.Add(uint64(len(cands)))

	inside := m.inside[:0]
	for _, id := range cands {
		ec := m.slots[id].node
		in := m.H.And(ec, pred)
		if in == bdd.False {
			continue
		}
		if in == ec {
			inside = append(inside, id)
			continue
		}
		out := m.H.Diff(ec, pred)
		if m.tr != nil {
			m.tr.Event(obs.TrackModel, obs.EventECSplit,
				trace.U("ec", uint64(ec)), trace.U("in", uint64(in)), trace.U("out", uint64(out)),
				trace.S("rule", label))
		}
		inID, outID := m.alloc(in), m.alloc(out)
		inside = append(inside, inID)
		m.idx.splitEC(id, inID, outID, hint)
		// Children inherit the parent's behaviour, hence its signature.
		s := m.slots[id].sig
		m.unindexSig(id)
		row := m.slots[id].row
		m.slots[inID].row = row
		m.slots[outID].row = slices.Clone(row)
		for _, child := range [2]ECID{inID, outID} {
			m.indexSig(child, s)
			m.markDirty(child)
		}
		m.eachFilter(func(fs *filterState) {
			if fs.blocked.Has(id) {
				fs.blocked.Del(id)
				fs.blocked.Add(inID)
				fs.blocked.Add(outID)
			}
		})
		m.retire(id)
	}
	m.inside = inside
	return inside
}

// moveECs retargets every EC inside pred to newPort on dev, recording
// transfers for those that actually change port. label names the rules
// behind the move, the "rule" attribute of its events.
func (m *Model) moveECs(dev DevID, pred bdd.Node, newPort Port, hint dstHint, label string) {
	if pred == bdd.False {
		return
	}
	pid := m.portID(newPort)
	newFact := portFact(dev, pid)
	for _, id := range m.split(pred, hint, label) {
		row := m.slots[id].row
		var oldID uint32
		if int(dev) < len(row) {
			oldID = row[dev]
		}
		if oldID == pid {
			continue
		}
		if int(dev) >= len(row) {
			row = append(row, make([]uint32, len(m.devs)-len(row))...)
			m.slots[id].row = row
		}
		row[dev] = pid
		m.bumpSig(id, newFact-portFact(dev, oldID))
		t := Transfer{Device: dev, EC: id, Old: m.portTab[oldID], New: newPort}
		m.transfers = append(m.transfers, t)
		if m.tr != nil {
			m.traceTransfer(t, label)
		}
	}
}

// effective returns rule prefix p's effective packet space on the
// device: its destination predicate minus every strictly longer prefix
// that has rules installed. (A move with no such prefix is exact and
// needs no predicate until its block is flushed; see move.)
func (m *Model) effective(ds *devState, p netcfg.Prefix) bdd.Node {
	eff := m.H.DstPrefix(p)
	ds.rules.longerWithin(p, func(q netcfg.Prefix, _ []Port) bool {
		eff = m.H.Diff(eff, m.H.DstPrefix(q))
		return eff != bdd.False
	})
	return eff
}

// owner returns the port currently owning prefix p's packet space when p
// itself has no rules: the longest covering prefix's owner, or DropPort.
func (m *Model) owner(ds *devState, p netcfg.Prefix) Port {
	if stack, _ := ds.rules.owner(p); len(stack) > 0 {
		return stack[len(stack)-1]
	}
	return DropPort
}

// InsertRule adds a forwarding rule to the model, moving the affected
// ECs to the rule's port: a batch of one.
func (m *Model) InsertRule(r dataplane.Rule) {
	m.insertRule(r)
	m.flushMoves()
}

// DeleteRule removes a forwarding rule. If the rule owned its prefix's
// packet space, the space falls back to the remaining owner: a duplicate
// rule for the prefix, else the longest covering prefix, else drop.
// Deleting a rule the model does not hold returns ErrAbsentRule.
func (m *Model) DeleteRule(r dataplane.Rule) error {
	err := m.deleteRule(r)
	m.flushMoves()
	return err
}

// insertRule updates the device's trie for an inserted rule and hands
// the rule's effective space to its port (move, which may queue it).
func (m *Model) insertRule(r dataplane.Rule) {
	dev := m.Intern(r.Device)
	ds := &m.devs[dev]
	port := portOf(r)
	stack := ds.rules.get(r.Prefix)
	ds.rules.set(r.Prefix, append(stack, port))
	if len(stack) > 0 && stack[len(stack)-1] == port {
		return // same owner, nothing moves
	}
	// The new rule owns the prefix's effective space now.
	m.move(dev, r, port, "insert")
}

// deleteRule is DeleteRule's trie update; the heir's move may queue.
func (m *Model) deleteRule(r dataplane.Rule) error {
	dev := m.Intern(r.Device)
	ds := &m.devs[dev]
	port := portOf(r)
	stack := ds.rules.get(r.Prefix)
	idx := -1
	for i, p := range stack {
		if p == port {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: %v", ErrAbsentRule, r)
	}
	wasOwner := idx == len(stack)-1
	stack = append(stack[:idx], stack[idx+1:]...)
	if len(stack) == 0 {
		ds.rules.remove(r.Prefix)
	} else {
		ds.rules.set(r.Prefix, stack)
	}
	if !wasOwner {
		return nil
	}
	var heir Port
	if len(stack) > 0 {
		heir = stack[len(stack)-1]
	} else {
		heir = m.owner(ds, r.Prefix)
	}
	if heir == port {
		return nil
	}
	m.move(dev, r, heir, "delete")
	return nil
}

// TakeTransfers returns and clears the accumulated EC transfers.
func (m *Model) TakeTransfers() []Transfer {
	out := m.transfers
	m.transfers = nil
	return out
}

// Lookup returns the port a concrete packet takes on a device, resolved
// through the EC partition (the model's view of forwarding, ECOf).
func (m *Model) Lookup(dev string, pkt bdd.Packet) Port {
	id, ok := m.ECOf(pkt)
	if d := m.DevOf(dev); ok && d >= 0 {
		return m.PortAt(d, id)
	}
	return DropPort
}

// RuleAt returns the installed rule a destination matches on a device:
// the longest prefix covering dst, with the port that owns it. It walks
// one root-to-leaf path of the device's prefix trie.
func (m *Model) RuleAt(dev DevID, dst netcfg.Addr) (dataplane.Rule, bool) {
	ds := &m.devs[dev]
	p := netcfg.Prefix{Addr: dst, Len: 32}
	stack := ds.rules.get(p)
	if stack == nil {
		stack, p = ds.rules.owner(p)
	}
	if len(stack) == 0 {
		return dataplane.Rule{}, false
	}
	port := stack[len(stack)-1]
	return dataplane.Rule{Device: ds.name, Prefix: p, Action: port.Action, NextHop: port.NextHop, OutIntf: port.OutIntf}, true
}

// CheckPartition verifies the EC invariants: classes are non-empty,
// pairwise disjoint, and cover the full packet space. It is O(n^2) and
// meant for tests.
func (m *Model) CheckPartition() error {
	all := bdd.False
	ecs := make([]bdd.Node, 0, m.live)
	for ec := range m.ECs() {
		ecs = append(ecs, ec)
	}
	sort.Slice(ecs, func(i, j int) bool { return ecs[i] < ecs[j] })
	for i, a := range ecs {
		if a == bdd.False {
			return fmt.Errorf("apkeep: empty EC in partition")
		}
		for _, b := range ecs[i+1:] {
			if m.H.Overlaps(a, b) {
				return fmt.Errorf("apkeep: overlapping ECs")
			}
		}
		all = m.H.Or(all, a)
	}
	if all != bdd.True {
		return fmt.Errorf("apkeep: ECs do not cover the packet space")
	}
	return nil
}

// CheckIndex verifies the destination-index invariants: the index knows
// exactly the live ECs, intervals are sorted from address 0, and
// every interval's EC set covers the interval's destination slice
// of the packet space (no EC intersecting an interval is missing from
// it). Like CheckPartition it is exhaustive and meant for tests.
func (m *Model) CheckIndex() error {
	x := m.idx
	for id := range m.slots {
		live := m.slots[id].state == slotLive
		if live && len(x.member(ECID(id))) == 0 {
			return fmt.Errorf("apkeep: live EC %d missing from index", id)
		}
		if !live && len(x.member(ECID(id))) != 0 {
			return fmt.Errorf("apkeep: index tracks id %d, which is no EC", id)
		}
	}
	for i, iv := range x.ivls {
		if i == 0 && iv.start != 0 || i > 0 && x.ivls[i-1].start >= iv.start {
			return fmt.Errorf("apkeep: interval starts do not ascend from 0")
		}
	}
	for i, iv := range x.ivls {
		hi := ^uint32(0)
		if i+1 < len(x.ivls) {
			hi = x.ivls[i+1].start - 1
		}
		// Members must cover the interval's slice of the packet space:
		// since the ECs partition everything, any EC absent from the
		// set but intersecting [start, hi] would leave a hole here.
		rangePred := m.H.DstRange(iv.start, hi)
		covered := bdd.False
		for _, id := range iv.ecs.AppendTo(nil) {
			if !m.Live(id) {
				return fmt.Errorf("apkeep: interval holds dead EC")
			}
			if !slices.Contains(x.member(id), iv) {
				return fmt.Errorf("apkeep: missing reverse membership")
			}
			covered = m.H.Or(covered, m.H.And(m.slots[id].node, rangePred))
		}
		if covered != rangePred {
			return fmt.Errorf("apkeep: interval [%d,%d] candidate set misses an EC", iv.start, hi)
		}
	}
	for id := range m.slots {
		for _, iv := range x.member(ECID(id)) {
			if !iv.ecs.Has(ECID(id)) {
				return fmt.Errorf("apkeep: EC %d lists an interval that does not hold it", id)
			}
		}
	}
	return nil
}

// --- reference implementations ---------------------------------------------
//
// The pre-index full-scan versions of the model's queries, kept
// unexported as differential-test oracles (see index_test.go): the
// indexed paths must agree with them on every input.

// refLookup scans the whole partition.
func (m *Model) refLookup(dev string, pkt bdd.Packet) Port {
	for id := range m.slots {
		if d := m.DevOf(dev); d >= 0 && m.Live(ECID(id)) && m.H.Contains(m.slots[id].node, pkt) {
			return m.PortAt(d, ECID(id))
		}
	}
	return DropPort
}

// refEffective filters every installed prefix linearly.
func (m *Model) refEffective(ds *devState, p netcfg.Prefix) bdd.Node {
	eff := m.H.DstPrefix(p)
	ds.rules.walk(func(q netcfg.Prefix, _ []Port) {
		if q.Len > p.Len && p.ContainsPrefix(q) {
			eff = m.H.Diff(eff, m.H.DstPrefix(q))
		}
	})
	return eff
}

// refOwner filters every installed prefix linearly.
func (m *Model) refOwner(ds *devState, p netcfg.Prefix) Port {
	best := netcfg.Prefix{}
	var bestStack []Port
	found := false
	ds.rules.walk(func(q netcfg.Prefix, stack []Port) {
		if q == p || q.Len >= p.Len || !q.ContainsPrefix(p) {
			return
		}
		if !found || q.Len > best.Len {
			best, bestStack, found = q, stack, true
		}
	})
	if !found {
		return DropPort
	}
	return bestStack[len(bestStack)-1]
}
