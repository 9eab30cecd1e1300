package apkeep

import (
	"cmp"
	"slices"
	"strings"

	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// A load by sweep. Into a model that holds no rule and no filter
// binding, a batch of insertions need not find its partition rule by
// rule. The rules' prefix boundaries cut the destination space into
// atoms (Delta-net's): no rule of any device starts or ends inside one,
// so each atom has one port per device, its longest covering prefix's.
// The minimal partition is then one EC per distinct port vector, the
// union of the atoms that have it. A sweep over the atoms in address
// order keeps one stack of open prefixes per device, so the vector
// changes only where some prefix opens or closes, and its signature
// (merge.go's portFact sum) changes with it.

// sweeps reports whether ApplyBatch loads a batch by sweep: insertions
// only, into a model under AutoMerge (the sweep gives the minimal
// partition) that holds nothing but its one all-drop EC.
func (m *Model) sweeps(ins, del []dataplane.Rule) bool {
	if !m.AutoMerge || len(ins) == 0 || len(del) > 0 || m.live != 1 {
		return false
	}
	for i := range m.devs {
		if ds := &m.devs[i]; ds.rules.root.n > 0 || len(ds.filters) > 0 {
			return false
		}
	}
	return true
}

// span is one (device, prefix) of a sweep: the port id owning the
// prefix and its address range.
type span struct {
	dev    DevID
	pid    uint32
	lo, hi uint32
}

// sweep loads ins into a model for which sweeps holds. It fills the
// devices' tries as insertions do, replaces the one EC with the minimal
// partition, indexes one interval per atom, and records one transfer
// from DropPort per (EC, device) whose port is another. A traced
// sweep's transfer events name the rules owning the EC's atoms on the
// device.
func (m *Model) sweep(ins []dataplane.Rule) {
	// The rules in sortRules's order, longest prefix first, by a packed
	// key of length, device rank and address: only rules that share a
	// device and prefix compare strings. New devices are interned in
	// name order.
	rank := make(map[string]uint64)
	var names []string
	for _, r := range ins {
		if _, ok := rank[r.Device]; !ok {
			rank[r.Device] = 0
			names = append(names, r.Device)
		}
	}
	slices.Sort(names)
	devOf := make([]DevID, len(names))
	for i, name := range names {
		rank[name] = uint64(i)
		devOf[i] = m.Intern(name)
	}
	type keyed struct {
		key uint64 // 32-len, device rank, address
		r   *dataplane.Rule
	}
	const rankBits = 26
	order := make([]keyed, len(ins))
	for i := range ins {
		r := &ins[i]
		order[i] = keyed{uint64(32-r.Prefix.Len)<<(32+rankBits) | rank[r.Device]<<32 | uint64(r.Prefix.Addr), r}
	}
	slices.SortFunc(order, func(a, b keyed) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Or(strings.Compare(a.r.NextHop, b.r.NextHop), strings.Compare(a.r.OutIntf, b.r.OutIntf))
	})

	// Tries, and one span per (device, prefix): a prefix's rules on one
	// device are adjacent, and the last one's port owns it, as the last
	// insertion's would. A prefix's first port stack is a slice of one
	// array.
	spans := make([]span, 0, len(ins))
	bounds := make([]uint32, 1, 2*len(ins)+1) // bounds[0] = 0
	stacks := make([]Port, len(ins))
	for i, o := range order {
		r, dev := o.r, devOf[o.key>>32&(1<<rankBits-1)]
		ds := &m.devs[dev]
		port := portOf(*r)
		stack := ds.rules.get(r.Prefix)
		if stack == nil {
			stacks[i] = port
			stack = stacks[i : i+1 : i+1]
		} else {
			stack = append(stack, port)
		}
		ds.rules.set(r.Prefix, stack)
		pid := m.portID(port)
		if i > 0 && o.key == order[i-1].key {
			spans[len(spans)-1].pid = pid
			continue
		}
		pr := prefixRange(r.Prefix)
		spans = append(spans, span{dev: dev, pid: pid, lo: pr.lo, hi: pr.hi})
		bounds = append(bounds, pr.lo)
		if pr.hi != ^uint32(0) {
			bounds = append(bounds, pr.hi+1)
		}
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	n := len(bounds)

	// Each span opens at the atom of its first address and closes
	// before the atom after its last. Opening outer prefixes first and
	// closing inner ones first keeps each device's stack nested: spans
	// are longest prefix first, so opens are bucketed from their end.
	opens, closes := make([]int32, len(spans)), make([]int32, len(spans))
	for i, s := range spans {
		a, _ := slices.BinarySearch(bounds, s.lo)
		opens[i], closes[i] = int32(a), int32(n)
		if s.hi != ^uint32(0) {
			a, _ = slices.BinarySearch(bounds, s.hi+1)
			closes[i] = int32(a)
		}
	}
	openOff, openIdx := bucket(opens, n, true)
	closeOff, closeIdx := bucket(closes, n, false)

	// The sweep: each atom joins the class of its port vector, compared
	// in full where signatures collide.
	open := make([][]uint32, len(m.devs)) // per device, innermost last
	cur := make([]uint32, len(m.devs))
	var sig uint64
	setPort := func(dev DevID, pid uint32) {
		sig += portFact(dev, pid) - portFact(dev, cur[dev])
		cur[dev] = pid
	}
	var rows [][]uint32
	var sigs []uint64
	var chain []int32 // the next class with the same signature, or -1
	heads := make(map[uint64]int32)
	ecOf := make([]int32, n)
	for a := range n {
		for _, i := range closeIdx[closeOff[a]:closeOff[a+1]] {
			dev := spans[i].dev
			st := open[dev][:len(open[dev])-1]
			open[dev] = st
			var top uint32
			if len(st) > 0 {
				top = st[len(st)-1]
			}
			setPort(dev, top)
		}
		for _, i := range openIdx[openOff[a]:openOff[a+1]] {
			s := spans[i]
			open[s.dev] = append(open[s.dev], s.pid)
			setPort(s.dev, s.pid)
		}
		c, ok := heads[sig]
		for ok && c >= 0 && !slices.Equal(rows[c], cur) {
			c = chain[c]
		}
		if !ok || c < 0 {
			c = int32(len(rows))
			rows = append(rows, slices.Clone(cur))
			sigs = append(sigs, sig)
			next, had := heads[sig]
			if !had {
				next = -1
			}
			chain = append(chain, next)
			heads[sig] = c
		}
		ecOf[a] = c
	}

	// The partition: the one EC there was retires, and each class
	// becomes an EC whose predicate is its atoms' aligned blocks.
	root := m.AppendLive(m.cands[:0])[0]
	m.unindexSig(root)
	m.retire(root)
	blocks := make([][]netcfg.Prefix, len(rows))
	for a := range n {
		hi := ^uint32(0)
		if a+1 < n {
			hi = bounds[a+1] - 1
		}
		blocks[ecOf[a]] = appendBlocks(blocks[ecOf[a]], bounds[a], hi)
	}
	ids := make([]ECID, len(rows))
	for c, row := range rows {
		id := m.alloc(m.H.DstBlocks(blocks[c]))
		m.slots[id].row = row
		m.indexSig(id, sigs[c])
		ids[c] = id
	}

	// The index: one interval per atom, holding its EC.
	x := &ecIndex{ivls: make([]*ivl, n)}
	ivls := make([]ivl, n)
	words := int(slices.Max(ids))>>6 + 1
	sets := make([]uint64, n*words)
	for a := range n {
		iv := &ivls[a]
		iv.start = bounds[a]
		iv.ecs = ECSet(sets[a*words : (a+1)*words : (a+1)*words])
		id := ids[ecOf[a]]
		iv.ecs.Add(id)
		x.ivls[a] = iv
		x.setMember(id, append(x.member(id), iv))
	}
	m.idx = x

	// The transfers, EC by EC.
	moved := 0
	for _, row := range rows {
		for _, pid := range row {
			if pid != 0 {
				moved++
			}
		}
	}
	m.transfers = slices.Grow(m.transfers, moved)
	var atoms [][]int32 // each class's atoms, traced sweeps only
	if m.tr != nil {
		atoms = make([][]int32, len(rows))
		for a, c := range ecOf {
			atoms[c] = append(atoms[c], int32(a))
		}
	}
	for c, row := range rows {
		for dev, pid := range row {
			if pid == 0 {
				continue
			}
			t := Transfer{Device: DevID(dev), EC: ids[c], Old: DropPort, New: m.portTab[pid]}
			m.transfers = append(m.transfers, t)
			if m.tr != nil {
				m.traceTransfer(t, m.ownerLabels(t.Device, atoms[c], bounds))
			}
		}
	}
}

// bucket groups the indexes of keys (each in [0, n]) by key: off[k] to
// off[k+1] delimit key k's indexes in idx, in index order, or in
// reverse index order if rev.
func bucket(keys []int32, n int, rev bool) (off, idx []int32) {
	off = make([]int32, n+2)
	for _, k := range keys {
		off[k+1]++
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	next := slices.Clone(off)
	idx = make([]int32, len(keys))
	for j := range keys {
		i := j
		if rev {
			i = len(keys) - 1 - j
		}
		idx[next[keys[i]]] = int32(i)
		next[keys[i]]++
	}
	return off, idx
}

// appendBlocks appends the aligned CIDR blocks that tile [lo, hi].
func appendBlocks(dst []netcfg.Prefix, lo, hi uint32) []netcfg.Prefix {
	for {
		b := alignedBlock(lo, hi)
		dst = append(dst, b)
		end := prefixRange(b).hi
		if end == hi {
			return dst
		}
		lo = end + 1
	}
}

// ownerLabels joins the labels of the distinct rules that own the given
// atoms on dev, in address order.
func (m *Model) ownerLabels(dev DevID, atoms []int32, bounds []uint32) string {
	var labels []string
	for _, a := range atoms {
		r, _ := m.RuleAt(dev, netcfg.Addr(bounds[a]))
		if l := ruleLabel("insert", r); !slices.Contains(labels, l) {
			labels = append(labels, l)
		}
	}
	return strings.Join(labels, RuleSep)
}

// traceTransfer records a transfer's provenance event.
func (m *Model) traceTransfer(t Transfer, label string) {
	m.tr.Event(obs.TrackModel, obs.EventECTransfer,
		trace.S("device", m.devs[t.Device].name), trace.U("ec", uint64(m.slots[t.EC].node)),
		trace.S("rule", label),
		trace.S("from", t.Old.String()), trace.S("to", t.New.String()))
}
