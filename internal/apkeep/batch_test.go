package apkeep

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/trace"
)

// --- oracle: one batch equals the same rules one by one ----------------------

// blockGen draws batches over a /20 whose rules tile aligned blocks,
// sit next to each other unaligned, repeat, share a prefix across two
// ports, nest, and cancel. installed is the multiset the models hold,
// so every delete names an installed rule.
type blockGen struct {
	rng       *rand.Rand
	devs      []string
	installed map[dataplane.Rule]int
	// bounds collects every prefix edge a rule ever had.
	bounds map[uint32]struct{}
}

var blockBase = uint32(netcfg.MustAddr("10.0.0.0"))

func (g *blockGen) rule(dev string, p netcfg.Prefix, port int) dataplane.Rule {
	r := dataplane.Rule{Device: dev, Prefix: p, Action: dataplane.Drop}
	if port > 0 {
		r.Action, r.NextHop, r.OutIntf = dataplane.Forward, fmt.Sprintf("n%d", port), "e0"
	}
	pr := prefixRange(p)
	g.bounds[pr.lo] = struct{}{}
	g.bounds[pr.hi+1] = struct{}{}
	return r
}

// prefix returns a random aligned prefix of length ln inside the /20.
func (g *blockGen) prefix(ln uint8) netcfg.Prefix {
	size := uint32(1) << (32 - ln)
	return netcfg.Prefix{Addr: netcfg.Addr(blockBase + uint32(g.rng.Intn(1<<12/int(size)))*size), Len: ln}
}

func (g *blockGen) dev() string { return g.devs[g.rng.Intn(len(g.devs))] }

// children returns prefixes [from, from+n) of p's 2^k sub-prefixes.
func children(p netcfg.Prefix, k uint8, from, n int) []netcfg.Prefix {
	ln := p.Len + k
	size := uint32(1) << (32 - ln)
	out := make([]netcfg.Prefix, 0, n)
	for i := from; i < from+n; i++ {
		out = append(out, netcfg.Prefix{Addr: p.Addr + netcfg.Addr(uint32(i)*size), Len: ln})
	}
	return out
}

// batch draws one batch for order.
func (g *blockGen) batch(order Order) []dd.Entry[dataplane.Rule] {
	var out []dd.Entry[dataplane.Rule]
	ins := func(r dataplane.Rule, n int64) { out = append(out, dd.Entry[dataplane.Rule]{Val: r, Diff: n}) }
	var pool []dataplane.Rule // installed rules not yet deleted by this batch
	for r, n := range g.installed {
		for ; n > 0; n-- {
			pool = append(pool, r)
		}
	}
	slices.SortFunc(pool, func(a, b dataplane.Rule) int { return strings.Compare(fmt.Sprint(a), fmt.Sprint(b)) })
	del := func(r dataplane.Rule) { // r must be in pool
		i := slices.Index(pool, r)
		pool = slices.Delete(pool, i, i+1)
		out = append(out, dd.Entry[dataplane.Rule]{Val: r, Diff: -1})
	}
	for c := 1 + g.rng.Intn(4); c > 0; c-- {
		dev, port := g.dev(), g.rng.Intn(3)
		switch g.rng.Intn(7) {
		case 0: // siblings tiling a parent
			k := uint8(1 + g.rng.Intn(3))
			p := g.prefix(uint8(22 + g.rng.Intn(5)))
			for _, q := range children(p, k, 0, 1<<k) {
				ins(g.rule(dev, q, port), 1)
			}
		case 1: // unaligned neighbours: a run that starts at an odd child
			p := g.prefix(uint8(22 + g.rng.Intn(4)))
			for _, q := range children(p, 2, 1, 2+g.rng.Intn(2)) {
				ins(g.rule(dev, q, port), 1)
			}
		case 2: // a duplicate, as one entry or two
			r := g.rule(dev, g.prefix(uint8(24+g.rng.Intn(5))), port)
			if g.rng.Intn(2) == 0 {
				ins(r, 2)
			} else {
				ins(r, 1)
				ins(r, 1)
			}
		case 3: // one prefix sent to two ports
			p := g.prefix(uint8(24 + g.rng.Intn(5)))
			ins(g.rule(dev, p, port), 1)
			ins(g.rule(dev, p, (port+1)%3), 1)
		case 4: // a longer rule inside a shorter one
			p := g.prefix(uint8(22 + g.rng.Intn(4)))
			ins(g.rule(dev, p, port), 1)
			ins(g.rule(dev, children(p, uint8(1+g.rng.Intn(3)), 0, 1)[0], g.rng.Intn(3)), 1)
		case 5: // an insert and a delete of one rule
			r := g.rule(dev, g.prefix(uint8(24+g.rng.Intn(5))), port)
			if order == DeleteFirst {
				if len(pool) == 0 {
					continue
				}
				r = pool[g.rng.Intn(len(pool))]
			}
			ins(r, 1)
			if order == DeleteFirst {
				del(r)
			} else {
				out = append(out, dd.Entry[dataplane.Rule]{Val: r, Diff: -1})
			}
		case 6: // deletes: a whole installed tile's device run, or a few
			if len(pool) == 0 {
				continue
			}
			pick := pool[g.rng.Intn(len(pool))]
			for _, r := range slices.Clone(pool) {
				if r.Device == pick.Device && r.Prefix.Len == pick.Prefix.Len && portOf(r) == portOf(pick) && g.rng.Intn(4) > 0 {
					del(r)
				}
			}
		}
	}
	for _, e := range out {
		g.installed[e.Val] += int(e.Diff)
		if g.installed[e.Val] == 0 {
			delete(g.installed, e.Val)
		}
	}
	return out
}

// singles splits a batch into one-rule batches in the order ApplyBatch
// applies its rules.
func singles(batch []dd.Entry[dataplane.Rule], order Order) [][]dd.Entry[dataplane.Rule] {
	var ins, del []dataplane.Rule
	for _, e := range batch {
		for i := int64(0); i < e.Diff; i++ {
			ins = append(ins, e.Val)
		}
		for i := e.Diff; i < 0; i++ {
			del = append(del, e.Val)
		}
	}
	sortRules(ins)
	sortRules(del)
	var out [][]dd.Entry[dataplane.Rule]
	class := func(rules []dataplane.Rule, diff int64) {
		for _, r := range rules {
			out = append(out, []dd.Entry[dataplane.Rule]{{Val: r, Diff: diff}})
		}
	}
	if order == InsertFirst {
		class(ins, 1)
		class(del, -1)
	} else {
		class(del, -1)
		class(ins, 1)
	}
	return out
}

// lpmRef is the brute-force reference: each (device, prefix)'s rule
// stack, whose last port owns the prefix, as the model's trie keeps it.
type lpmRef map[string]map[netcfg.Prefix][]Port

func (ref lpmRef) apply(e dd.Entry[dataplane.Rule]) {
	r := e.Val
	if ref[r.Device] == nil {
		ref[r.Device] = make(map[netcfg.Prefix][]Port)
	}
	stack, port := ref[r.Device][r.Prefix], portOf(r)
	if e.Diff > 0 {
		ref[r.Device][r.Prefix] = append(stack, port)
		return
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == port { // the last copy goes
			ref[r.Device][r.Prefix] = slices.Delete(stack, i, i+1)
			return
		}
	}
}

// lookup returns the port of the longest prefix covering dst that has
// rules on dev, or DropPort.
func (ref lpmRef) lookup(dev string, dst netcfg.Addr) Port {
	best, port := -1, DropPort
	for p, stack := range ref[dev] {
		if len(stack) > 0 && int(p.Len) > best && p.Contains(dst) {
			best, port = int(p.Len), stack[len(stack)-1]
		}
	}
	return port
}

// checkBatchEqualsOneByOne applies seeded batches to three models —
// whole, whole under a trace, and one rule per ApplyBatch — and demands
// after every batch that lookups on a representative of every interval
// between prefix boundaries agree with each other and with brute-force
// longest-prefix match, sound partitions and indexes, equal
// transfer counts traced and untraced, and, under AutoMerge, equal
// partition sizes. Every traced event's rule attribute must name rules
// of the batch.
func checkBatchEqualsOneByOne(t *testing.T, seed int64, order Order, autoMerge bool, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := &blockGen{rng: rng, installed: make(map[dataplane.Rule]int), bounds: map[uint32]struct{}{blockBase: {}}}
	for i := 2 + rng.Intn(3); i > 0; i-- {
		g.devs = append(g.devs, fmt.Sprintf("d%d", len(g.devs)))
	}
	whole, traced, single := New(), New(), New()
	for _, m := range []*Model{whole, traced, single} {
		m.AutoMerge = autoMerge
	}
	ref := lpmRef{}
	rec := trace.NewRecorder(1)
	for step := 0; step < steps; step++ {
		batch := g.batch(order)
		res, err := whole.ApplyBatch(batch, order)
		if err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		a := rec.Begin("batch")
		traced.SetTrace(a)
		tres, err := traced.ApplyBatch(batch, order)
		if err != nil {
			t.Fatalf("seed %d step %d traced: %v", seed, step, err)
		}
		if len(tres.Transfers) != len(res.Transfers) {
			t.Fatalf("seed %d step %d: %d transfers traced, %d untraced", seed, step, len(tres.Transfers), len(res.Transfers))
		}
		labels := make(map[string]bool)
		for _, e := range batch {
			labels[ruleLabel("insert", e.Val)] = true
			labels[ruleLabel("delete", e.Val)] = true
		}
		for _, ev := range a.Events {
			if ev.Kind != obs.EventECSplit && ev.Kind != obs.EventECTransfer {
				continue
			}
			r, _ := trace.Get(ev.Attrs, "rule")
			for _, l := range strings.Split(r, RuleSep) {
				if !labels[l] {
					t.Fatalf("seed %d step %d: %s names %q, no rule of the batch", seed, step, ev.Kind, l)
				}
			}
		}
		for _, one := range singles(batch, order) {
			if _, err := single.ApplyBatch(one, order); err != nil {
				t.Fatalf("seed %d step %d single %v: %v", seed, step, one, err)
			}
			ref.apply(one[0])
		}
		for name, m := range map[string]*Model{"whole": whole, "traced": traced, "single": single} {
			if err := m.CheckPartition(); err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, name, err)
			}
			if err := m.CheckIndex(); err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, name, err)
			}
		}
		for b := range g.bounds {
			pkt := bdd.Packet{Dst: netcfg.Addr(b)}
			for _, dev := range g.devs {
				want := ref.lookup(dev, pkt.Dst)
				if got := single.Lookup(dev, pkt); got != want {
					t.Fatalf("seed %d step %d: Lookup(%s, %v) = %v one by one, %v by LPM", seed, step, dev, pkt.Dst, got, want)
				}
				if got := whole.Lookup(dev, pkt); got != want {
					t.Fatalf("seed %d step %d: Lookup(%s, %v) = %v batched, %v one by one", seed, step, dev, pkt.Dst, got, want)
				}
				if got := traced.Lookup(dev, pkt); got != want {
					t.Fatalf("seed %d step %d: Lookup(%s, %v) = %v traced, %v one by one", seed, step, dev, pkt.Dst, got, want)
				}
			}
		}
		if autoMerge && (whole.NumECs() != single.NumECs() || traced.NumECs() != single.NumECs()) {
			t.Fatalf("seed %d step %d: %d ECs batched, %d traced, %d one by one", seed, step, whole.NumECs(), traced.NumECs(), single.NumECs())
		}
	}
}

func TestBatchEqualsOneByOne(t *testing.T) {
	for _, order := range []Order{InsertFirst, DeleteFirst} {
		for _, am := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/automerge=%v", order, am), func(t *testing.T) {
				for seed := int64(1); seed <= 8; seed++ {
					checkBatchEqualsOneByOne(t, seed, order, am, 12)
				}
			})
		}
	}
}

func FuzzBatchEqualsOneByOne(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		checkBatchEqualsOneByOne(t, seed, Order(mode&1), mode&2 != 0, 8)
	})
}

// TestAlignedBlock pins the CIDR cover's block choice at the edges of
// the address space.
func TestAlignedBlock(t *testing.T) {
	for _, tc := range []struct {
		lo, hi uint32
		want   string
	}{
		{0, ^uint32(0), "0.0.0.0/0"},
		{0, 255, "0.0.0.0/24"},
		{0, 383, "0.0.0.0/24"},
		{256, 1023, "0.0.1.0/24"},
		{512, 1023, "0.0.2.0/23"},
		{^uint32(0), ^uint32(0), "255.255.255.255/32"},
		{uint32(netcfg.MustAddr("10.0.0.64")), uint32(netcfg.MustAddr("10.0.0.191")), "10.0.0.64/26"},
	} {
		if got := alignedBlock(tc.lo, tc.hi); got != netcfg.MustPrefix(tc.want) {
			t.Errorf("alignedBlock(%d, %d) = %v, want %s", tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestBlockMoveSplitsOnce is the block move's point: 16 drop /28s
// tiling a forwarded /24 split its class at most once and move it once,
// and removing them moves it back once, with nothing left to merge.
func TestBlockMoveSplitsOnce(t *testing.T) {
	m := New()
	m.AutoMerge = true
	// r2 sets the /24 apart, so dropping it on r1 merges with nothing.
	if _, err := m.ApplyBatch([]dd.Entry[dataplane.Rule]{
		{Val: rule("r1", "10.0.0.0/16", "a"), Diff: 1},
		{Val: rule("r2", "10.0.5.0/24", "b"), Diff: 1},
	}, InsertFirst); err != nil {
		t.Fatal(err)
	}
	var drops []dd.Entry[dataplane.Rule]
	for _, p := range children(netcfg.MustPrefix("10.0.5.0/24"), 4, 0, 16) {
		drops = append(drops, dd.Entry[dataplane.Rule]{Val: dataplane.Rule{Device: "r1", Prefix: p, Action: dataplane.Drop}, Diff: 1})
	}
	for _, diff := range []int64{1, -1} {
		for i := range drops {
			drops[i].Diff = diff
		}
		m.ResetOps()
		res, err := m.ApplyBatch(drops, InsertFirst)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Transfers) != 1 || len(res.Merges) != 0 || m.Ops().SplitCalls != 1 {
			t.Errorf("diff %d: %d transfers, %d merges, %d split calls; want 1, 0, 1", diff, len(res.Transfers), len(res.Merges), m.Ops().SplitCalls)
		}
	}
	if m.NumECs() != 3 {
		t.Errorf("ECs = %d, want 3", m.NumECs())
	}
}
