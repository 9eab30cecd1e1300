package apkeep

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/routing"
	"realconfig/internal/topology"
)

// TestLoadEqualsIncremental is the load by sweep's oracle. Seeded rule
// sets (generated FIBs of fat trees and the campus network, and random
// statics that nest, drop, repeat and share prefixes across ports) are
// each loaded by sweep and, into a second model, one rule per batch.
// The two must agree on the set of EC predicates, on NumECs, on every
// device's port per EC and on Lookup at every atom's representative,
// which must be the longest-prefix match; both partitions and indexes
// must be sound. The sweep must report one transfer from DropPort per
// (EC, device) whose port is another. EC ids may differ.
func TestLoadEqualsIncremental(t *testing.T) {
	sets := map[string][]dataplane.Rule{"campus": campusFIB(t)}
	for _, k := range []int{4, 6} {
		for _, mode := range []topology.Mode{topology.OSPF, topology.BGP} {
			net, err := topology.FatTree(k, mode)
			if err != nil {
				t.Fatal(err)
			}
			sets[fmt.Sprintf("fattree%d-%v", k, mode)] = fibOf(t, net.Network)
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		sets[fmt.Sprintf("statics-%d", seed)] = randomStatics(seed)
	}
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) { checkLoadEqualsIncremental(t, sets[name]) })
	}
}

func checkLoadEqualsIncremental(t *testing.T, rules []dataplane.Rule) {
	batch := make([]dd.Entry[dataplane.Rule], len(rules))
	for i, r := range rules {
		batch[i] = dd.Entry[dataplane.Rule]{Val: r, Diff: 1}
	}
	swept, inc := New(), New()
	swept.AutoMerge, inc.AutoMerge = true, true
	res, err := swept.ApplyBatch(batch, InsertFirst)
	if err != nil {
		t.Fatal(err)
	}
	if swept.Ops().SplitCalls != 0 {
		t.Fatalf("the load split %d times: it did not sweep", swept.Ops().SplitCalls)
	}
	// The first rule goes in by InsertRule, so no rule of the reference
	// takes the sweep. The longest-prefix reference takes the rules in
	// the same order, which decides a prefix's owner among its rules.
	ref := lpmRef{}
	for i, one := range singles(batch, InsertFirst) {
		ref.apply(one[0])
		if i == 0 {
			inc.InsertRule(one[0].Val)
			continue
		}
		if _, err := inc.ApplyBatch(one, InsertFirst); err != nil {
			t.Fatal(err)
		}
	}
	for name, m := range map[string]*Model{"swept": swept, "incremental": inc} {
		if err := m.CheckPartition(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.CheckIndex(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if swept.NumECs() != inc.NumECs() {
		t.Fatalf("%d ECs swept, %d incrementally", swept.NumECs(), inc.NumECs())
	}

	// The same predicates, as nodes of the incremental model's table,
	// and the same port on every device.
	incOf := make(map[bdd.Node]ECID)
	for _, id := range inc.AppendLive(nil) {
		incOf[inc.Node(id)] = id
	}
	var devs []string
	for _, r := range rules {
		if !slices.Contains(devs, r.Device) {
			devs = append(devs, r.Device)
		}
	}
	moved := 0
	for _, id := range swept.AppendLive(nil) {
		other, ok := incOf[swept.H.CopyTo(inc.H.Table, swept.Node(id))]
		if !ok {
			t.Fatalf("swept EC %d is no EC of the incremental model", id)
		}
		for _, d := range devs {
			got, want := swept.PortAt(swept.DevOf(d), id), inc.PortAt(inc.DevOf(d), other)
			if got != want {
				t.Fatalf("EC %d on %s: %v swept, %v incrementally", id, d, got, want)
			}
			if got != DropPort {
				moved++
			}
		}
	}
	if len(res.Transfers) != moved {
		t.Fatalf("%d transfers, want one per (EC, device) off drop: %d", len(res.Transfers), moved)
	}
	for _, tr := range res.Transfers {
		if tr.Old != DropPort || tr.New != swept.PortAt(tr.Device, tr.EC) {
			t.Fatalf("transfer %+v: want from drop to the EC's port", tr)
		}
	}

	// Lookup at each atom's first address.
	bounds := map[uint32]bool{0: true}
	for _, e := range batch {
		pr := prefixRange(e.Val.Prefix)
		bounds[pr.lo] = true
		bounds[pr.hi+1] = true // wraps to 0 at the top of the space
	}
	for b := range bounds {
		pkt := bdd.Packet{Dst: netcfg.Addr(b)}
		for _, d := range devs {
			want := ref.lookup(d, pkt.Dst)
			if got := swept.Lookup(d, pkt); got != want {
				t.Fatalf("Lookup(%s, %v) = %v swept, %v by LPM", d, pkt.Dst, got, want)
			}
			if got := inc.Lookup(d, pkt); got != want {
				t.Fatalf("Lookup(%s, %v) = %v incrementally, %v by LPM", d, pkt.Dst, got, want)
			}
		}
	}
}

// fibOf returns the rules of a network's generated FIB, each as often
// as its multiplicity.
func fibOf(t *testing.T, net *netcfg.Network) []dataplane.Rule {
	t.Helper()
	gen := routing.New(routing.Options{})
	gen.SetNetwork(net)
	if _, err := gen.Step(); err != nil {
		t.Fatal(err)
	}
	var out []dataplane.Rule
	for r, d := range gen.FIB() {
		for ; d > 0; d-- {
			out = append(out, r)
		}
	}
	return out
}

// campusFIB is the generated FIB of the campus network in testdata.
func campusFIB(t *testing.T) []dataplane.Rule {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "campus")
	net := netcfg.NewNetwork()
	files, err := filepath.Glob(filepath.Join(dir, "*.cfg"))
	if err != nil || len(files) == 0 {
		t.Fatalf("campus configurations: %v", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := netcfg.Parse(string(text))
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Hostname == "" {
			cfg.Hostname = strings.TrimSuffix(filepath.Base(f), ".cfg")
		}
		net.Devices[cfg.Hostname] = cfg
	}
	text, err := os.ReadFile(filepath.Join(dir, "topology.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if net.Topology, err = netcfg.ParseTopology(string(text)); err != nil {
		t.Fatal(err)
	}
	return fibOf(t, net)
}

// randomStatics draws rules on a few devices, mostly inside 10.0.0.0/16
// and nested, with drops, repeated rules, prefixes sent to two ports,
// and now and then a default route or a prefix at the top of the space.
func randomStatics(seed int64) []dataplane.Rule {
	rng := rand.New(rand.NewSource(seed))
	devs := []string{"d0", "d1", "d2", "d3", "d4"}[:2+rng.Intn(4)]
	rule := func(dev string, p netcfg.Prefix, port int) dataplane.Rule {
		r := dataplane.Rule{Device: dev, Prefix: p, Action: dataplane.Drop}
		if port > 0 {
			r.Action, r.NextHop, r.OutIntf = dataplane.Forward, fmt.Sprintf("n%d", port), "e0"
		}
		return r
	}
	var out []dataplane.Rule
	for range 40 + rng.Intn(40) {
		dev, port := devs[rng.Intn(len(devs))], rng.Intn(4)
		ln := uint8(16 + rng.Intn(13))
		size := uint32(1) << (32 - ln)
		p := netcfg.Prefix{Addr: netcfg.Addr(blockBase&^0xffff + uint32(rng.Intn(1<<16/int(size)))*size), Len: ln}
		switch rng.Intn(10) {
		case 0:
			p = netcfg.Prefix{}
		case 1:
			p = netcfg.MustPrefix("255.255.255.0/24")
		}
		r := rule(dev, p, port)
		out = append(out, r)
		switch rng.Intn(5) {
		case 0:
			out = append(out, r)
		case 1:
			out = append(out, rule(dev, p, (port+1)%4))
		}
	}
	return out
}
