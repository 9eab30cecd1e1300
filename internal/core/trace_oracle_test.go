package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
	"realconfig/internal/topology"
)

// lpm finds the longest-prefix-match FIB rule for a destination on a
// device by scanning every rule: the reference for Model.RuleAt.
func lpm(fib map[dataplane.Rule]dd.Diff, dev string, dst netcfg.Addr) (dataplane.Rule, bool) {
	var best dataplane.Rule
	found := false
	for rule, d := range fib {
		if d <= 0 || rule.Device != dev || !rule.Prefix.Contains(dst) {
			continue
		}
		if !found || rule.Prefix.Len > best.Prefix.Len {
			best = rule
			found = true
		}
	}
	return best, found
}

// refTrace is Verifier.Trace as it was before the per-device trie
// lookup: every hop's rule is found by lpm over a fresh copy of the
// whole FIB.
func refTrace(v *Verifier, src string, pkt bdd.Packet) Trace {
	model, checker, fib := v.model, v.checker, v.gen.FIB()
	tr := Trace{Packet: pkt}
	ec, _ := model.ECOf(pkt)
	if o, ok := checker.Outcome(ec, src); ok {
		tr.Outcome = o
	} else {
		tr.Outcome = policy.Outcome{Kind: policy.Dropped, At: src}
	}
	path := []string{src}
	if id := model.DevOf(src); id >= 0 {
		path = checker.TracePath(ec, id)
	}
	for _, dev := range path {
		hop := TraceHop{Device: dev}
		if rule, ok := lpm(fib, dev, pkt.Dst); ok {
			hop.Rule = &rule
			if rule.Action == dataplane.Forward {
				if model.BlockedAt(model.DevOf(dev), rule.OutIntf, dataplane.Out, ec) {
					hop.Filtered = "out@" + rule.OutIntf
				}
			}
		}
		tr.Hops = append(tr.Hops, hop)
	}
	if tr.Outcome.Kind == policy.Filtered && len(tr.Hops) > 0 {
		last := &tr.Hops[len(tr.Hops)-1]
		if last.Filtered == "" && last.Device == tr.Outcome.At {
			last.Filtered = "in@ingress"
			if len(tr.Hops) >= 2 {
				prev := tr.Hops[len(tr.Hops)-2]
				if prev.Rule != nil {
					if in, ok := checker.Ingress(prev.Device, prev.Rule.OutIntf); ok && in[0] == last.Device {
						last.Filtered = "in@" + in[1]
					}
				}
			}
		}
	}
	return tr
}

// tracePackets draws n seeded packets: a destination inside a FIB rule's
// prefix (or, one time in eight, anywhere), TCP to port 22 or 80 half
// the time, injected at a seeded device (or, one time in sixteen, at a
// name no device has).
type tracePackets struct {
	rng      *rand.Rand
	devs     []string
	prefixes []netcfg.Prefix
}

func newTracePackets(seed int64, v *Verifier) *tracePackets {
	seen := make(map[netcfg.Prefix]bool)
	var prefixes []netcfg.Prefix
	for r := range v.FIB() {
		if !seen[r.Prefix] {
			seen[r.Prefix] = true
			prefixes = append(prefixes, r.Prefix)
		}
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].String() < prefixes[j].String() })
	return &tracePackets{rng: rand.New(rand.NewSource(seed)), devs: v.Network().DeviceNames(), prefixes: prefixes}
}

func (g *tracePackets) next() (string, bdd.Packet) {
	pkt := bdd.Packet{Dst: netcfg.Addr(g.rng.Uint32()), Src: netcfg.Addr(g.rng.Uint32())}
	if g.rng.Intn(8) > 0 {
		p := g.prefixes[g.rng.Intn(len(g.prefixes))]
		pkt.Dst = p.Addr | netcfg.Addr(g.rng.Uint32())&^p.Mask()
	}
	if g.rng.Intn(2) == 0 {
		pkt.Proto, pkt.DstPort = netcfg.ProtoTCP, []uint16{22, 80}[g.rng.Intn(2)]
	}
	src := "ghost"
	if g.rng.Intn(16) > 0 {
		src = g.devs[g.rng.Intn(len(g.devs))]
	}
	return src, pkt
}

// campusNet wraps the checked-in campus snapshot as a topology.Net for
// backendChangePool (BGP mode: its pool has no OSPF cost moves).
func campusNet() (*topology.Net, error) {
	net, err := LoadNetworkDir(filepath.Join("..", "..", "testdata", "campus"))
	if err != nil {
		return nil, err
	}
	return &topology.Net{Network: net, NodeNames: net.DeviceNames(), Mode: topology.BGP}, nil
}

// TestTraceMatchesFIBScan walks seeded change trajectories on the campus
// snapshot and on FatTree(4) BGP and OSPF, and after every apply traces
// seeded packets: each hop's rule and filter verdict must equal refTrace's,
// which scans the whole FIB at every hop.
func TestTraceMatchesFIBScan(t *testing.T) {
	for _, tp := range []struct {
		name  string
		build func() (*topology.Net, error)
	}{
		{"campus", campusNet},
		{"fattree4-bgp", func() (*topology.Net, error) { return topology.FatTree(4, topology.BGP) }},
		{"fattree4-ospf", func() (*topology.Net, error) { return topology.FatTree(4, topology.OSPF) }},
	} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed=%d", tp.name, seed), func(t *testing.T) {
				net, err := tp.build()
				if err != nil {
					t.Fatal(err)
				}
				v := New(Options{})
				if _, err := v.Load(net.Network.Clone()); err != nil {
					t.Fatal(err)
				}
				pkts := newTracePackets(seed, v)
				check := func(where string) {
					t.Helper()
					for i := 0; i < 48; i++ {
						src, pkt := pkts.next()
						if got, want := v.Trace(src, pkt), refTrace(v, src, pkt); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: trace from %s:\n%sreference:\n%s", where, src, got, want)
						}
					}
				}
				check("load")
				pool := append(backendChangePool(net), staticLoop(net))
				applied := make([]bool, len(pool))
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 24; step++ {
					i := rng.Intn(len(pool))
					ch := pool[i].do
					if applied[i] {
						ch = pool[i].undo
					}
					if _, err := v.Apply(ch); err != nil {
						t.Fatalf("step %d (%s): %v", step, ch, err)
					}
					applied[i] = !applied[i]
					check(fmt.Sprintf("step %d (%s)", step, ch))
				}
			})
		}
	}
}

// BenchmarkTrace traces packets to every host /24 of FatTree(6,BGP) from
// a rotating source device; one op is one Verifier.Trace.
func BenchmarkTrace(b *testing.B) {
	net, err := topology.FatTree(6, topology.BGP)
	if err != nil {
		b.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net.Network); err != nil {
		b.Fatal(err)
	}
	n := len(net.NodeNames)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := net.HostPrefix[net.NodeNames[i%n]]
		v.Trace(net.NodeNames[(i/n+1)%n], bdd.Packet{Dst: dst.Addr + 7, Proto: netcfg.ProtoTCP, DstPort: 80})
	}
}
