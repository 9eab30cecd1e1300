package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"realconfig/internal/netcfg"
	"realconfig/internal/topology"
)

// formatNetwork renders a whole network canonically: every device's
// configuration in name order, then the links.
func formatNetwork(n *netcfg.Network) string {
	var b strings.Builder
	for _, name := range n.DeviceNames() {
		fmt.Fprintf(&b, "== %s\n%s", name, n.Devices[name].Format())
	}
	b.WriteString("== links\n")
	b.WriteString(n.Topology.Format())
	return b.String()
}

// cowBatchPool enumerates do/undo batch pairs of mixed kinds for a
// generated topology: interface shutdown, static drop routes, a two-line
// ACL defined and bound in one batch, link removal, and OSPF cost or BGP
// local-pref moves depending on the protocol.
func cowBatchPool(net *topology.Net) [][2][]netcfg.Change {
	var pool [][2][]netcfg.Change
	pair := func(do []netcfg.Change, undo ...netcfg.Change) [2][]netcfg.Change {
		return [2][]netcfg.Change{do, undo}
	}
	for i, l := range net.Topology.Links {
		if i%3 == 0 {
			pool = append(pool, pair(
				[]netcfg.Change{netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA, Shutdown: true}},
				netcfg.ShutdownInterface{Device: l.DevA, Intf: l.IntfA}))
		}
		if i%5 == 1 {
			pool = append(pool, pair(
				[]netcfg.Change{netcfg.RemoveLink{Link: l}},
				netcfg.AddLink{Link: l}))
		}
		if net.Mode == topology.OSPF && i%4 == 2 {
			pool = append(pool, pair(
				[]netcfg.Change{netcfg.SetOSPFCost{Device: l.DevB, Intf: l.IntfB, Cost: uint32(20 + i)}},
				netcfg.SetOSPFCost{Device: l.DevB, Intf: l.IntfB}))
		}
	}
	for i, dev := range net.NodeNames {
		cfg := net.Devices[dev]
		r := netcfg.StaticRoute{Prefix: netcfg.MustPrefix(fmt.Sprintf("10.9.%d.0/24", i)), Drop: true}
		pool = append(pool, pair(
			[]netcfg.Change{netcfg.AddStaticRoute{Device: dev, Route: r}},
			netcfg.RemoveStaticRoute{Device: dev, Route: r}))
		if len(cfg.Interfaces) > 0 {
			intf, name := cfg.Interfaces[0].Name, fmt.Sprintf("cow-%d", i)
			lines := []netcfg.ACLLine{
				{Seq: 10, Action: netcfg.Deny, Dst: net.HostPrefix[net.NodeNames[(i+1)%len(net.NodeNames)]]},
				{Seq: 20, Action: netcfg.Permit},
			}
			pool = append(pool, pair(
				[]netcfg.Change{
					netcfg.SetACL{Device: dev, Name: name, Lines: lines},
					netcfg.BindACL{Device: dev, Intf: intf, Name: name, In: true},
				},
				netcfg.BindACL{Device: dev, Intf: intf, In: true},
				netcfg.SetACL{Device: dev, Name: name}))
		}
		if cfg.BGP != nil && len(cfg.BGP.Neighbors) > 0 {
			nb := cfg.BGP.Neighbors[0].Addr
			pool = append(pool, pair(
				[]netcfg.Change{netcfg.SetLocalPref{Device: dev, Neighbor: nb, LocalPref: uint32(150 + i)}},
				netcfg.SetLocalPref{Device: dev, Neighbor: nb}))
		}
	}
	return pool
}

// requireSameState requires that a (built by Apply) and b (built by
// SetNetwork) verified the same network to the same FIB and verdicts.
func requireSameState(t *testing.T, step int, a, b *Verifier) {
	t.Helper()
	if got, want := formatNetwork(a.Network()), formatNetwork(b.Network()); got != want {
		t.Fatalf("step %d: networks differ\napply:\n%s\nsnapshot:\n%s", step, got, want)
	}
	if got, want := a.FIB(), b.FIB(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: FIBs differ (%d vs %d rules)", step, len(got), len(want))
	}
	if got, want := a.NumFIBRules(), b.NumFIBRules(); got != want {
		t.Fatalf("step %d: NumFIBRules %d vs %d", step, got, want)
	}
	if got, want := a.Verdicts(), b.Verdicts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: verdicts differ: apply=%v snapshot=%v", step, got, want)
	}
}

// TestCopyOnWriteEqualsSnapshot drives two verifiers through the same
// seeded walks of mixed change batches: A by Apply, which shares every
// untouched device with its previous network, and B by SetNetwork of a
// deep-cloned network with the same changes applied, which shares
// nothing. After every step the reports' config diffs, the FIBs, the
// verdicts and the networks must be identical; no network A held may
// have changed under it; and a copy A handed out before the walk must be
// as it was. Every few steps a batch whose second change fails must leave
// A's network, FIB and verdicts as they were.
func TestCopyOnWriteEqualsSnapshot(t *testing.T) {
	for _, mode := range []topology.Mode{topology.BGP, topology.OSPF} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("fattree4-%v/seed=%d", mode, seed), func(t *testing.T) {
				net, err := topology.FatTree(4, mode)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				a := New(Options{})
				b := New(Options{})
				if _, err := a.Load(net.Network); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Load(net.Network); err != nil {
					t.Fatal(err)
				}
				for _, p := range backendPolicies(net) {
					a.AddPolicy(p)
					b.AddPolicy(p)
				}
				handedOut := a.Network()
				handedOutText := formatNetwork(handedOut)
				shadow := net.Network.Clone()

				pool := cowBatchPool(net)
				applied := make([]bool, len(pool))
				lines, rules := 0, 0
				for step := 0; step < 40; step++ {
					var batch []netcfg.Change
					for k, n := 0, 1+rng.Intn(2); k < n; k++ {
						i := rng.Intn(len(pool))
						if applied[i] {
							batch = append(batch, pool[i][1]...)
						} else {
							batch = append(batch, pool[i][0]...)
						}
						applied[i] = !applied[i]
					}
					held, heldText := a.cur, formatNetwork(a.cur)

					repA, err := a.Apply(batch...)
					if err != nil {
						t.Fatalf("step %d %v: %v", step, batch, err)
					}
					for _, ch := range batch {
						if err := ch.Apply(shadow); err != nil {
							t.Fatalf("step %d %v: %v", step, ch, err)
						}
					}
					repB, err := b.SetNetwork(shadow.Clone())
					if err != nil {
						t.Fatalf("step %d %v: %v", step, batch, err)
					}
					if !reflect.DeepEqual(repA.Diff(), repB.Diff()) {
						t.Fatalf("step %d %v: diffs differ\napply:    %+v\nsnapshot: %+v", step, batch, repA.Diff(), repB.Diff())
					}
					if formatNetwork(held) != heldText {
						t.Fatalf("step %d %v: Apply wrote into the network it held", step, batch)
					}
					requireSameState(t, step, a, b)
					lines += repA.Diff().LineCount() + len(repA.Diff().Links)
					rules += repA.RulesInserted + repA.RulesDeleted

					if step%8 == 7 {
						// A change that applies: the first of a batch not yet done.
						i := rng.Intn(len(pool))
						for applied[i] {
							i = (i + 1) % len(pool)
						}
						requireFailedBatchIsNoOp(t, step, a, pool[i][0][0])
					}
				}
				if lines == 0 || rules == 0 {
					t.Fatalf("the walk changed %d config lines and %d rules; it tests nothing", lines, rules)
				}
				if formatNetwork(handedOut) != handedOutText {
					t.Fatal("a Network() copy taken before the walk changed during it")
				}
			})
		}
	}
}

// requireFailedBatchIsNoOp applies first followed by a change that fails
// (removing a link that does not exist) and requires the batch's error to
// leave v's network, FIB and verdicts as they were.
func requireFailedBatchIsNoOp(t *testing.T, step int, v *Verifier, first netcfg.Change) {
	t.Helper()
	net, fib, verdicts := formatNetwork(v.Network()), v.FIB(), v.Verdicts()
	bad := netcfg.RemoveLink{Link: netcfg.NewLink("nowhere", "eth0", "nothing", "eth0")}
	if _, err := v.Apply(first, bad); err == nil {
		t.Fatalf("step %d: batch ending in %v applied", step, bad)
	}
	if formatNetwork(v.Network()) != net {
		t.Fatalf("step %d: failed batch [%v, %v] changed the network", step, first, bad)
	}
	if !reflect.DeepEqual(v.FIB(), fib) || !reflect.DeepEqual(v.Verdicts(), verdicts) {
		t.Fatalf("step %d: failed batch [%v, %v] changed the FIB or verdicts", step, first, bad)
	}
}
