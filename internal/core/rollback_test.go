package core

import (
	"fmt"
	"math/rand"
	"testing"

	"realconfig/internal/netcfg"
	"realconfig/internal/topology"
)

// joinBadGadget adds the BAD GADGET of examples/oscillation to net: a
// center AS originating 10.99.0.0/24 and a ring of three ASes, each
// preferring the route via its clockwise neighbour. The first ring AS
// starts out preferring its direct route, so the joined network is
// stable. When net runs BGP, the center also peers with net's first
// device, so the gadget's routes reach the rest of the network. The
// gadget's devices stay out of net.NodeNames, so backendPolicies and
// backendChangePool see the same network as before.
//
// It returns the dispute toggle: the first ring AS preferring its
// clockwise neighbour again forms the dispute wheel, which a verifier
// with DetectOscillation must reject, and lowering it back is benign.
func joinBadGadget(net *topology.Net) changePair {
	subnet := netcfg.MustAddr("192.168.0.0")
	intf := func(cfg *netcfg.Config, name string, addr netcfg.Addr) {
		cfg.Interfaces = append(cfg.Interfaces, &netcfg.Interface{Name: name, Addr: netcfg.InterfaceAddr{Addr: addr, Len: 30}})
	}
	// link wires a and z over the next /30 and returns z's address.
	link := func(a, z *netcfg.Config) netcfg.Addr {
		ia := fmt.Sprintf("eth%d", len(a.Interfaces))
		iz := fmt.Sprintf("eth%d", len(z.Interfaces))
		intf(a, ia, subnet+1)
		intf(z, iz, subnet+2)
		a.BGP.Neighbors = append(a.BGP.Neighbors, &netcfg.Neighbor{Addr: subnet + 2, RemoteAS: z.BGP.ASN})
		z.BGP.Neighbors = append(z.BGP.Neighbors, &netcfg.Neighbor{Addr: subnet + 1, RemoteAS: a.BGP.ASN})
		net.Topology.Add(a.Hostname, ia, z.Hostname, iz)
		subnet += 4
		return subnet - 2
	}
	dev := func(name string, asn uint32) *netcfg.Config {
		cfg := &netcfg.Config{Hostname: name, BGP: &netcfg.BGP{ASN: asn}}
		net.Devices[name] = cfg
		return cfg
	}
	center := dev("gadget-c", 100)
	center.BGP.Networks = []netcfg.Prefix{netcfg.MustPrefix("10.99.0.0/24")}
	ring := []*netcfg.Config{dev("gadget-r1", 101), dev("gadget-r2", 102), dev("gadget-r3", 103)}
	if net.Mode == topology.BGP {
		link(net.Devices[net.NodeNames[0]], center)
	}
	for _, r := range ring {
		link(center, r)
	}
	var clockwise []netcfg.Addr
	for i, r := range ring {
		next := link(r, ring[(i+1)%len(ring)])
		r.Neighbor(next).LocalPref = 200
		clockwise = append(clockwise, next)
	}
	ring[0].Neighbor(clockwise[0]).LocalPref = 0
	return changePair{
		do:        netcfg.SetLocalPref{Device: "gadget-r1", Neighbor: clockwise[0], LocalPref: 200},
		undo:      netcfg.SetLocalPref{Device: "gadget-r1", Neighbor: clockwise[0], LocalPref: 0},
		mayReject: true,
	}
}

// TestRejectedApplyLeavesNoTrace walks seeded trajectories on a BAD
// GADGET joined to FatTree(4,BGP), mixing the dispute toggle with
// backendChangePool changes. Every apply that forms the dispute is
// rejected, and after each rejection the verifier must equal a fresh
// load of its network in verdicts, FIB and EC count, and the next
// benign apply must succeed: a failed verification rolls every stage
// back.
func TestRejectedApplyLeavesNoTrace(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			net, err := topology.FatTree(4, topology.BGP)
			if err != nil {
				t.Fatal(err)
			}
			pool := append(backendChangePool(net), joinBadGadget(net))
			v := New(Options{DetectOscillation: true})
			if _, err := v.Load(net.Network.Clone()); err != nil {
				t.Fatal(err)
			}
			o := newBootstrapOracle(t, v, backendPolicies(net))
			rng := rand.New(rand.NewSource(seed))
			picks := make([]int, 30)
			for i := range picks {
				picks[i] = rng.Intn(len(pool) - 1)
				if rng.Intn(4) == 0 {
					picks[i] = len(pool) - 1 // the dispute toggle, about a quarter of the steps
				}
			}
			if rejected := walkPool(t, v, o, pool, picks); rejected == 0 {
				t.Fatal("no apply was rejected: the walk never formed the dispute")
			}
		})
	}
}

// TestRejectedLoadLeavesVerifierUnloaded: a first Load that fails
// leaves the verifier unloaded with the policies registered before it,
// and a later Load of a stable network verifies from scratch.
func TestRejectedLoadLeavesVerifierUnloaded(t *testing.T) {
	net, err := topology.Line(3, topology.BGP)
	if err != nil {
		t.Fatal(err)
	}
	toggle := joinBadGadget(net)
	v := New(Options{DetectOscillation: true})
	ps := backendPolicies(net)
	for _, p := range ps {
		v.AddPolicy(p)
	}
	disputed := net.Network.Clone()
	if err := toggle.do.Apply(disputed); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Load(disputed); err == nil {
		t.Fatal("a network with a dispute wheel loaded")
	}
	if v.Network() != nil {
		t.Fatal("a failed first Load left a network behind")
	}
	if _, err := v.Apply(toggle.undo); err != ErrNotLoaded {
		t.Fatalf("Apply after a failed Load = %v, want ErrNotLoaded", err)
	}
	rep, err := v.Load(net.Network)
	if err != nil {
		t.Fatal(err)
	}
	o := &bootstrapOracle{opts: v.Options(), policies: ps}
	o.check(t, "load after a failed load", v)
	if rep.Diff == nil || len(rep.Diff.Devices) != 0 {
		t.Fatalf("load after a failed load reported a diff: %+v", rep.Diff)
	}
}
