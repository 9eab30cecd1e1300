package routing

import (
	"errors"
	"fmt"
	"testing"

	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
	"realconfig/internal/simulate"
)

// badGadget builds the classic BAD GADGET (Griffin/Wilfong): a center AS
// originating a prefix and three ring ASes, each preferring the route
// via its clockwise ring neighbor (local-pref 200) over its direct route
// to the center (default 100). The configuration has no stable solution,
// so BGP oscillates forever — exactly the non-termination the paper's
// section 6 wants detected as a recurring state.
func badGadget() *netcfg.Network {
	net := netcfg.NewNetwork()
	mk := func(name string, asn uint32) *netcfg.Config {
		c := &netcfg.Config{Hostname: name, BGP: &netcfg.BGP{ASN: asn}}
		net.Devices[name] = c
		return c
	}
	center := mk("c", 100)
	center.BGP.Networks = []netcfg.Prefix{netcfg.MustPrefix("10.99.0.0/24")}
	rings := []*netcfg.Config{mk("r1", 101), mk("r2", 102), mk("r3", 103)}

	subnet := 0
	addLink := func(a, b *netcfg.Config) (netcfg.Addr, netcfg.Addr) {
		base := netcfg.MustAddr("172.16.0.0") + netcfg.Addr(subnet*4)
		subnet++
		ia := &netcfg.Interface{Name: fmt.Sprintf("eth%d", len(a.Interfaces)), Addr: netcfg.InterfaceAddr{Addr: base + 1, Len: 30}}
		ib := &netcfg.Interface{Name: fmt.Sprintf("eth%d", len(b.Interfaces)), Addr: netcfg.InterfaceAddr{Addr: base + 2, Len: 30}}
		a.Interfaces = append(a.Interfaces, ia)
		b.Interfaces = append(b.Interfaces, ib)
		a.BGP.Neighbors = append(a.BGP.Neighbors, &netcfg.Neighbor{Addr: ib.Addr.Addr, RemoteAS: b.BGP.ASN})
		b.BGP.Neighbors = append(b.BGP.Neighbors, &netcfg.Neighbor{Addr: ia.Addr.Addr, RemoteAS: a.BGP.ASN})
		net.Topology.Add(a.Hostname, ia.Name, b.Hostname, ib.Name)
		return ia.Addr.Addr, ib.Addr.Addr
	}
	// Spokes.
	for _, r := range rings {
		addLink(center, r)
	}
	// Ring links; each ring node prefers routes from its clockwise
	// successor.
	for i, r := range rings {
		next := rings[(i+1)%3]
		rAddr, nextAddr := addLink(r, next)
		_ = rAddr
		r.Neighbor(nextAddr).LocalPref = 200
	}
	return net
}

func TestBadGadgetSimulatorDiverges(t *testing.T) {
	if _, err := simulate.Run(badGadget()); !errors.Is(err, simulate.ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

func TestBadGadgetGeneratorDetectsRecurringState(t *testing.T) {
	gen := New(Options{})
	gen.SetNetwork(badGadget())
	_, err := gen.Step()
	if !errors.Is(err, dd.ErrRecurringState) {
		t.Fatalf("err = %v, want ErrRecurringState", err)
	}
}

// TestGoodGadgetConverges flips the preferences so each ring node
// prefers its direct route: a stable solution exists and both engines
// find the same one.
func TestGoodGadgetConverges(t *testing.T) {
	net := badGadget()
	for _, name := range []string{"r1", "r2", "r3"} {
		for _, nb := range net.Devices[name].BGP.Neighbors {
			nb.LocalPref = 0 // default everywhere
		}
	}
	gen := New(Options{})
	loadAndStep(t, gen, net)
	checkAgainstSimulator(t, gen, net)
}

// TestFingerprintSeesEveryField: the recurring-state detectors on the
// protocol fixpoints fingerprint tuples by hashOSPFBest and hashBGPBest.
// Changing any one field of the key or the route must change the hash;
// a hash blind to a field would make two distinct fixpoint states
// collide and reject a convergent configuration as oscillating.
func TestFingerprintSeesEveryField(t *testing.T) {
	key := rkey{Dev: 3, Prefix: netcfg.MustPrefix("10.1.2.0/24")}
	keyEdits := map[string]func(*rkey){
		"Dev":         func(k *rkey) { k.Dev++ },
		"Prefix.Addr": func(k *rkey) { k.Prefix.Addr ^= 1 << 8 },
		"Prefix.Len":  func(k *rkey) { k.Prefix.Len++ },
	}
	checkFields(t, "ospf", dd.MkKV(key, ospfRt{Dist: 20, NextHop: 5, OutIntf: 7}), hashOSPFBest, keyEdits,
		map[string]func(*ospfRt){
			"Dist":    func(r *ospfRt) { r.Dist++ },
			"NextHop": func(r *ospfRt) { r.NextHop++ },
			"OutIntf": func(r *ospfRt) { r.OutIntf++ },
		})
	checkFields(t, "bgp", dd.MkKV(key, bgpRt{LocalPref: 100, Path: 9, PeerAS: 65001, NextHop: 5, OutIntf: 7, PathLen: 2}), hashBGPBest, keyEdits,
		map[string]func(*bgpRt){
			"LocalPref": func(r *bgpRt) { r.LocalPref++ },
			"Path":      func(r *bgpRt) { r.Path++ },
			"PeerAS":    func(r *bgpRt) { r.PeerAS++ },
			"NextHop":   func(r *bgpRt) { r.NextHop++ },
			"OutIntf":   func(r *bgpRt) { r.OutIntf++ },
			"PathLen":   func(r *bgpRt) { r.PathLen++ },
			"Discard":   func(r *bgpRt) { r.Discard = !r.Discard },
		})
}

// checkFields applies each one-field edit to a copy of base and
// requires its hash to differ from base's.
func checkFields[V comparable](t *testing.T, proto string, base dd.KV[rkey, V], hash func(dd.KV[rkey, V]) uint64,
	keyEdits map[string]func(*rkey), valEdits map[string]func(*V)) {
	t.Helper()
	for name, edit := range keyEdits {
		got := base
		edit(&got.K)
		if hash(got) == hash(base) {
			t.Errorf("%s: changing %s keeps the hash", proto, name)
		}
	}
	for name, edit := range valEdits {
		got := base
		edit(&got.V)
		if hash(got) == hash(base) {
			t.Errorf("%s: changing %s keeps the hash", proto, name)
		}
	}
}
