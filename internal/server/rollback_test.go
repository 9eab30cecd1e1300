package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"realconfig/internal/core"
	"realconfig/internal/netcfg"
)

// stableGadget is the BAD GADGET of examples/oscillation (a center AS
// originating 10.99.0.0/24 and a ring of three ASes, each preferring
// the route via its clockwise neighbour) with r1 preferring its direct
// route, so it is stable. Setting r1's local preference toward r2
// (172.16.0.14) back to 200 forms the dispute wheel.
func stableGadget() *netcfg.Network {
	net := netcfg.NewNetwork()
	dev := func(name string, asn uint32) *netcfg.Config {
		cfg := &netcfg.Config{Hostname: name, BGP: &netcfg.BGP{ASN: asn}}
		net.Devices[name] = cfg
		return cfg
	}
	c := dev("c", 100)
	c.Interfaces = []*netcfg.Interface{{Name: "lo0", Addr: netcfg.InterfaceAddr{Addr: netcfg.MustAddr("10.99.0.1"), Len: 24}}}
	c.BGP.Networks = []netcfg.Prefix{netcfg.MustPrefix("10.99.0.0/24")}
	ring := []*netcfg.Config{dev("r1", 101), dev("r2", 102), dev("r3", 103)}
	subnet := netcfg.MustAddr("172.16.0.0")
	// link wires a and z over the next /30 and returns a's session to z.
	link := func(a, z *netcfg.Config) *netcfg.Neighbor {
		ia := &netcfg.Interface{Name: fmt.Sprintf("eth%d", len(a.Interfaces)), Addr: netcfg.InterfaceAddr{Addr: subnet + 1, Len: 30}}
		iz := &netcfg.Interface{Name: fmt.Sprintf("eth%d", len(z.Interfaces)), Addr: netcfg.InterfaceAddr{Addr: subnet + 2, Len: 30}}
		subnet += 4
		a.Interfaces = append(a.Interfaces, ia)
		z.Interfaces = append(z.Interfaces, iz)
		nb := &netcfg.Neighbor{Addr: iz.Addr.Addr, RemoteAS: z.BGP.ASN}
		a.BGP.Neighbors = append(a.BGP.Neighbors, nb)
		z.BGP.Neighbors = append(z.BGP.Neighbors, &netcfg.Neighbor{Addr: ia.Addr.Addr, RemoteAS: a.BGP.ASN})
		net.Topology.Add(a.Hostname, ia.Name, z.Hostname, iz.Name)
		return nb
	}
	for _, r := range ring {
		link(c, r)
	}
	for i, r := range ring {
		link(r, ring[(i+1)%len(ring)]).LocalPref = 200
	}
	ring[0].Neighbor(netcfg.MustAddr("172.16.0.14")).LocalPref = 0
	return net
}

const gadgetPolicies = "loopfree no-loops 10.0.0.0/8\nreach r2-to-c r2 c 10.99.0.0/24 all\n"

func newGadgetServer(t *testing.T, journal string) *httptest.Server {
	t.Helper()
	srv, err := New(Config{
		Net:         stableGadget(),
		PolicyText:  gadgetPolicies,
		Options:     core.Options{},
		JournalPath: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func seqOf(t *testing.T, ts *httptest.Server) uint64 {
	t.Helper()
	_, body := get(t, ts, "/v1/verdicts")
	var vr verdictsResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatalf("bad verdicts body %s: %v", body, err)
	}
	return vr.Seq
}

// TestRejectedDisputeLeavesTenantUsable: a POST /v1/changes that forms
// a BGP dispute wheel answers 422 without journaling or advancing seq,
// the next benign write succeeds, and the tenant's report equals that
// of a server replaying its journal.
func TestRejectedDisputeLeavesTenantUsable(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "changes.journal")
	ts := newGadgetServer(t, journal)
	seq := seqOf(t, ts)

	dispute := `{"changes":[{"kind":"set_local_pref","Device":"r1","Neighbor":"172.16.0.14","LocalPref":200}]}`
	if status, body := post(t, ts, "/v1/changes", dispute); status != http.StatusUnprocessableEntity {
		t.Fatalf("dispute: status %d, want 422: %s", status, body)
	}
	if data, err := os.ReadFile(journal); err != nil || len(data) != 0 {
		t.Fatalf("rejected dispute was journaled (%v): %s", err, data)
	}
	if got := seqOf(t, ts); got != seq {
		t.Fatalf("seq after rejected dispute = %d, want %d", got, seq)
	}

	benign := `{"changes":[{"kind":"add_static_route","Device":"r2","Route":{"Prefix":"10.98.0.0/24","NextHop":"0.0.0.0","Drop":true}}]}`
	status, body := post(t, ts, "/v1/changes", benign)
	if status != http.StatusOK {
		t.Fatalf("benign change after a rejected dispute: status %d: %s", status, body)
	}
	var ar struct{ Seq uint64 }
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Seq != seq+1 {
		t.Fatalf("benign change answered seq %d, want %d", ar.Seq, seq+1)
	}

	_, live := get(t, ts, "/v1/report")
	_, replayed := get(t, newGadgetServer(t, journal), "/v1/report")
	if a, b := canonicalReport(t, live), canonicalReport(t, replayed); !bytes.Equal(a, b) {
		t.Fatalf("live report differs from a journal replay:\n live   %s\n replay %s", a, b)
	}
}
