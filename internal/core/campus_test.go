package core

import (
	"os"
	"path/filepath"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
)

// campusDir locates the hand-written sample network checked into the
// repository (testdata/campus): two OSPF edges, two cores, a border
// router redistributing between OSPF and BGP with an export prefix-list,
// an aggregate-address and a protective ACL, and an external ISP.
func campusDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "campus")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("campus fixture missing: %v", err)
	}
	return dir
}

func loadCampus(t *testing.T) (*Verifier, *netcfg.Network) {
	t.Helper()
	net, err := LoadNetworkDir(campusDir(t))
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{})
	if _, err := v.Load(net); err != nil {
		t.Fatal(err)
	}
	return v, net
}

func TestCampusGoldenVerdicts(t *testing.T) {
	v, _ := loadCampus(t)
	text, err := os.ReadFile(filepath.Join(campusDir(t), "policies.txt"))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := ParsePolicies(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 6 {
		t.Fatalf("parsed %d policies", len(ps))
	}
	for _, p := range ps {
		if !v.AddPolicy(p) {
			t.Errorf("policy %q violated on the golden network", p.Name())
		}
	}
}

func TestCampusRouteLeakPrevented(t *testing.T) {
	// The border's export prefix-list must keep internal transit
	// prefixes (172.20/16) and the default route away from the ISP.
	v, _ := loadCampus(t)
	for rule, d := range v.FIB() {
		if d <= 0 || rule.Device != "isp" {
			continue
		}
		if netcfg.MustPrefix("172.20.0.0/16").ContainsPrefix(rule.Prefix) {
			t.Errorf("internal prefix leaked to isp: %v", rule)
		}
		if rule.Prefix.IsDefault() && rule.Action == dataplane.Forward {
			t.Errorf("default route leaked to isp: %v", rule)
		}
	}
	// But the aggregate DID reach the ISP.
	agg := netcfg.MustPrefix("10.10.0.0/16")
	found := false
	for rule, d := range v.FIB() {
		if d > 0 && rule.Device == "isp" && rule.Prefix == agg {
			found = true
		}
	}
	if !found {
		t.Error("aggregate not announced to isp")
	}
	// The border holds the aggregate's discard route.
	if v.FIB()[dataplane.Rule{Device: "border", Prefix: agg, Action: dataplane.Drop}] <= 0 {
		t.Error("no discard route for the aggregate at the border")
	}
}

func TestCampusTraces(t *testing.T) {
	v, net := loadCampus(t)
	_ = net
	// Web from the ISP reaches edge1 through border and a core.
	web := v.Trace("isp", bdd.Packet{Dst: netcfg.MustAddr("10.10.1.5"), Proto: netcfg.ProtoTCP, DstPort: 80})
	if web.Outcome.Kind != policy.Delivered || web.Outcome.At != "edge1" {
		t.Fatalf("web trace: %s", web)
	}
	if len(web.Hops) != 4 {
		t.Errorf("web path length = %d (%s)", len(web.Hops), web)
	}
	// SSH from the ISP dies at the border ACL.
	ssh := v.Trace("isp", bdd.Packet{Dst: netcfg.MustAddr("10.10.1.5"), Proto: netcfg.ProtoTCP, DstPort: 22})
	if ssh.Outcome.Kind != policy.Filtered || ssh.Outcome.At != "border" {
		t.Fatalf("ssh trace: %s", ssh)
	}
	// Campus hosts reach the ISP's prefix via the redistributed default.
	out := v.Trace("edge2", bdd.Packet{Dst: netcfg.MustAddr("203.0.113.7")})
	if out.Outcome.Kind != policy.Delivered || out.Outcome.At != "isp" {
		t.Fatalf("outbound trace: %s", out)
	}
}

func TestCampusBorderLinkFailureFailsOver(t *testing.T) {
	v, net := loadCampus(t)
	v.AddPolicy(policy.Reachability{
		PolicyName: "edge1-isp", Src: "edge1", Dst: "isp",
		Hdr: dataplane.Match{Dst: netcfg.MustPrefix("203.0.113.0/24")}, Mode: policy.ReachAll,
	})
	// Fail core1's uplink to the border: traffic must fail over via
	// core2 and the policy must stay satisfied.
	rep, err := v.Apply(netcfg.ShutdownInterface{Device: "core1", Intf: "eth2", Shutdown: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations()) != 0 {
		t.Errorf("failover violated: %v", rep.Violations())
	}
	tr := v.Trace("edge1", bdd.Packet{Dst: netcfg.MustAddr("203.0.113.7")})
	via2 := false
	for _, hop := range tr.Hops {
		if hop.Device == "core2" {
			via2 = true
		}
	}
	if !via2 || tr.Outcome.Kind != policy.Delivered {
		t.Errorf("failover trace: %s", tr)
	}
	// Fail the ISP link itself: now the intent breaks, and the report
	// says so.
	rep, err = v.Apply(netcfg.ShutdownInterface{Device: "border", Intf: "eth2", Shutdown: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations()) != 1 || rep.Violations()[0] != "edge1-isp" {
		t.Errorf("violations = %v", rep.Violations())
	}
	crossCheck(t, v, v.Network())
	_ = net
}
