package netcfg

import "testing"

// touchesBase is a network on which every change in touchesTable and
// every decodable change in changeJSONSeeds that names a real device
// applies cleanly.
func touchesBase(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	for _, text := range []string{
		`hostname core1
interface eth0
 ip address 172.20.0.2/30
interface eth1
 ip address 172.20.1.1/30
interface eth3
 ip address 172.20.3.1/30
router ospf 1
 network 172.20.0.0/16
ip route 10.99.0.0/24 172.20.0.1
`,
		`hostname core2
interface eth3
 ip address 172.20.3.2/30
interface eth4
 ip address 172.20.4.1/30
`,
		`hostname edge1
interface eth0
 ip address 10.0.9.1/24
interface eth1
 ip address 172.20.4.2/30
access-list old
 10 permit ip any any
`,
		`hostname border
interface eth0
 ip address 10.0.0.1/30
router bgp 65000
 neighbor 10.0.0.2 remote-as 65001
 neighbor 192.0.2.1 remote-as 65002
`,
	} {
		cfg, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		n.Devices[cfg.Hostname] = cfg
	}
	n.Topology.Add("core1", "eth3", "core2", "eth3")
	return n
}

// touchesTable holds at least one change of every kind, each of which
// edits touchesBase.
var touchesTable = []Change{
	ShutdownInterface{Device: "core1", Intf: "eth0", Shutdown: true},
	SetOSPFCost{Device: "core1", Intf: "eth1", Cost: 50},
	SetLocalPref{Device: "border", Neighbor: MustAddr("10.0.0.2"), LocalPref: 150},
	AddStaticRoute{Device: "core2", Route: StaticRoute{Prefix: MustPrefix("10.7.0.0/16"), Drop: true}},
	RemoveStaticRoute{Device: "core1", Route: StaticRoute{Prefix: MustPrefix("10.99.0.0/24"), NextHop: MustAddr("172.20.0.1")}},
	SetACL{Device: "edge1", Name: "mgmt", Lines: []ACLLine{{Seq: 10, Action: Deny, Dst: MustPrefix("10.0.9.0/24")}}},
	SetACL{Device: "edge1", Name: "old", Lines: nil},
	BindACL{Device: "edge1", Intf: "eth0", Name: "old", In: false},
	SetPrefixList{Device: "border", Name: "cust", Entries: []PrefixListEntry{{Seq: 5, Action: Permit, Prefix: MustPrefix("10.0.0.0/8")}}},
	BindNeighborFilter{Device: "border", Neighbor: MustAddr("192.0.2.1"), Name: "cust", In: true},
	SetAggregate{Device: "border", Prefix: MustPrefix("10.0.0.0/8")},
	AddLink{Link: NewLink("core2", "eth4", "edge1", "eth1")},
	RemoveLink{Link: NewLink("core1", "eth3", "core2", "eth3")},
}

// checkTouches applies c to a deep clone of base and requires that it
// left every device outside c.Touches() formatting as before, and the
// topology too unless c declares links. It returns the clone and Apply's
// error.
func checkTouches(t *testing.T, base *Network, c Change) (*Network, error) {
	t.Helper()
	next := base.Clone()
	err := c.Apply(next)
	devs, links := c.Touches()
	touched := make(map[string]bool, len(devs))
	for _, d := range devs {
		touched[d] = true
	}
	for _, n := range []*Network{base, next} {
		for name := range n.Devices {
			if touched[name] {
				continue
			}
			before, after := base.Devices[name], next.Devices[name]
			if before == nil || after == nil {
				t.Errorf("%v: device %s added or removed but not in Touches %v", c, name, devs)
				continue
			}
			if before.Format() != after.Format() {
				t.Errorf("%v: edited device %s, Touches says only %v", c, name, devs)
			}
		}
	}
	if !links && base.Topology.Format() != next.Topology.Format() {
		t.Errorf("%v: edited the links, Touches says it does not", c)
	}
	return next, err
}

// TestTouchesOracle checks that every change kind writes only what its
// Touches declares, which is what lets Verifier.Apply clone only those
// devices and share the rest.
func TestTouchesOracle(t *testing.T) {
	base := touchesBase(t)
	kinds := make(map[string]bool)
	for _, c := range touchesTable {
		kind, err := kindOf(c)
		if err != nil {
			t.Fatal(err)
		}
		kinds[kind] = true
		next, err := checkTouches(t, base, c)
		if err != nil {
			t.Errorf("%v: %v", c, err)
		}
		if DiffNetworks(base, next).Empty() {
			t.Errorf("%v: changed nothing, so it tests nothing", c)
		}
	}
	for _, kind := range ChangeKinds() {
		if !kinds[kind] {
			t.Errorf("no change of kind %s in the table", kind)
		}
	}

	// The fuzz corpus: changes that decode are checked whether or not they
	// apply, since a failing change must not write outside Touches either.
	applied := 0
	for _, s := range changeJSONSeeds {
		c, err := DecodeChange([]byte(s))
		if err != nil {
			continue
		}
		if _, err := checkTouches(t, base, c); err == nil {
			applied++
		}
	}
	if want := len(changeKinds); applied < want {
		t.Errorf("only %d seed changes applied, want at least one per kind (%d)", applied, want)
	}
}
