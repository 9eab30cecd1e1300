package plan

import (
	"errors"
	"fmt"
	"testing"

	"realconfig/internal/netcfg"
	"realconfig/internal/topology"
)

// TestCanonicalNetNamesFailingChange derives a state in which the
// second of three changes fails: the error names that change and the
// state, wraps the change's own error, and the base is left unwritten.
func TestCanonicalNetNamesFailingChange(t *testing.T) {
	net, err := topology.Ring(4, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	dev := net.DeviceNames()[0]
	route := netcfg.StaticRoute{Prefix: netcfg.MustPrefix("198.18.0.0/24"), Drop: true}
	other := netcfg.StaticRoute{Prefix: netcfg.MustPrefix("198.18.1.0/24"), Drop: true}
	batch := []netcfg.Change{
		netcfg.AddStaticRoute{Device: dev, Route: route},
		netcfg.AddStaticRoute{Device: dev, Route: other},
		netcfg.AddStaticRoute{Device: dev, Route: route},
	}
	state := []int{0, 2}
	if _, err := canonicalNet(net.Network, batch, []int{0, 1}); err != nil {
		t.Fatalf("state [0 1]: %v", err)
	}
	_, err = canonicalNet(net.Network, batch, state)
	after0, _ := net.Network.With(batch[0])
	cause := batch[2].Apply(after0)
	want := fmt.Sprintf("plan: batch changes do not commute: %v fails at canonical state %v: %v", batch[2], state, cause)
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
	var ce *netcfg.ChangeError
	if errors.As(err, &ce) {
		t.Errorf("the planner's error wraps the change's error, not With's: %v", ce)
	}
	if len(net.Devices[dev].StaticRoutes) != 0 {
		t.Errorf("canonicalNet wrote the base network")
	}
}
