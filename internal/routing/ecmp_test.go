package routing

import (
	"testing"

	"realconfig/internal/topology"
)

func TestECMPOffKeepsSinglePath(t *testing.T) {
	net, err := topology.Ring(4, topology.OSPF)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(Options{})
	loadAndStep(t, gen, net.Network)
	p := net.HostPrefix["r02"]
	count := 0
	for rule, d := range gen.FIB() {
		if d > 0 && rule.Device == "r00" && rule.Prefix == p {
			count++
		}
	}
	if count != 1 {
		t.Errorf("single-path mode installed %d rules", count)
	}
}
