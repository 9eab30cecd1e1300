package netcfg

import (
	"strings"
	"testing"
)

// formatAll renders every device in name order and then the links.
func formatAll(n *Network) string {
	var b strings.Builder
	for _, name := range n.DeviceNames() {
		b.WriteString(n.Devices[name].Format())
	}
	b.WriteString(n.Topology.Format())
	return b.String()
}

// checkWith derives base.With(c) and requires that it left base's text
// byte-identical, pointer-shares every device c.Touches() does not name
// (and the topology unless c declares links), and holds a copy of every
// device it does name. It returns With's error.
func checkWith(t *testing.T, base *Network, c Change) error {
	t.Helper()
	before := formatAll(base)
	next, err := base.With(c)
	if formatAll(base) != before {
		t.Errorf("%v: With wrote into the network it derived from", c)
	}
	if err != nil {
		return err
	}
	devs, links := c.Touches()
	touched := make(map[string]bool, len(devs))
	for _, d := range devs {
		touched[d] = true
	}
	for name, cfg := range base.Devices {
		if shared := next.Devices[name] == cfg; shared == touched[name] {
			t.Errorf("%v: device %s shared=%v, Touches names %v", c, name, shared, devs)
		}
	}
	if shared := next.Topology == base.Topology; shared == links {
		t.Errorf("%v: topology shared=%v, Touches says links=%v", c, shared, links)
	}
	return nil
}

// TestWithSharesWhatItDoesNotTouch checks the derivation routine that
// every copy-on-write hand-off takes: for every change kind, and every
// decodable fuzz seed whether or not it applies, With writes nothing of
// its input and copies exactly what Touches names.
func TestWithSharesWhatItDoesNotTouch(t *testing.T) {
	base := touchesBase(t)
	for _, c := range touchesTable {
		if err := checkWith(t, base, c); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
	for _, s := range changeJSONSeeds {
		if c, err := DecodeChange([]byte(s)); err == nil {
			checkWith(t, base, c)
		}
	}
}

// TestWithNamesFailingChange derives three changes of which the second
// fails: With's error is a *ChangeError with that index, whose message
// and unwrapped error are the change's own.
func TestWithNamesFailingChange(t *testing.T) {
	n := NewNetwork()
	n.Devices["a"] = &Config{Hostname: "a"}
	r := StaticRoute{Prefix: MustPrefix("198.18.0.0/24"), Drop: true}
	changes := []Change{AddStaticRoute{Device: "a", Route: r}, RemoveStaticRoute{Device: "b", Route: r}, AddStaticRoute{Device: "a", Route: r}}
	_, err := n.With(changes...)
	cause := changes[1].Apply(n)
	ce, ok := err.(*ChangeError)
	if !ok || ce.Index != 1 || err.Error() != cause.Error() || ce.Unwrap().Error() != cause.Error() {
		t.Fatalf("With = %#v, want a *ChangeError at index 1 saying %q", err, cause)
	}
}
