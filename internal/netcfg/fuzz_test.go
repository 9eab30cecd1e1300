package netcfg

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// changeJSONSeeds is FuzzChangeJSON's seed corpus: one hand-written wire
// object per change kind, plus near-misses (unknown kind, bad addresses,
// wrong field types, duplicate keys). TestTouchesOracle applies the ones
// that decode.
var changeJSONSeeds = []string{
	`{"kind":"shutdown_interface","Device":"core1","Intf":"eth0","Shutdown":true}`,
	`{"kind":"set_ospf_cost","Device":"core1","Intf":"eth1","Cost":100}`,
	`{"kind":"set_local_pref","Device":"border","Neighbor":"10.0.0.2","LocalPref":150}`,
	`{"kind":"add_static_route","Device":"core1","Route":{"Prefix":"10.99.0.0/24","NextHop":"0.0.0.0","Drop":true}}`,
	`{"kind":"remove_static_route","Device":"core1","Route":{"Prefix":"10.99.0.0/24","NextHop":"172.20.0.1","Drop":false}}`,
	`{"kind":"set_acl","Device":"edge1","Name":"mgmt","Lines":[{"Seq":10,"Action":"deny","Proto":"tcp","Src":"0.0.0.0/0","Dst":"10.0.9.0/24","DstPortLo":22,"DstPortHi":22}]}`,
	`{"kind":"bind_acl","Device":"edge1","Intf":"eth0","Name":"mgmt","In":true}`,
	`{"kind":"set_prefix_list","Device":"border","Name":"cust","Entries":[{"Seq":5,"Action":"permit","Prefix":"10.0.0.0/8","Exact":false}]}`,
	`{"kind":"bind_neighbor_filter","Device":"border","Neighbor":"192.0.2.1","Name":"cust","In":false}`,
	`{"kind":"set_aggregate","Device":"border","Prefix":"10.0.0.0/8","Remove":false}`,
	`{"kind":"add_link","Link":{"DevA":"core1","IntfA":"eth3","DevB":"core2","IntfB":"eth3"}}`,
	`{"kind":"remove_link","Link":{"DevA":"core1","IntfA":"eth3","DevB":"core2","IntfB":"eth3"}}`,
	`{"kind":"teleport_device"}`,
	`{"kind":"add_static_route","Device":"core1","Route":{"Prefix":"10.99.0.0/33"}}`,
	`{"kind":"set_ospf_cost","Cost":"not-a-number"}`,
	`{"kind":"shutdown_interface","kind":"set_ospf_cost"}`,
	`{"Device":"core1"}`,
	`[]`,
	`null`,
	`{`,
}

// FuzzChangeJSON throws arbitrary bytes at the tagged-union change
// decoder. Malformed input must be rejected with an error — never a
// panic — and anything that decodes must round-trip: encoding is a
// fixed point (encode(decode(encode(c))) is byte-identical) and decoding
// the re-encoding yields a deeply equal change.
func FuzzChangeJSON(f *testing.F) {
	for _, s := range changeJSONSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c1, err := DecodeChange(data)
		if err != nil {
			return // rejected; all that matters is it didn't panic
		}
		enc1, err := EncodeChange(c1)
		if err != nil {
			t.Fatalf("decoded change %v does not re-encode: %v", c1, err)
		}
		c2, err := DecodeChange(enc1)
		if err != nil {
			t.Fatalf("re-encoding %s does not decode: %v", enc1, err)
		}
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("round-trip changed the value:\n  first:  %#v\n  second: %#v\n  wire:   %s", c1, c2, enc1)
		}
		enc2, err := EncodeChange(c2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding is not a fixed point:\n  first:  %s\n  second: %s", enc1, enc2)
		}
	})
}

// FuzzInvert decodes arbitrary change JSON and checks the algebra of
// Invert: where a change and its inverse are both invertible, inversion
// is an involution (Invert(Invert(c)) == c), and an inverse must always
// itself be a valid, encodable change. Errors are fine; panics are not.
func FuzzInvert(f *testing.F) {
	seeds := []string{
		`{"kind":"shutdown_interface","Device":"core1","Intf":"eth0","Shutdown":true}`,
		`{"kind":"shutdown_interface","Device":"core1","Intf":"eth0","Shutdown":false}`,
		`{"kind":"add_static_route","Device":"core1","Route":{"Prefix":"10.99.0.0/24","NextHop":"0.0.0.0","Drop":true}}`,
		`{"kind":"remove_static_route","Device":"core1","Route":{"Prefix":"10.99.0.0/24","NextHop":"172.20.0.1","Drop":false}}`,
		`{"kind":"set_acl","Device":"edge1","Name":"mgmt","Lines":[{"Seq":10,"Action":"deny","Proto":"tcp","Src":"0.0.0.0/0","Dst":"10.0.9.0/24","DstPortLo":22,"DstPortHi":22}]}`,
		`{"kind":"set_acl","Device":"edge1","Name":"mgmt"}`,
		`{"kind":"set_aggregate","Device":"border","Prefix":"10.0.0.0/8","Remove":false}`,
		`{"kind":"set_aggregate","Device":"border","Prefix":"10.0.0.0/8","Remove":true}`,
		`{"kind":"add_link","Link":{"DevA":"core1","IntfA":"eth3","DevB":"core2","IntfB":"eth3"}}`,
		`{"kind":"remove_link","Link":{"DevA":"core1","IntfA":"eth3","DevB":"core2","IntfB":"eth3"}}`,
		`{"kind":"set_ospf_cost","Device":"core1","Intf":"eth1","Cost":100}`,
		`{"kind":"bind_acl","Device":"edge1","Intf":"eth0","Name":"mgmt","In":true}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeChange(data)
		if err != nil {
			return
		}
		inv, err := Invert(c)
		if err != nil {
			if !errors.Is(err, ErrNotInvertible) {
				t.Fatalf("Invert(%v) failed with a foreign error: %v", c, err)
			}
			return
		}
		if _, err := EncodeChange(inv); err != nil {
			t.Fatalf("inverse %v of %v does not encode: %v", inv, c, err)
		}
		back, err := Invert(inv)
		if err != nil {
			// Information-losing one-way inverses (SetACL define -> remove)
			// are allowed; they must still say ErrNotInvertible.
			if !errors.Is(err, ErrNotInvertible) {
				t.Fatalf("Invert(Invert(%v)) failed with a foreign error: %v", c, err)
			}
			return
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("inversion is not an involution:\n  c:      %#v\n  double: %#v", c, back)
		}
	})
}
