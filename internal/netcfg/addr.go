// Package netcfg models network device configurations: interfaces,
// routing protocols (OSPF, BGP), static routes, ACLs and route
// redistribution, together with a vendor-style text format, a canonical
// printer, line diffs, and typed change operations. It is the input layer
// of the verifier: everything RealConfig checks starts as a netcfg
// Network.
package netcfg

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netcfg: bad IPv4 address %q", s)
	}
	var a Addr
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("netcfg: bad IPv4 address %q", s)
		}
		a = a<<8 | Addr(n)
	}
	return a, nil
}

// MustAddr is ParseAddr that panics, for literals in tests and generators.
func MustAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Prefix is an IPv4 CIDR prefix. The zero value is 0.0.0.0/0.
type Prefix struct {
	Addr Addr
	Len  uint8
}

// ParsePrefix parses "a.b.c.d/len". The address is masked to the prefix
// length so equal prefixes compare equal.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netcfg: prefix %q missing /len", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.Atoi(s[slash+1:])
	if err != nil || n < 0 || n > 32 {
		return Prefix{}, fmt.Errorf("netcfg: bad prefix length in %q", s)
	}
	p := Prefix{Addr: a, Len: uint8(n)}
	p.Addr &= p.Mask()
	return p, nil
}

// MustPrefix is ParsePrefix that panics, for literals.
func MustPrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the netmask as an address.
func (p Prefix) Mask() Addr {
	if p.Len == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - p.Len))
}

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a Addr) bool { return a&p.Mask() == p.Addr }

// ContainsPrefix reports whether q is fully inside p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Len >= p.Len && p.Contains(q.Addr)
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Len) }

// IsDefault reports whether p is 0.0.0.0/0.
func (p Prefix) IsDefault() bool { return p == Prefix{} }

// AppendRangeBlocks appends the maximal aligned blocks of the width-bit
// values [lo, hi] to out, ascending, as prefixes left-aligned in 32
// bits (a block of 2^k values has length width-k); lo > hi appends none.
func AppendRangeBlocks(out []Prefix, lo, hi uint32, width int) []Prefix {
	for v, end := uint64(lo), uint64(hi)+1; v < end; {
		// The largest block that v's alignment allows and the range holds.
		k := min(bits.TrailingZeros64(v), bits.Len64(end-v)-1)
		out = append(out, Prefix{Addr: Addr(v << (32 - width)), Len: uint8(width - k)})
		v += 1 << k
	}
	return out
}

// InterfaceAddr is an address with its subnet length, e.g. 10.0.0.1/24 on
// an interface (the host bits are preserved, unlike Prefix).
type InterfaceAddr struct {
	Addr Addr
	Len  uint8
}

// ParseInterfaceAddr parses "a.b.c.d/len" keeping host bits.
func ParseInterfaceAddr(s string) (InterfaceAddr, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return InterfaceAddr{}, fmt.Errorf("netcfg: interface address %q missing /len", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return InterfaceAddr{}, err
	}
	n, err := strconv.Atoi(s[slash+1:])
	if err != nil || n < 0 || n > 32 {
		return InterfaceAddr{}, fmt.Errorf("netcfg: bad prefix length in %q", s)
	}
	return InterfaceAddr{Addr: a, Len: uint8(n)}, nil
}

// MustInterfaceAddr is ParseInterfaceAddr that panics, for literals.
func MustInterfaceAddr(s string) InterfaceAddr {
	ia, err := ParseInterfaceAddr(s)
	if err != nil {
		panic(err)
	}
	return ia
}

// Prefix returns the subnet the interface address belongs to.
func (ia InterfaceAddr) Prefix() Prefix {
	p := Prefix{Addr: ia.Addr, Len: ia.Len}
	p.Addr &= p.Mask()
	return p
}

// IsZero reports whether the address is unset.
func (ia InterfaceAddr) IsZero() bool { return ia == InterfaceAddr{} }

func (ia InterfaceAddr) String() string { return fmt.Sprintf("%s/%d", ia.Addr, ia.Len) }
