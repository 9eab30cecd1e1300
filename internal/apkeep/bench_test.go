package apkeep

import (
	"fmt"
	"testing"

	"realconfig/internal/bdd"
	"realconfig/internal/dataplane"
	"realconfig/internal/dd"
	"realconfig/internal/netcfg"
)

// fibBatch builds a synthetic FIB: nDev devices each holding a rule for
// nPfx /24 prefixes.
func fibBatch(nDev, nPfx int) []dd.Entry[dataplane.Rule] {
	var out []dd.Entry[dataplane.Rule]
	for d := 0; d < nDev; d++ {
		dev := fmt.Sprintf("d%03d", d)
		for p := 0; p < nPfx; p++ {
			out = append(out, dd.Entry[dataplane.Rule]{Val: dataplane.Rule{
				Device:  dev,
				Prefix:  netcfg.Prefix{Addr: netcfg.MustAddr("10.0.0.0") + netcfg.Addr(p)<<8, Len: 24},
				Action:  dataplane.Forward,
				NextHop: fmt.Sprintf("d%03d", (d+1)%nDev), OutIntf: "e0",
			}, Diff: 1})
		}
	}
	return out
}

// BenchmarkModelWarm measures building the EC model from a full FIB
// (40 devices x 100 prefixes).
func BenchmarkModelWarm(b *testing.B) {
	batch := fibBatch(40, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New()
		if _, err := m.ApplyBatch(batch, InsertFirst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelIncrementalUpdate measures a small batch against a warm
// model, per order (the Table 3 T1 measurement at micro scale).
func benchIncrementalUpdate(b *testing.B, order Order) {
	base := fibBatch(40, 100)
	m := New()
	if _, err := m.ApplyBatch(base, InsertFirst); err != nil {
		b.Fatal(err)
	}
	p := netcfg.MustPrefix("10.0.7.0/24")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oldNH := fmt.Sprintf("d%03d", (3+1)%40)
		newNH := "d020"
		if i%2 == 1 {
			oldNH, newNH = newNH, oldNH
		}
		mod := []dd.Entry[dataplane.Rule]{
			{Val: dataplane.Rule{Device: "d003", Prefix: p, Action: dataplane.Forward, NextHop: oldNH, OutIntf: "e0"}, Diff: -1},
			{Val: dataplane.Rule{Device: "d003", Prefix: p, Action: dataplane.Forward, NextHop: newNH, OutIntf: "e0"}, Diff: 1},
		}
		if _, err := m.ApplyBatch(mod, order); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelIncrementalUpdate_InsertFirst(b *testing.B) {
	benchIncrementalUpdate(b, InsertFirst)
}
func BenchmarkModelIncrementalUpdate_DeleteFirst(b *testing.B) {
	benchIncrementalUpdate(b, DeleteFirst)
}

// BenchmarkLookup measures indexed concrete-packet resolution against a
// warm model: the destination interval narrows the EC scan to the
// classes that can hold the packet.
func BenchmarkLookup(b *testing.B) {
	m := New()
	if _, err := m.ApplyBatch(fibBatch(40, 100), InsertFirst); err != nil {
		b.Fatal(err)
	}
	pkt := bdd.Packet{Dst: netcfg.MustAddr("10.0.7.9"), Proto: netcfg.ProtoTCP, DstPort: 80}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup("d003", pkt)
	}
}

// BenchmarkLookupFullScan is the pre-index reference path, kept as the
// baseline the indexed Lookup is measured against.
func BenchmarkLookupFullScan(b *testing.B) {
	m := New()
	if _, err := m.ApplyBatch(fibBatch(40, 100), InsertFirst); err != nil {
		b.Fatal(err)
	}
	pkt := bdd.Packet{Dst: netcfg.MustAddr("10.0.7.9"), Proto: netcfg.ProtoTCP, DstPort: 80}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.refLookup("d003", pkt)
	}
}

// BenchmarkEffectiveTrie measures the shadowing-prefix query on a
// device with a deep nested rule set (trie subtree walk)...
func BenchmarkEffectiveTrie(b *testing.B) {
	benchEffective(b, false)
}

// BenchmarkEffectiveFullScan ...against the linear reference scan.
func BenchmarkEffectiveFullScan(b *testing.B) {
	benchEffective(b, true)
}

func benchEffective(b *testing.B, ref bool) {
	m := New()
	// 512 /24 rules plus a few /28s nested under the queried /24: the
	// trie walks one small subtree, the reference scans all 516.
	batch := fibBatch(1, 512)
	for i := 0; i < 4; i++ {
		batch = append(batch, dd.Entry[dataplane.Rule]{Val: dataplane.Rule{
			Device: "d000",
			Prefix: netcfg.Prefix{Addr: netcfg.MustAddr("10.0.7.0") + netcfg.Addr(i*16), Len: 28},
			Action: dataplane.Forward, NextHop: "d000", OutIntf: "e0",
		}, Diff: 1})
	}
	if _, err := m.ApplyBatch(batch, InsertFirst); err != nil {
		b.Fatal(err)
	}
	ds := &m.devs[m.DevOf("d000")]
	p := netcfg.MustPrefix("10.0.7.0/24") // the shape of a real rule update
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ref {
			m.refEffective(ds, p)
		} else {
			m.effective(ds, p)
		}
	}
}

// BenchmarkECSplit measures the worst case: a filter boundary cutting
// through every EC.
func BenchmarkECSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := New()
		if _, err := m.ApplyBatch(fibBatch(10, 50), InsertFirst); err != nil {
			b.Fatal(err)
		}
		fr := []dd.Entry[dataplane.FilterRule]{
			{Val: dataplane.FilterRule{Device: "d000", Intf: "e0", Dir: dataplane.In, Seq: 10, Action: netcfg.Deny,
				Match: dataplane.Match{Proto: netcfg.ProtoTCP, DstPortLo: 22, DstPortHi: 22}}, Diff: 1},
			{Val: dataplane.FilterRule{Device: "d000", Intf: "e0", Dir: dataplane.In, Seq: 20, Action: netcfg.Permit,
				Match: dataplane.MatchAll}, Diff: 1},
		}
		b.StartTimer()
		m.UpdateFilters(fr)
	}
}
