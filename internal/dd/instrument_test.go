package dd

import (
	"strings"
	"testing"

	"realconfig/internal/obs"
	ptrace "realconfig/internal/trace"
)

// TestInstrumentedTracedAdvance runs epochs on an instrumented graph,
// the first with a provenance trace attached and the second detached:
// the counters must add up each epoch's statistics, the traced epoch
// must record the input flush and one span per active node, and the
// detached one must record nothing.
func TestInstrumentedTracedAdvance(t *testing.T) {
	g := NewGraph()
	reg := obs.NewRegistry()
	g.Instrument(reg)
	in := NewInput[KV[int, int]](g)
	if in.Collection().Graph() != g {
		t.Fatal("a collection does not name its graph")
	}
	best := ReduceMin(in.Collection(), func(a, b int) bool { return a < b })
	out := NewOutput(Map(best, func(kv KV[int, int]) int { return kv.V }))

	rec := ptrace.NewRecorder(1)
	a := rec.Begin("apply")
	g.SetTrace(a)
	in.Insert(MkKV(1, 5))
	in.Insert(MkKV(1, 3))
	in.Insert(MkKV(2, 7))
	st := g.MustAdvance()
	expectState(t, out, map[int]Diff{3: 1, 7: 1})
	if got := in.State(); len(got) != 3 || got[MkKV(1, 3)] != 1 {
		t.Errorf("input state = %v", got)
	}
	var inputs, nodes int
	for _, s := range a.Spans {
		switch {
		case s.Track != obs.TrackEngine:
			t.Errorf("span %q on track %q", s.Name, s.Track)
		case s.Name == "inputs":
			inputs++
		case strings.HasPrefix(s.Name, "reduce#"):
			nodes++
		}
	}
	if inputs != 1 || nodes != 1 {
		t.Errorf("traced epoch recorded %d input spans and %d reduce spans, want 1 and 1: %+v", inputs, nodes, a.Spans)
	}

	g.SetTrace(nil)
	spans := len(a.Spans)
	in.Delete(MkKV(1, 3))
	st2 := g.MustAdvance()
	expectState(t, out, map[int]Diff{5: 1, 7: 1})
	if len(a.Spans) != spans {
		t.Errorf("a detached graph recorded %d more spans", len(a.Spans)-spans)
	}
	m := g.metrics
	if m.Epochs.Value() != 2 || m.NodeRuns.Value() != uint64(st.NodeRuns+st2.NodeRuns) ||
		m.Entries.Value() != uint64(st.Entries+st2.Entries) {
		t.Errorf("counters epochs=%d runs=%d entries=%d, epoch stats %+v and %+v",
			m.Epochs.Value(), m.NodeRuns.Value(), m.Entries.Value(), st, st2)
	}
}
