package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"realconfig/internal/netcfg"
	"realconfig/internal/obs"
	"realconfig/internal/topology"
	"realconfig/internal/trace"
)

// diffLag is how many more verifications the walk below runs before it
// reads an untraced report's diff.
const diffLag = 5

// TestLazyDiffEqualsEager drives two verifiers through the seeded walks
// of TestCopyOnWriteEqualsSnapshot: A untraced, whose reports take their
// line diff when Diff is first called, and B traced, whose reports take
// it during the verification. A's diff of each step is read only after
// diffLag more verifications, some of them rejected batches and
// SetNetwork calls; it must equal the DiffNetworks of the networks
// before and after the step, taken at that step, and B's diff of the
// same step. B's config_change events must be recordDiff of that diff,
// and its netcfg span must count its lines and links.
func TestLazyDiffEqualsEager(t *testing.T) {
	for _, mode := range []topology.Mode{topology.BGP, topology.OSPF} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("fattree4-%v/seed=%d", mode, seed), func(t *testing.T) {
				net, err := topology.FatTree(4, mode)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				a := New(Options{})
				b := New(Options{TraceApplies: 4})
				for _, v := range []*Verifier{a, b} {
					if _, err := v.Load(net.Network); err != nil {
						t.Fatal(err)
					}
				}

				type pending struct {
					step int
					rep  *Report
					want *netcfg.NetworkDiff
				}
				var queue []pending
				check := func(p pending) {
					t.Helper()
					if got := p.rep.Diff(); !reflect.DeepEqual(got, p.want) {
						t.Fatalf("step %d: untraced diff read %d verifications later\ngot:  %+v\nwant: %+v", p.step, diffLag, got, p.want)
					}
				}

				pool := cowBatchPool(net)
				applied := make([]bool, len(pool))
				shadow := net.Network.Clone()
				lines := 0
				for step := 0; step < 40; step++ {
					var batch []netcfg.Change
					for k, n := 0, 1+rng.Intn(2); k < n; k++ {
						i := rng.Intn(len(pool))
						if applied[i] {
							batch = append(batch, pool[i][1]...)
						} else {
							batch = append(batch, pool[i][0]...)
						}
						applied[i] = !applied[i]
					}
					prev := shadow.Clone()
					for _, ch := range batch {
						if err := ch.Apply(shadow); err != nil {
							t.Fatalf("step %d %v: %v", step, ch, err)
						}
					}
					want := netcfg.DiffNetworks(prev, shadow)
					lines += want.LineCount()

					var repA *Report
					if step%3 == 2 {
						repA, err = a.SetNetwork(shadow)
					} else {
						repA, err = a.Apply(batch...)
					}
					if err != nil {
						t.Fatalf("step %d %v: %v", step, batch, err)
					}
					repB, err := b.Apply(batch...)
					if err != nil {
						t.Fatalf("step %d %v: %v", step, batch, err)
					}
					if got := repB.Diff(); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: traced diff\ngot:  %+v\nwant: %+v", step, got, want)
					}
					requireDiffRecorded(t, step, b.Recorder().Get(repB.TraceID), want)

					queue = append(queue, pending{step, repA, want})
					if len(queue) > diffLag {
						check(queue[0])
						queue = queue[1:]
					}
					if step%8 == 7 {
						i := rng.Intn(len(pool))
						for applied[i] {
							i = (i + 1) % len(pool)
						}
						requireFailedBatchIsNoOp(t, step, a, pool[i][0][0])
					}
				}
				for _, p := range queue {
					check(p)
				}
				if lines == 0 {
					t.Fatal("the walk changed no config line; it tests nothing")
				}
			})
		}
	}
}

// requireDiffRecorded requires tr's config_change events to be those
// recordDiff makes of want, and its netcfg span to count want's lines
// and links.
func requireDiffRecorded(t *testing.T, step int, tr *trace.Apply, want *netcfg.NetworkDiff) {
	t.Helper()
	if tr == nil {
		t.Fatalf("step %d: no trace recorded", step)
	}
	ref := trace.NewRecorder(1).Begin("ref")
	recordDiff(ref, want)
	var got []trace.Event
	for _, e := range tr.Events {
		if e.Kind == obs.EventConfigChange {
			e.TSUS = 0
			got = append(got, e)
		}
	}
	for i := range ref.Events {
		ref.Events[i].TSUS = 0
	}
	if !reflect.DeepEqual(got, ref.Events) {
		t.Fatalf("step %d: config_change events\ngot:  %+v\nwant: %+v", step, got, ref.Events)
	}
	for _, s := range tr.Spans {
		if s.Track != obs.TrackPipeline || s.Name != obs.StageNetcfg {
			continue
		}
		for key, n := range map[string]int{"lines": want.LineCount(), "links": len(want.Links)} {
			if v, _ := trace.Get(s.Attrs, key); v != strconv.Itoa(n) {
				t.Fatalf("step %d: netcfg span %s = %q, want %d", step, key, v, n)
			}
		}
		return
	}
	t.Fatalf("step %d: no netcfg span", step)
}
