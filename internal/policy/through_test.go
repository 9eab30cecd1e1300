package policy

import (
	"math/rand"
	"slices"
	"testing"

	"realconfig/internal/apkeep"
)

// followMeets reports whether following next from v, v included, meets
// one of targets: the path ends at -1 or at an id past the graph, and a
// path longer than the graph has closed a cycle.
func followMeets(next []apkeep.DevID, v apkeep.DevID, targets []apkeep.DevID) bool {
	for range len(next) + 1 {
		if slices.Contains(targets, v) {
			return true
		}
		if v < 0 || int(v) >= len(next) {
			return false
		}
		v = next[v]
	}
	return false
}

// TestThroughEqualsPathFollow requires the forward pass to mark exactly
// the devices whose path in one of the graphs meets a target, as
// following each path hop by hop finds. The seeded graphs have ends
// (-1), self-loops and cycles, graphs of different lengths, and targets
// past a graph's length; one scratch serves every case, as in merge.
func TestThroughEqualsPathFollow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var th through
	for i := range 3000 {
		graphs := make([][]apkeep.DevID, 1+rng.Intn(2))
		n := 0
		for g := range graphs {
			next := make([]apkeep.DevID, rng.Intn(12))
			for v := range next {
				switch rng.Intn(5) {
				case 0:
					next[v] = -1
				case 1:
					next[v] = apkeep.DevID(v)
				default:
					next[v] = apkeep.DevID(rng.Intn(len(next)))
				}
			}
			graphs[g] = next
			n = max(n, len(next))
		}
		targets := make([]apkeep.DevID, rng.Intn(4))
		for j := range targets {
			targets[j] = apkeep.DevID(rng.Intn(14))
		}
		got := th.of(targets, graphs...)
		if len(targets) == 0 {
			if got != nil {
				t.Fatalf("case %d: no targets, got %v", i, got)
			}
			continue
		}
		if len(got) != n {
			t.Fatalf("case %d: %d devices marked, graphs hold %d", i, len(got), n)
		}
		for v := range apkeep.DevID(n) {
			want := false
			for _, next := range graphs {
				want = want || followMeets(next, v, targets)
			}
			if got[v] != want {
				t.Fatalf("case %d: device %d meets %v, following its paths %v (targets %v, graphs %v)",
					i, v, got[v], want, targets, graphs)
			}
		}
	}
}
