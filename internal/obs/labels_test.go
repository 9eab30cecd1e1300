package obs

import (
	"strings"
	"testing"
)

// TestWithLabelsView: a labeled view shares families with its root,
// stamps its base labels onto every registration, and renders through
// the root.
func TestWithLabelsView(t *testing.T) {
	root := NewRegistry()
	root.Counter("hits_total", "hits", nil).Add(1)

	acme := root.WithLabels(Labels{"tenant": "acme"})
	acme.Counter("hits_total", "hits", nil).Add(5)
	acme.Gauge("depth", "queue depth", Labels{"queue": "apply"}).Set(3)
	acme.Histogram("lat_seconds", "latency", nil, nil).Observe(0.5)
	acme.GaugeFunc("uptime", "uptime", nil, func() float64 { return 7 })

	snap := root.Snapshot()
	if got := snap["hits_total"]; got != 1 {
		t.Errorf("unlabeled hits_total = %v, want 1", got)
	}
	if got := snap[`hits_total{tenant="acme"}`]; got != 5 {
		t.Errorf("labeled hits_total = %v, want 5", got)
	}
	if got := snap[`depth{queue="apply",tenant="acme"}`]; got != 3 {
		t.Errorf("depth = %v, want 3 (snapshot: %v)", got, snap)
	}
	if got := snap[`uptime{tenant="acme"}`]; got != 7 {
		t.Errorf("uptime = %v, want 7", got)
	}

	// Same (name, merged labels) through the view resolves to the same
	// series as a direct registration on the root.
	direct := root.Counter("hits_total", "hits", Labels{"tenant": "acme"})
	direct.Add(2)
	if got := root.Snapshot()[`hits_total{tenant="acme"}`]; got != 7 {
		t.Errorf("shared series = %v, want 7", got)
	}

	// Rendering the view renders the whole registry, histogram included.
	var b strings.Builder
	if err := acme.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"hits_total 1\n",
		`hits_total{tenant="acme"} 7`,
		`lat_seconds_count{tenant="acme"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Stacked views merge bases; the inner view wins collisions.
	region := acme.WithLabels(Labels{"region": "eu"})
	region.Counter("splits_total", "splits", nil).Inc()
	if got := root.Snapshot()[`splits_total{region="eu",tenant="acme"}`]; got != 1 {
		t.Errorf("stacked view series missing: %v", root.Snapshot())
	}
	override := acme.WithLabels(Labels{"tenant": "globex"})
	override.Counter("hits_total", "hits", nil).Add(9)
	if got := root.Snapshot()[`hits_total{tenant="globex"}`]; got != 9 {
		t.Errorf("override view series missing: %v", root.Snapshot())
	}
}
