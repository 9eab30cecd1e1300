package policy

import (
	"fmt"
	"strings"
	"testing"

	"realconfig/internal/obs"
)

// TestRecheckSecondsSeries runs one instrumented link-flap Update and
// requires a realconfig_policy_recheck_seconds series per policy kind,
// each counting that kind's rechecks, the counts summing to the
// Update's PoliciesChecked.
func TestRecheckSecondsSeries(t *testing.T) {
	f := newFlapNet(t, 4)
	reg := obs.NewRegistry()
	f.c.Instrument(reg)
	res := f.update(t, f.flapTo(t, true))

	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	total := uint64(0)
	for _, kind := range policyKinds {
		n := f.c.metrics.RecheckSeconds[kind].Count()
		if n == 0 {
			t.Errorf("kind %s: no rechecks timed; the flap rechecks every kind", kind)
		}
		total += n
		if series := fmt.Sprintf("realconfig_policy_recheck_seconds_count{kind=%q} %d\n", kind, n); !strings.Contains(text.String(), series) {
			t.Errorf("scrape lacks %q", series)
		}
	}
	if total != uint64(res.PoliciesChecked) {
		t.Errorf("recheck histograms count %d evaluations, Update checked %d", total, res.PoliciesChecked)
	}
}
