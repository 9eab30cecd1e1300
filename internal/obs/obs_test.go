package obs

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "a counter", nil)
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("y", "a gauge", nil)
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestGetOrCreateReturnsSameSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", Labels{"k": "v"})
	b := r.Counter("x_total", "help", Labels{"k": "v"})
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.Counter("x_total", "help", Labels{"k": "w"})
	if a == other {
		t.Fatal("different labels must be distinct series")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "help", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type conflict")
		}
	}()
	r.Gauge("x", "help", nil)
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10}, nil)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	}
	for _, line := range want {
		if !strings.Contains(buf.String(), line) {
			t.Fatalf("exposition missing %q:\n%s", line, buf.String())
		}
	}
}

func TestLabelRenderingAndEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "help", Labels{"b": "2", "a": "1"}).Inc()
	r.Counter("m_total", "help", Labels{"a": `quo"te` + "\n" + `back\slash`}).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `m_total{a="1",b="2"} 1`) {
		t.Fatalf("labels not sorted deterministically:\n%s", out)
	}
	if !strings.Contains(out, `m_total{a="quo\"te\nback\\slash"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
}

// TestExpositionWellFormed checks the scrape output line-by-line: every
// series line belongs to an announced family, sample values parse, and
// HELP/TYPE precede samples.
func TestExpositionWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "counts a", nil).Add(3)
	r.Gauge("b", "gauges b", Labels{"x": "y"}).Set(-2)
	r.GaugeFunc("c", "computed", nil, func() float64 { return 1.5 })
	r.Histogram("d_seconds", "times d", nil, Labels{"stage": StageGenerate}).Observe(0.2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	announced := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			announced[strings.Fields(line)[2]] = true
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && announced[strings.TrimSuffix(name, suf)] {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if !announced[base] {
			t.Fatalf("sample %q has no HELP/TYPE block", line)
		}
		val := line[strings.LastIndex(line, " ")+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("sample %q: bad value %q", line, val)
		}
	}
}

func TestSnapshotExcludesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "h", nil).Add(2)
	r.Gauge("b", "h", nil).Set(9)
	r.GaugeFunc("c", "h", nil, func() float64 { return 3 })
	r.Histogram("d_seconds", "h", nil, nil).Observe(1)
	snap := r.Snapshot()
	if snap["a_total"] != 2 || snap["b"] != 9 || snap["c"] != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	for k := range snap {
		if strings.HasPrefix(k, "d_seconds") {
			t.Fatalf("snapshot must omit histograms, got %q", k)
		}
	}
}

func TestHandlerServesScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits", nil).Inc()
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "hits_total 1") {
		t.Fatalf("scrape body:\n%s", buf.String())
	}
	post, err := ts.Client().Post(ts.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Fatalf("POST status = %d, want 405", post.StatusCode)
	}
}

// TestConcurrentObservations hammers one registry from many goroutines
// while a reader scrapes; meaningful under -race, and the final counts
// must be exact.
func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "h", nil)
	h := r.Histogram("t_seconds", "h", nil, nil)
	g := r.Gauge("g", "h", nil)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%10) / 1000)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %d, want %d", g.Value(), workers*per)
	}
}

func TestStagesVocabulary(t *testing.T) {
	want := []string{"netcfg", "generate", "model_update", "policy_check", "collect", "total"}
	got := Stages()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Stages() = %v, want %v", got, want)
	}
}
