package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("grbac_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.NewGauge("grbac_test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	// Get-or-create: same name returns the same instrument.
	if r.NewCounter("grbac_test_total", "a counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("grbac_test_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-106.05) > 1e-9 {
		t.Fatalf("sum = %v, want 106.05", h.Sum())
	}
	// Median falls in the (0.1, 1] bucket.
	if q := h.Quantile(0.5); q <= 0.1 || q > 1 {
		t.Fatalf("p50 = %v, want in (0.1, 1]", q)
	}
	// The +Inf bucket is approximated by the top finite bound.
	if q := h.Quantile(0.99); q != 10 {
		t.Fatalf("p99 = %v, want 10", q)
	}
	var empty *Histogram
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatal("nil histogram quantile must be NaN")
	}
}

func TestWritePrometheusRoundTrips(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("grbac_demo_total", "demo counter")
	c.Add(7)
	r.NewGaugeFunc("grbac_demo_gauge", "func gauge", func() float64 { return 2.25 })
	h := r.NewHistogram("grbac_demo_seconds", "demo latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(50)
	v := r.NewCounterVec("grbac_demo_routes_total", "per route", "route")
	v.With("/v1/decide").Add(3)
	v.With("/v1/check").Inc()
	hv := r.NewHistogramVec("grbac_demo_route_seconds", "per-route latency", []float64{1}, "route")
	hv.With("/v1/decide").Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE grbac_demo_total counter",
		"grbac_demo_total 7",
		"grbac_demo_gauge 2.25",
		"# TYPE grbac_demo_seconds histogram",
		`grbac_demo_seconds_bucket{le="0.1"} 1`,
		`grbac_demo_seconds_bucket{le="1"} 2`,
		`grbac_demo_seconds_bucket{le="+Inf"} 3`,
		"grbac_demo_seconds_count 3",
		`grbac_demo_routes_total{route="/v1/decide"} 3`,
		`grbac_demo_routes_total{route="/v1/check"} 1`,
		`grbac_demo_route_seconds_bucket{route="/v1/decide",le="1"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText on own output: %v", err)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		key := s.Name
		if route := s.Label("route"); route != "" {
			key += "|" + route
		}
		if le := s.Label("le"); le != "" {
			key += "|le=" + le
		}
		byKey[key] = s.Value
	}
	if byKey["grbac_demo_total"] != 7 {
		t.Fatalf("parsed counter = %v, want 7", byKey["grbac_demo_total"])
	}
	if byKey["grbac_demo_seconds_bucket|le=+Inf"] != 3 {
		t.Fatalf("parsed +Inf bucket = %v, want 3", byKey["grbac_demo_seconds_bucket|le=+Inf"])
	}
	if byKey["grbac_demo_routes_total|/v1/decide"] != 3 {
		t.Fatalf("parsed vec child = %v, want 3", byKey["grbac_demo_routes_total|/v1/decide"])
	}
}

func TestParseTextEscapes(t *testing.T) {
	in := "m{path=\"a\\\"b\\\\c\\nd\"} 1\n"
	samples, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[0].Label("path"); got != "a\"b\\c\nd" {
		t.Fatalf("unescaped label = %q", got)
	}
	// And our writer escapes the same way.
	r := NewRegistry()
	r.NewCounterVec("grbac_esc_total", "", "path").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText on escaped output: %v\n%s", err, b.String())
	}
	if got := back[0].Label("path"); got != "a\"b\\c\nd" {
		t.Fatalf("round-tripped label = %q", got)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("grbac_conc_total", "")
	h := r.NewHistogram("grbac_conc_seconds", "", nil)
	v := r.NewCounterVec("grbac_conc_vec_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 1000)
				v.With("a").Inc()
				if j%100 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if v.With("a").Value() != 8000 {
		t.Fatalf("vec child = %d, want 8000", v.With("a").Value())
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("grbac_conflict", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type conflict")
		}
	}()
	r.NewGauge("grbac_conflict", "")
}
