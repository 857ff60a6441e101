package obs

import (
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/guardtest"
)

// TestGuardDisabledObsHook is guard 8: the cost instrumented hot paths pay
// when observability is off. Every obs instrument is nil-safe, so one op —
// a nil-counter Inc and a nil-histogram ObserveSince, the two hooks a
// disabled hot path pays per decision — must allocate nothing and cost at
// most 100 ns combined: compiling the hooks into the warm CheckAccess and
// PDP handler paths is ~free when nothing is scraping. Run with -v for the
// ns/op.
func TestGuardDisabledObsHook(t *testing.T) {
	var (
		c *Counter
		h *Histogram
	)
	start := time.Now()
	guardtest.ZeroCost(t, 100, func() {
		c.Inc()
		h.ObserveSince(start)
	})
}

// BenchmarkEnabledCounter is the enabled-path cost for one counter
// increment (an atomic add), for the EXPERIMENTS.md E19 overhead table.
func BenchmarkEnabledCounter(b *testing.B) {
	r := NewRegistry()
	c := r.NewCounter("grbac_bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkEnabledHistogramObserve is the enabled-path cost for one
// latency observation (bucket scan + two atomic adds + CAS sum).
func BenchmarkEnabledHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("grbac_bench_seconds", "", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0003)
	}
}
