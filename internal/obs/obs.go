// Package obs is the repository's zero-dependency observability layer: a
// Prometheus-text metrics registry (counters, gauges, function-backed
// collectors, and fixed-bucket histograms). The PDP server exposes it at
// GET /metrics; `grbacctl top` renders a scrape. A decision's own record,
// with its correlation ID, route and stage timings, is the audit record
// (internal/audit), not an obs instrument.
//
// Every instrument is nil-safe: calling Inc or Observe on a nil
// pointer is a no-op costing one predictable branch, so instrumented hot
// paths pay ~1ns and zero allocations when observability is disabled —
// the same discipline internal/faults applies to its injection hooks
// (TestGuardDisabledObsHook, guard 8, enforces it).
package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// metricMeta is the identity every instrument carries into the exposition.
type metricMeta struct {
	name        string
	help        string
	labelNames  []string
	labelValues []string
}

// Counter is a monotonically increasing counter.
type Counter struct {
	metricMeta
	v atomic.Uint64
}

// Inc adds one. Safe on a nil counter (no-op).
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. Safe on a nil counter (no-op).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that may go up and down.
type Gauge struct {
	metricMeta
	bits atomic.Uint64
}

// Set stores v. Safe on a nil gauge (no-op).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta. Safe on a nil gauge (no-op).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// funcCollector is a counter or gauge whose value is read at scrape time —
// the cheapest way to export counters a subsystem already maintains
// (System.Stats, Puller.Stats, the limiter's gauges): the hot path is
// untouched and the cost is paid only when /metrics is scraped.
type funcCollector struct {
	metricMeta
	kind string // "counter" or "gauge"
	fn   func() float64
}

// DefLatencyBuckets are the default histogram bounds for request
// latencies, in seconds: 5µs to 2.5s, roughly logarithmic. The upper
// bucket is open (+Inf), so slower outliers are still counted.
var DefLatencyBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Histogram is a fixed-bucket histogram. Buckets are cumulative in the
// exposition, per the Prometheus text format; internally each bucket
// counts only its own interval so Observe is a single atomic add.
type Histogram struct {
	metricMeta
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
	count  atomic.Uint64
}

// Observe records one value. Safe on a nil histogram (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search is overkill for <32 buckets; a linear scan is
	// branch-predictable and allocation-free.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start. Safe on a nil
// histogram (no-op, and time.Since is not even evaluated).
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-th quantile (0 < q < 1) by linear
// interpolation inside the owning bucket, the same estimate a Prometheus
// server computes with histogram_quantile. It returns NaN with no
// observations. The top (+Inf) bucket is approximated by its lower bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count.Load() == 0 {
		return math.NaN()
	}
	rank := q * float64(h.count.Load())
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum)+float64(c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if i == len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			upper := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + (upper-lower)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

func makeCounts(n int) []atomic.Uint64 {
	return make([]atomic.Uint64, n)
}

func validateBuckets(bounds []float64) []float64 {
	if len(bounds) == 0 {
		return DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly ascending at %d: %v", i, bounds))
		}
	}
	return bounds
}
