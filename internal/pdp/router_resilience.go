package pdp

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/aware-home/grbac/internal/retry"
	"github.com/aware-home/grbac/internal/shard"
)

// Router resilience: background health probes feeding a per-shard
// suspect/down state machine, one bounded retry on idempotent reads,
// and optional request hedging on scatter paths after a latency
// quantile. All three are opt-in knobs on an otherwise unchanged hot
// path — with hedging off, the fan-out path pays one nil check.

// WithHealthProbes starts a background prober that checks every shard's
// /v1/healthz each interval, driving the suspect/down state machine and
// the grbac_shard_health gauge. /v1/healthz on the router then answers
// from probe state instead of probing inline. Stop with Router.Close.
func WithHealthProbes(interval time.Duration) RouterOption {
	return func(rt *Router) {
		if interval > 0 {
			rt.probeEvery = interval
		}
	}
}

// WithHedgedScatter turns on request hedging for scatter-gather reads:
// when a shard's call outlives its recent latency at quantile q (e.g.
// 0.95), the router launches one duplicate request and takes the first
// answer. Caps tail latency from a slow-but-alive shard at the cost of
// bounded duplicate read load.
func WithHedgedScatter(q float64) RouterOption {
	return func(rt *Router) {
		if q > 0 && q < 1 {
			rt.hedge = newHedger(q)
		}
	}
}

// WithReadRetryBackoff sets the base delay before the single retry of a
// failed idempotent read (jittered to 0.5x–1.5x; d <= 0 keeps the
// default).
func WithReadRetryBackoff(d time.Duration) RouterOption {
	return func(rt *Router) {
		if d > 0 {
			rt.retryBackoff = d
		}
	}
}

// retryRead runs one idempotent read with a single bounded retry: a
// transient failure (transport error, 5xx, 429) is retried once after a
// jittered backoff, anything else — including the caller's own deadline
// expiring — returns immediately. Reused across single-shard forwards
// and scatter fan-outs.
func retryRead[T any](rt *Router, ctx context.Context, shardID string, fn func(context.Context) (T, error)) (T, error) {
	v, err := fn(ctx)
	if err == nil || !transient(err) || ctx.Err() != nil {
		return v, err
	}
	rt.metrics.retry(shardID)
	t := time.NewTimer(retry.Jitter(rt.retryBackoff))
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
		return v, err
	}
	return fn(ctx)
}

// healthState is one shard's probed liveness.
type healthState int

const (
	healthOK      healthState = iota // last probe succeeded
	healthSuspect                    // 1..2 consecutive failures
	healthDown                       // >= downAfterFails consecutive failures
)

// downAfterFails is how many consecutive probe failures demote a shard
// from suspect to down. One blip marks suspect; only a sustained outage
// marks down.
const downAfterFails = 3

func (s healthState) String() string {
	switch s {
	case healthSuspect:
		return "suspect"
	case healthDown:
		return "unreachable"
	default:
		return "ok"
	}
}

// gaugeValue encodes the state for the grbac_shard_health gauge.
func (s healthState) gaugeValue() float64 {
	switch s {
	case healthSuspect:
		return 0.5
	case healthDown:
		return 0
	default:
		return 1
	}
}

// healthTracker holds the per-shard probe state machine. It survives
// map swaps for shards that remain, so a rebalance does not reset an
// ongoing outage's failure count.
type healthTracker struct {
	mu      sync.Mutex
	entries map[string]*healthEntry
}

type healthEntry struct {
	state healthState
	fails int
}

func newHealthTracker() *healthTracker {
	return &healthTracker{entries: make(map[string]*healthEntry)}
}

// observe folds one probe result into the state machine and returns the
// resulting state: success resets to ok, failures escalate suspect →
// down.
func (t *healthTracker) observe(id string, ok bool) healthState {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[id]
	if e == nil {
		e = &healthEntry{}
		t.entries[id] = e
	}
	if ok {
		e.state, e.fails = healthOK, 0
	} else {
		e.fails++
		if e.fails >= downAfterFails {
			e.state = healthDown
		} else {
			e.state = healthSuspect
		}
	}
	return e.state
}

// stateOf returns the last probed state (ok when never probed).
func (t *healthTracker) stateOf(id string) healthState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entries[id]; e != nil {
		return e.state
	}
	return healthOK
}

// prune drops state for shards no longer in the map.
func (t *healthTracker) prune(m *shard.Map) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range t.entries {
		if _, ok := m.Get(id); !ok {
			delete(t.entries, id)
		}
	}
}

// prober is the background probe loop started when WithHealthProbes is
// set; it runs until Router.Close.
func (rt *Router) prober() {
	tick := time.NewTicker(rt.probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			rt.probeOnce()
		}
	}
}

// probeOnce checks every shard in the current view concurrently under
// the fan-out bound and folds the results into the state machine and
// the health gauge.
func (rt *Router) probeOnce() {
	v := rt.view.Load()
	var wg sync.WaitGroup
	sem := make(chan struct{}, rt.fanout)
	for _, s := range v.m.Shards() {
		wg.Add(1)
		go func(s shard.Info) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c, ok := v.client(s.ID)
			alive := false
			if ok {
				ctx, cancel := context.WithTimeout(context.Background(), rt.timeout)
				alive = c.Healthy(ctx)
				cancel()
			}
			state := rt.health.observe(s.ID, alive)
			rt.metrics.setHealth(s.ID, state.gaugeValue())
		}(s)
	}
	wg.Wait()
}

// hedger decides when a scatter call has run long enough to launch a
// duplicate: it keeps a small ring of recent per-shard latencies and
// hedges once a call outlives the configured quantile of that ring.
type hedger struct {
	quantile float64
	minDelay time.Duration
	mu       sync.Mutex
	rings    map[string]*latencyRing
}

// hedgeMinSamples is how many latency observations a shard needs before
// hedging kicks in — with fewer, the quantile is noise.
const hedgeMinSamples = 8

func newHedger(q float64) *hedger {
	return &hedger{
		quantile: q,
		minDelay: time.Millisecond,
		rings:    make(map[string]*latencyRing),
	}
}

func (h *hedger) ring(id string) *latencyRing {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.rings[id]
	if r == nil {
		r = &latencyRing{}
		h.rings[id] = r
	}
	return r
}

func (h *hedger) observe(id string, d time.Duration) {
	h.ring(id).observe(d)
}

// delay returns how long to wait before hedging a call to the shard,
// clamped to [minDelay, max]. ok is false while the shard lacks enough
// samples.
func (h *hedger) delay(id string, max time.Duration) (time.Duration, bool) {
	d, ok := h.ring(id).quantile(h.quantile)
	if !ok {
		return 0, false
	}
	if d < h.minDelay {
		d = h.minDelay
	}
	if max > 0 && d > max {
		d = max
	}
	return d, true
}

// latencyRing is a fixed-size ring of recent call latencies.
type latencyRing struct {
	mu      sync.Mutex
	samples [64]time.Duration
	n       int // total observed, saturating at len(samples)
	idx     int
}

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[r.idx] = d
	r.idx = (r.idx + 1) % len(r.samples)
	if r.n < len(r.samples) {
		r.n++
	}
}

// quantile returns the q-quantile of the ring's contents; ok is false
// below hedgeMinSamples observations.
func (r *latencyRing) quantile(q float64) (time.Duration, bool) {
	r.mu.Lock()
	n := r.n
	if n < hedgeMinSamples {
		r.mu.Unlock()
		return 0, false
	}
	buf := make([]time.Duration, n)
	copy(buf, r.samples[:n])
	r.mu.Unlock()
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	i := int(float64(n-1) * q)
	return buf[i], true
}

// hedgedFetch runs one scatter call with optional hedging. With hedging
// off (the default) it is a single nil check around fn — the disabled
// path must stay allocation-free (TestGuardDisabledHedgeHook pins it).
// With hedging on, a call that outlives the shard's latency quantile gets
// one duplicate in flight; the first success wins and the loser's result
// is dropped into the buffered channel, so no goroutine leaks past its
// context.
func hedgedFetch[T any](rt *Router, ctx context.Context, shardID string, fn func(context.Context) (T, error)) (T, error) {
	h := rt.hedge
	if h == nil {
		return fn(ctx)
	}
	start := time.Now()
	delay, ok := h.delay(shardID, rt.timeout/2)
	if !ok {
		v, err := fn(ctx)
		if err == nil {
			h.observe(shardID, time.Since(start))
		}
		return v, err
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 2)
	launch := func() {
		go func() {
			t0 := time.Now()
			v, err := fn(ctx)
			if err == nil {
				h.observe(shardID, time.Since(t0))
			}
			ch <- result{v, err}
		}()
	}
	launch()
	launched := 1
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var firstErr error
	got := 0
	for {
		select {
		case res := <-ch:
			got++
			if res.err == nil {
				return res.v, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if got == launched {
				var zero T
				return zero, firstErr
			}
		case <-timer.C:
			if launched == 1 {
				rt.metrics.hedged(shardID)
				launch()
				launched = 2
			}
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}
