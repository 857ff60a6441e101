package pdp

import (
	"context"
	"sync"
	"time"

	"github.com/aware-home/grbac/internal/retry"
	"github.com/aware-home/grbac/internal/shard"
)

// Router resilience: one bounded retry on idempotent reads, and opt-in
// background health probes feeding a per-shard suspect/down state
// machine. DESIGN.md's feature ledger records what each one earns.

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
	t := time.NewTimer(retry.Jitter(readRetryBackoff))
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
	sem := make(chan struct{}, routerFanout)
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
