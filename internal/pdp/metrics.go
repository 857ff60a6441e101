package pdp

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/declog"
	"github.com/aware-home/grbac/internal/obs"
)

// CorrelationHeader carries the request correlation ID. A caller may send
// one; otherwise the server generates one. Either way the response echoes
// it and the audit record stores it, so GET /v1/audit?correlation_id=ID
// joins the reply to the decision's record after the fact. It is in
// canonical form, so it can key an http.Header map directly.
const CorrelationHeader = "X-Correlation-Id"

// WithMetrics exports the server's operational state on reg in the
// Prometheus text format at GET /metrics: per-route request latency
// histograms and status counters, the decision-cache and policy-engine
// counters System.Stats already maintains, admission-control gauges, and
// replication health when the server is a follower. Everything except the
// route histograms is a scrape-time read over existing atomics, so the
// decision hot path carries no new instrumentation.
func WithMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.metrics = reg }
}

// registerMetrics populates the registry. Called once from NewServer when
// the server was built WithMetrics.
func (s *Server) registerMetrics() {
	reg := s.metrics
	s.httpDur = reg.NewHistogramVec("grbac_http_request_duration_seconds",
		"PDP request handling time by route.", nil, "route")
	s.httpReqs = reg.NewCounterVec("grbac_http_requests_total",
		"PDP requests by route and status class.", "route", "code")

	// The decision engine's counters are scrape-time reads of the atomics
	// System.Stats keeps anyway — closures, not hot-path instruments.
	stat := func(read func(core.Stats) float64) func() float64 {
		return func() float64 { return read(s.sys.Stats()) }
	}
	reg.NewGaugeFunc("grbac_policy_generation",
		"Monotonic policy version; every mutation bumps it.",
		stat(func(st core.Stats) float64 { return float64(st.Generation) }))
	reg.NewCounterFunc("grbac_decision_cache_hits_total",
		"Decide calls answered from the decision cache.",
		stat(func(st core.Stats) float64 { return float64(st.DecisionHits) }))
	reg.NewCounterFunc("grbac_decision_cache_misses_total",
		"Decide calls that ran the full mediation rule.",
		stat(func(st core.Stats) float64 { return float64(st.DecisionMisses) }))
	reg.NewCounterFunc("grbac_decision_cache_evictions_total",
		"Cached decisions displaced by the capacity bound.",
		stat(func(st core.Stats) float64 { return float64(st.DecisionEvictions) }))
	reg.NewCounterFunc("grbac_policy_invalidations_total",
		"Policy generation bumps (each invalidates all cached decisions).",
		stat(func(st core.Stats) float64 { return float64(st.Invalidations) }))
	reg.NewCounterFunc("grbac_policy_snapshot_compiles_total",
		"Lazy policy-snapshot recompilations after mutations.",
		stat(func(st core.Stats) float64 { return float64(st.SnapshotCompiles) }))
	reg.NewCounterFunc("grbac_fail_safe_denies_total",
		"Decide results annotated as fail-safe denies: denied while the environment source reported expired context.",
		stat(func(st core.Stats) float64 { return float64(st.FailSafeDenies) }))
	reg.NewGaugeFunc("grbac_decision_cache_entries",
		"Decisions currently cached.",
		stat(func(st core.Stats) float64 { return float64(st.DecisionEntries) }))

	reg.NewGaugeFunc("grbac_http_inflight",
		"Decision requests currently admitted.",
		func() float64 { return float64(s.serverStats().InflightNow) })
	reg.NewCounterFunc("grbac_http_shed_total",
		"Decision requests rejected by admission control (429 or 503).",
		func() float64 { return float64(s.serverStats().Shed) })
	reg.NewCounterFunc("grbac_http_recovered_panics_total",
		"Handler panics absorbed by the recovery middleware.",
		func() float64 { return float64(s.serverStats().RecoveredPanics) })
	if s.trail != nil {
		reg.NewCounterFunc("grbac_audit_records_total",
			"Decisions ever offered to the audit trail (retained or not).",
			func() float64 { return float64(s.trail.Seen()) })
		reg.NewCounterFunc("grbac_audit_evicted_total",
			"Audit records evicted by the ring's capacity bound — decisions no longer reconstructible locally.",
			func() float64 { return float64(s.trail.Evicted()) })
		reg.NewGaugeFunc("grbac_audit_retained",
			"Audit records currently held in the ring.",
			func() float64 { return float64(s.trail.Len()) })
	}
	if s.declog != nil {
		declog.RegisterMetrics(reg, s.declog)
	}
	if s.bundles != nil {
		reg.NewGaugeFunc("grbac_bundle_revision",
			"Revision of the last admitted policy bundle (0 before any).",
			func() float64 { return float64(s.bundles.Status().Revision) })
		reg.NewCounterFunc("grbac_bundle_admitted_total",
			"Policy bundles that verified and advanced the revision.",
			func() float64 { return float64(s.bundles.Status().Admitted) })
		reg.NewCounterFunc("grbac_bundle_rejected_total",
			"Policy bundles rejected: unsigned, tampered, or stale.",
			func() float64 { return float64(s.bundles.Status().Rejected) })
	}
	if s.follower != nil {
		s.follower.RegisterMetrics(reg)
	}
}

// instrument wraps a handler with the route's latency histogram and
// status counter. Without metrics the handler is returned untouched, so
// an uninstrumented server serves exactly the old path.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	if s.metrics == nil {
		return h
	}
	// Resolve the child once; the per-request work is one Observe.
	dur := s.httpDur.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		status := http.StatusOK
		if tw, ok := w.(*trackingWriter); ok && tw.status != 0 {
			status = tw.status
		}
		dur.ObserveSince(start)
		s.httpReqs.With(route, statusClass(status)).Inc()
	}
}

func statusClass(code int) string {
	return strconv.Itoa(code/100) + "xx"
}

// correlate resolves the request's correlation ID — the caller's
// CorrelationHeader when present, a fresh random one otherwise — and
// stamps it on the response headers before any body is written.
func correlate(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(CorrelationHeader)
	if id == "" {
		id = newCorrelationID()
	}
	w.Header()[CorrelationHeader] = []string{id}
	return id
}

var corrFallback atomic.Uint64

func newCorrelationID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively impossible; a process-local
		// sequence still yields usable (if guessable) join keys.
		return "seq-" + strconv.FormatUint(corrFallback.Add(1), 16)
	}
	return hex.EncodeToString(b[:])
}

// metricsHandler serves reg at GET /metrics in the Prometheus text
// format, on a shard server and on a router alike.
func metricsHandler(reg *obs.Registry, logger *log.Logger) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			logger.Printf("pdp: write metrics: %v", err)
		}
	}
}

// Metrics scrapes the server's GET /metrics exposition and parses it into
// samples; `grbacctl top` renders them.
func (c *Client) Metrics(ctx context.Context) ([]obs.Sample, error) {
	var samples []obs.Sample
	err := c.do(ctx, http.MethodGet, "/metrics", nil, func(resp *http.Response) (err error) {
		samples, err = obs.ParseText(resp.Body)
		return err
	})
	return samples, err
}
