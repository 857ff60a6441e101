package pdp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/bundle"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/declog"
	"github.com/aware-home/grbac/internal/faults"
	"github.com/aware-home/grbac/internal/obs"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/store"
)

// maxBodyBytes bounds request bodies; decision requests are small.
const maxBodyBytes = 1 << 20

// maxBatchSize bounds one /v1/decide/batch call; larger workloads split
// into several round trips rather than holding one snapshot response open.
const maxBatchSize = 512

// Server serves the PDP API for one GRBAC system. It implements
// http.Handler and can be mounted under any mux.
type Server struct {
	sys          *core.System
	trail        *audit.Logger
	logger       *log.Logger
	mux          *http.ServeMux
	adminEnabled bool
	replicaSrc   *replica.Source
	follower     *replica.Puller
	durable      *store.Durable
	bundles      *bundle.Verifier
	declog       *declog.Exporter
	limiter      *limiter
	owners       ownership
	recovered    atomic.Uint64
	metrics      *obs.Registry
	httpDur      *obs.HistogramVec
	httpReqs     *obs.CounterVec
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithAuditLogger wires decisions through an audit trail and exposes it at
// GET /v1/audit. The decision handlers log each successful decision
// themselves (rather than through audit.Wrap) so the record carries the
// request's correlation ID, route, staleness and stage timings, and can be
// joined to the wire reply.
func WithAuditLogger(l *audit.Logger) ServerOption {
	return func(s *Server) { s.trail = l }
}

// WithDecisionLog surfaces a decision-log exporter's counters in the
// "declog" section of /v1/statsz and, when metrics are on, as
// grbac_declog_* series. The exporter is fed off the audit logger's
// export hook (wired where both are constructed), not here: the server
// only observes it, so the decision hot path gains nothing.
func WithDecisionLog(e *declog.Exporter) ServerOption {
	return func(s *Server) { s.declog = e }
}

// WithErrorLog sets the server's error logger (default: log.Default()).
func WithErrorLog(l *log.Logger) ServerOption {
	return func(s *Server) { s.logger = l }
}

// NewServer builds a PDP server over the given system.
func NewServer(sys *core.System, opts ...ServerOption) *Server {
	s := &Server{sys: sys, logger: log.Default()}
	for _, opt := range opts {
		opt(s)
	}
	if s.metrics != nil {
		s.registerMetrics()
	}
	mux := newMux()
	post, get := http.MethodPost, http.MethodGet
	handle(mux, decidePath, s.instrument(decidePath, s.limited(s.handleDecision(decidePath))), post)
	handle(mux, batchPath, s.instrument(batchPath, s.limited(s.handleDecideBatch)), post)
	handle(mux, checkPath, s.instrument(checkPath, s.limited(s.handleDecision(checkPath))), post)
	handle(mux, "/v1/state", s.instrument("/v1/state", s.handleState), get)
	handle(mux, "/v1/healthz", s.instrument("/v1/healthz", s.handleHealthz), get)
	handle(mux, "/v1/statsz", s.instrument("/v1/statsz", s.handleStatsz), get)
	if s.metrics != nil {
		handle(mux, "/metrics", metricsHandler(s.metrics, s.logger), get)
	}
	if s.trail != nil {
		handle(mux, "/v1/audit", s.handleAudit, get)
	}
	if s.bundles != nil {
		handle(mux, BundlePath, s.handleBundlePush, post)
		handle(mux, BundleStatusPath, bundleStatus(s.bundles), get)
	}
	if s.follower != nil || s.adminEnabled {
		// A follower never serves local mutations or review queries,
		// whatever the admin setting: it redirects them to the cluster's
		// single writer.
		s.registerAdmin(mux)
	}
	if s.replicaSrc != nil {
		handle(mux, replica.SnapshotPath, s.handleReplicaSnapshot, get)
		handle(mux, replica.WatchPath, s.replicaSrc.WatchHandler(), get)
		handle(mux, replica.DeltaPath, s.handleReplicaDelta, get)
	}
	s.mux = mux
	return s
}

var _ http.Handler = (*Server)(nil)

// ServeHTTP dispatches to the API mux behind the panic-recovery
// middleware: a crashing handler is contained, counted, and answered
// with a 500 rather than tearing the connection (or the process) down.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tw := &trackingWriter{ResponseWriter: w}
	defer s.recoverPanic(tw, r)
	s.mux.ServeHTTP(tw, r)
}

// limited wraps a decision handler with admission control and the
// pdp.decide fault point. With no limiter configured only the fault hook
// remains (one atomic load when injection is off).
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.limiter != nil {
			release, status := s.limiter.acquire(r.Context())
			if release == nil {
				w.Header().Set("Retry-After", s.limiter.retryAfter)
				s.writeStatus(w, status, "overloaded: decision capacity exhausted, retry later")
				return
			}
			defer release()
		}
		// Inside the admission slot, so injected latency occupies real
		// capacity and drives the shedding path under test.
		if err := faults.Inject(faults.PDPDecide); err != nil {
			s.writeStatus(w, http.StatusInternalServerError, "fault injected: "+err.Error())
			return
		}
		h(w, r)
	}
}

// The decision routes, as served and as stamped on their audit records.
const (
	decidePath = "/v1/decide"
	checkPath  = "/v1/check"
	batchPath  = "/v1/decide/batch"
)

// logDecision records one served decision, when the server keeps a trail.
func (s *Server) logDecision(req core.Request, d core.Decision, sv *audit.Served) {
	if s.trail != nil {
		s.trail.LogServed(req, d, *sv)
	}
}

// handleDecision serves one decision on route, /v1/decide or /v1/check:
// the two read, mediate and audit alike and differ only in the reply, the
// full decision or just its allowed bit.
func (s *Server) handleDecision(route string) http.HandlerFunc {
	check := route == checkPath
	return func(w http.ResponseWriter, r *http.Request) {
		sv := audit.Served{CorrelationID: correlate(w, r), Route: route}
		t := time.Now()
		buf := getBuf()
		defer putBuf(buf)
		req, ok := readDecideRequest(w, r, buf, true)
		sv.Decode = time.Since(t)
		if !ok {
			return
		}
		coreReq := req.toCore()
		t = time.Now()
		d, err := s.sys.Decide(coreReq)
		sv.Mediate = time.Since(t)
		if err != nil {
			if !s.forward(w, r, req.Subject, req.Session, req) {
				s.writeError(w, err)
			}
			return
		}
		sv.Stale = s.stale()
		s.logDecision(coreReq, d, &sv)
		var out []byte
		if check {
			resp := CheckResponse{Allowed: d.Allowed, Stale: sv.Stale, CorrelationID: sv.CorrelationID}
			out = appendCheckResponse((*buf)[:0], &resp)
		} else {
			resp := fromDecision(d)
			resp.Stale = sv.Stale
			resp.CorrelationID = sv.CorrelationID
			out, err = appendDecideResponse((*buf)[:0], &resp)
		}
		*buf = out
		s.writeEncoded(w, out, err)
	}
}

func (s *Server) handleDecideBatch(w http.ResponseWriter, r *http.Request) {
	sv := audit.Served{CorrelationID: correlate(w, r), Route: batchPath}
	t := time.Now()
	var req BatchDecideRequest
	ok := readJSON(w, r, &req, true)
	sv.Decode = time.Since(t)
	if !ok {
		return
	}
	if len(req.Requests) == 0 {
		s.writeStatus(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Requests) > maxBatchSize {
		s.writeStatus(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Requests), maxBatchSize))
		return
	}
	coreReqs := make([]core.Request, len(req.Requests))
	for i, dr := range req.Requests {
		coreReqs[i] = dr.toCore()
	}
	t = time.Now()
	results := s.sys.DecideBatch(coreReqs)
	sv.Mediate = time.Since(t)
	sv.Stale = s.stale()
	resp := BatchDecideResponse{
		Results:       make([]BatchItem, len(results)),
		Stale:         sv.Stale,
		CorrelationID: sv.CorrelationID,
	}
	for i, res := range results {
		if res.Err != nil {
			resp.Results[i].Error = res.Err.Error()
			continue
		}
		s.logDecision(coreReqs[i], res.Decision, &sv)
		d := fromDecision(res.Decision)
		resp.Results[i].Decision = &d
	}
	// Items that failed for a subject this shard does not hold are
	// mediated, and audited, by their owners.
	s.forwardBatch(r, sv.CorrelationID, req.Requests, resp.Results)
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.sys.Export())
}

// handleHealthz is the liveness probe. A follower past its staleness
// bound degrades to 503 so load balancers can shed it, while every
// decision endpoint keeps serving (marked stale) — graceful degradation,
// never an outage.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.stale() {
		st := s.follower.Stats()
		s.writeJSON(w, http.StatusServiceUnavailable, HealthResponse{
			Status:      "degraded",
			Reason:      "replication stale: no primary contact within the staleness bound",
			Replication: &st,
		})
		return
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// handleStatsz reports the decision-cache counters (hits, misses,
// evictions, invalidations, generation) — the PDP's observability hook
// for cache effectiveness — plus replication lag when following.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	srv := s.serverStats()
	resp := StatszResponse{Stats: s.sys.Stats(), Server: &srv}
	if s.follower != nil {
		st := s.follower.Stats()
		resp.Replication = &st
	}
	if s.durable != nil {
		ds := s.durable.Stats()
		resp.Store = &ds
	}
	if s.trail != nil {
		as := s.trail.Summary()
		resp.Audit = &as
	}
	if s.declog != nil {
		dl := s.declog.Stats()
		resp.Declog = &dl
	}
	if s.bundles != nil {
		bs := s.bundles.Status()
		resp.Bundle = &bs
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleAudit serves the decision trail, oldest first:
// GET /v1/audit?subject=&object=&transaction=&correlation_id=&denies=true&since=&until=&limit=N.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := audit.Filter{
		Subject:       core.SubjectID(q.Get("subject")),
		Object:        core.ObjectID(q.Get("object")),
		Transaction:   core.TransactionID(q.Get("transaction")),
		CorrelationID: q.Get("correlation_id"),
		DeniesOnly:    q.Get("denies") == "true",
	}
	for _, bound := range []struct {
		param string
		dst   *time.Time
	}{
		{"since", &f.Since},
		{"until", &f.Until},
	} {
		if raw := q.Get(bound.param); raw != "" {
			ts, err := time.Parse(time.RFC3339, raw)
			if err != nil {
				s.writeStatus(w, http.StatusBadRequest, "bad "+bound.param+": want RFC3339")
				return
			}
			*bound.dst = ts
		}
	}
	if lim := q.Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			s.writeStatus(w, http.StatusBadRequest, "bad limit")
			return
		}
		f.Limit = n
	}
	s.writeJSON(w, http.StatusOK, s.trail.Query(f))
}

// newMux is the mux of the shard server, the router and the rebalance
// handler: a path none of them routes gets a JSON 404.
func newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no route " + r.URL.Path})
	})
	return mux
}

// handle mounts h at path for the given methods only, as net/http method
// patterns ("POST /v1/decide"; a GET route answers HEAD too), and the bare
// path as the JSON 405 that names them in its Allow header. Every route of
// the shard server, the router and the rebalance handler is mounted here,
// so no handler checks its method.
func handle(mux *http.ServeMux, path string, h http.HandlerFunc, methods ...string) {
	allow := strings.Join(methods, ", ")
	for _, m := range methods {
		mux.HandleFunc(m+" "+path, h)
		if m == http.MethodGet {
			allow += ", " + http.MethodHead
		}
	}
	refusal := ErrorResponse{Error: strings.Join(methods, " or ") + " only"}
	mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Allow", allow)
		writeJSON(w, http.StatusMethodNotAllowed, refusal)
	})
}

// readJSON decodes r's body, bounded by maxBodyBytes and drained, into
// out, and answers 400 when it is malformed. A shard reads strictly,
// refusing unknown fields; the router has always ignored them.
func readJSON(w http.ResponseWriter, r *http.Request, out any, strict bool) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer func() {
		_, _ = io.Copy(io.Discard, body)
	}()
	dec := json.NewDecoder(body)
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(out); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "malformed request: " + err.Error()})
		return false
	}
	return true
}

// readDecideRequest reads a decide or check body into buf and decodes it,
// as strictly as readJSON is told to.
func readDecideRequest(w http.ResponseWriter, r *http.Request, buf *[]byte, strict bool) (DecideRequest, bool) {
	var req DecideRequest
	if err := readDecide(w, r, buf, &req, strict); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "malformed request: " + err.Error()})
		return req, false
	}
	return req, true
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, core.ErrNotFound) || errors.Is(err, core.ErrNoSession) {
		status = http.StatusNotFound
	}
	s.writeStatus(w, status, err.Error())
}

func (s *Server) writeStatus(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, ErrorResponse{Error: msg})
}

// writeEncoded sends a 200 reply a codec encoder produced, logging an
// encode error as writeJSON does.
func (s *Server) writeEncoded(w http.ResponseWriter, b []byte, err error) {
	writeEncoded(w, b, err)
	if err != nil {
		s.logger.Printf("pdp: encode response: %v", err)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logger.Printf("pdp: encode response: %v", err)
	}
}
