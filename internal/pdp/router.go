package pdp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aware-home/grbac/internal/bundle"
	"github.com/aware-home/grbac/internal/obs"
	"github.com/aware-home/grbac/internal/retry"
	"github.com/aware-home/grbac/internal/shard"
	"github.com/aware-home/grbac/internal/watch"
)

// Router is the sharded cluster's routing tier: a stateless HTTP front
// that forwards each request to the shard owning its subject (consistent
// hash over the versioned shard map) and scatter-gathers the requests
// that span subjects. It holds no policy and makes no decisions itself —
// every byte of mediation happens on the shards — so routers scale out
// independently and restart freely. The owner rule and the client table
// are the ShardTable's; every scatter below runs on the one bounded
// fanOut.
//
// Routing rules:
//   - Decide/Check/what-can: forwarded to the owner of the request's
//     subject. A request naming only a session goes to the owner of the
//     subject its ID names (core.SessionSubject): a session moves with
//     its subject, so it routes under the current map like one.
//   - DecideBatch: split by owning shard with splitBatch, merged back in
//     request order. A failed shard, or one whose reply has the wrong
//     length, fails only its own items (typed per-item errors), never the
//     batch.
//   - Subject admin (/v1/admin/subjects) and sessions: owner shard;
//     session IDs come back as the shard minted them.
//   - Shared-policy admin (roles, objects, transactions, permissions,
//     sod): broadcast to every shard; any failure reports per-shard
//     typed errors (the shards that applied it stay applied — the
//     caller retries until the broadcast converges).
//   - who-can / subjects-in-role: scatter to every shard with bounded
//     fan-out and per-shard deadlines, union the answers. Strict by
//     default (a down shard fails the query — review answers must not
//     silently omit a partition); ?allow_partial=1 degrades to a 200
//     with the reachable union plus per-shard errors.
//   - /v1/healthz: every shard's own /v1/healthz, asked on each call;
//     the router keeps no liveness state of its own.
//   - Idempotent reads (decides, batches, what-can, the scatter queries)
//     get one bounded, jittered retry on a transient shard failure.
//
// The router publishes its committed map, and a running rebalance's
// pending map, as a feed. Shards follow it and forward a request for a
// subject they do not hold by those maps, so a request routed on an older
// map still gets the owner's answer.
type Router struct {
	mu      sync.Mutex // serializes SetMap and SetPending
	table   atomic.Pointer[ShardTable]
	pending *shard.Map                 // guarded by mu; nil outside a rebalance
	feed    atomic.Pointer[shard.Wire] // the feed's current reply
	maps    watch.Notifier             // publishes the feed's sequence

	mux      *http.ServeMux
	timeout  time.Duration
	logger   *log.Logger
	mkClient func(addr string) *Client

	metrics *routerMetrics
	reg     *obs.Registry
	bundles *bundle.Verifier
}

// DefaultShardTimeout is the per-shard deadline for forwarded calls: a
// slow shard costs one deadline, not an unbounded hang.
const DefaultShardTimeout = 5 * time.Second

// readRetryBackoff is the base backoff before the single retry of an
// idempotent read (jittered to 0.5x–1.5x).
const readRetryBackoff = 25 * time.Millisecond

// ShardMapPath serves the router's shard map, with a running
// rebalance's pending map.
const ShardMapPath = "/v1/shard/map"

// ShardMapWatchPath long-polls the same reply until its sequence
// (shard.Wire.Seq) exceeds ?after: internal/watch's long-poll, which a
// MapFeed follows.
const ShardMapWatchPath = "/v1/shard/map/watch"

// ErrStaleShardMap is returned by SetMap when the candidate map's
// version is not strictly newer than the active map's.
var ErrStaleShardMap = errors.New("pdp: shard map version not newer than active")

// RouterOption configures NewRouter.
type RouterOption func(*Router)

// WithShardTimeout sets the per-shard call deadline (d <= 0 keeps the
// default). Scatter latency is bounded by this, not by the slowest
// unreachable shard's TCP timeout.
func WithShardTimeout(d time.Duration) RouterOption {
	return func(rt *Router) {
		if d > 0 {
			rt.timeout = d
		}
	}
}

// WithRouterLogger sets the router's logger (default log.Default()).
func WithRouterLogger(l *log.Logger) RouterOption {
	return func(rt *Router) { rt.logger = l }
}

// WithRouterMetrics exports grbac_shard_* metrics on reg and mounts
// GET /metrics on the router.
func WithRouterMetrics(reg *obs.Registry) RouterOption {
	return func(rt *Router) { rt.reg = reg }
}

// WithRouterClientFactory overrides how the router builds the per-shard
// client for an address. Tests and bench/ inject clients bound to their
// own servers or transports; grbacd keeps the default pooled client.
func WithRouterClientFactory(mk func(addr string) *Client) RouterOption {
	return func(rt *Router) { rt.mkClient = mk }
}

// routerMetrics is nil-safe: a router without a registry skips counting.
type routerMetrics struct {
	routes  *obs.CounterVec
	errs    *obs.CounterVec
	scatter *obs.Histogram
	retries *obs.CounterVec
}

func (m *routerMetrics) route(shardID string) {
	if m != nil {
		m.routes.With(shardID).Inc()
	}
}

func (m *routerMetrics) err(shardID string) {
	if m != nil {
		m.errs.With(shardID).Inc()
	}
}

func (m *routerMetrics) observeScatter(start time.Time) {
	if m != nil {
		m.scatter.ObserveSince(start)
	}
}

func (m *routerMetrics) retry(shardID string) {
	if m != nil {
		m.retries.With(shardID).Inc()
	}
}

// NewRouter builds a routing tier over the shard map.
func NewRouter(m *shard.Map, opts ...RouterOption) (*Router, error) {
	rt := &Router{
		timeout: DefaultShardTimeout,
		logger:  log.Default(),
	}
	for _, opt := range opts {
		opt(rt)
	}
	if rt.mkClient == nil {
		rt.mkClient = func(addr string) *Client { return NewClient(addr, nil) }
	}
	t, err := NewShardTable(nil, m, rt.mkClient)
	if err != nil {
		return nil, err
	}
	if rt.reg != nil {
		rt.metrics = &routerMetrics{
			routes: rt.reg.NewCounterVec("grbac_shard_route_total",
				"Requests forwarded to a shard.", "shard"),
			errs: rt.reg.NewCounterVec("grbac_shard_errors_total",
				"Forwarded requests that failed at a shard.", "shard"),
			scatter: rt.reg.NewHistogram("grbac_shard_fanout_seconds",
				"Latency of one scatter-gather fan-out across shards.",
				obs.DefLatencyBuckets),
			retries: rt.reg.NewCounterVec("grbac_shard_retry_total",
				"Bounded retries of idempotent reads against a shard.", "shard"),
		}
		rt.reg.NewGaugeFunc("grbac_shard_map_version",
			"Version of the active shard map.",
			func() float64 { return float64(rt.Map().Version()) })
		rt.reg.NewGaugeFunc("grbac_shard_count",
			"Shards in the active map.",
			func() float64 { return float64(rt.Map().Len()) })
	}
	rt.install(t)

	mux := newMux()
	post, del, get := http.MethodPost, http.MethodDelete, http.MethodGet
	handle(mux, "/v1/decide", rt.forwardDecide, post)
	handle(mux, "/v1/check", rt.forwardDecide, post)
	handle(mux, "/v1/decide/batch", rt.handleBatch, post)
	handle(mux, "/v1/sessions", rt.handleSessions, post, del)
	handle(mux, "/v1/sessions/roles", rt.handleSessionRoles, post)
	handle(mux, "/v1/admin/subjects", rt.handleSubjectAdmin, post)
	for _, p := range []string{"/v1/admin/roles", "/v1/admin/permissions"} {
		handle(mux, p, rt.handleBroadcastAdmin, post, del)
	}
	for _, p := range []string{"/v1/admin/objects", "/v1/admin/transactions", "/v1/admin/sod"} {
		handle(mux, p, rt.handleBroadcastAdmin, post)
	}
	handle(mux, "/v1/query/who-can", rt.handleWhoCan, get)
	handle(mux, "/v1/query/subjects-in-role", rt.handleSubjectsInRole, get)
	handle(mux, "/v1/query/what-can", rt.handleWhatCan, get)
	// With no ?after the watch answers at once: the map, and the feed.
	feed := watch.Handler(
		func(ctx context.Context, _ *http.Request, after uint64) uint64 { return rt.maps.Wait(ctx, after) },
		func(uint64) any { return rt.feed.Load() })
	handle(mux, ShardMapPath, feed, get)
	handle(mux, ShardMapWatchPath, feed, get)
	handle(mux, "/v1/healthz", rt.handleHealthz, get)
	handle(mux, "/v1/statsz", rt.handleStatsz, get)
	if rt.bundles != nil {
		handle(mux, BundlePath, rt.handleBundlePush, post)
		handle(mux, BundleStatusPath, bundleStatus(rt.bundles), get)
	}
	if rt.reg != nil {
		handle(mux, "/metrics", metricsHandler(rt.reg, rt.logger), get)
	}
	rt.mux = mux
	return rt, nil
}

// Close releases nothing: the router runs no goroutine of its own. It
// stays for callers that close every tier they build.
func (rt *Router) Close() {}

// install swaps in a routing table, clears a pending map it reaches and
// publishes. Callers must hold rt.mu (or be the constructor, before the
// router is shared).
func (rt *Router) install(t *ShardTable) {
	rt.table.Store(t)
	if rt.pending != nil && rt.pending.Version() <= t.Map().Version() {
		rt.pending = nil
	}
	rt.publish()
}

// publish makes the committed and pending maps the feed's reply and wakes
// every parked map watch. Callers hold rt.mu.
func (rt *Router) publish() {
	w := rt.Map().Wire()
	if rt.pending != nil {
		p := rt.pending.Wire()
		w.Pending = &p
	}
	rt.feed.Store(&w)
	rt.maps.Publish(w.Seq())
}

// SetPending publishes m, a running rebalance's target, beside the
// committed map until a SetMap reaches its version. m must be newer than
// the committed map, and of the published pending map's version if any.
func (rt *Router) SetPending(m *shard.Map) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if cur := rt.Map().Version(); m.Version() <= cur {
		return fmt.Errorf("%w: pending %d, active %d", ErrStaleShardMap, m.Version(), cur)
	}
	if rt.pending != nil && rt.pending.Version() != m.Version() {
		return fmt.Errorf("pdp: pending map v%d already published, refusing v%d", rt.pending.Version(), m.Version())
	}
	rt.pending = m
	rt.publish()
	return nil
}

// SetMap atomically replaces the committed shard map and publishes it.
// Only maps with a strictly higher version are accepted
// (ErrStaleShardMap otherwise), so concurrent updaters cannot roll the
// router back.
func (rt *Router) SetMap(m *shard.Map) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	t, err := NewShardTable(rt.table.Load(), m, rt.mkClient)
	if err != nil {
		return err
	}
	rt.install(t)
	return nil
}

// Map returns the active shard map.
func (rt *Router) Map() *shard.Map { return rt.table.Load().Map() }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// shardCtx derives the bounded per-shard call context.
func (rt *Router) shardCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), rt.timeout)
}

// ShardErrorsResponse is the typed error body for routed and scattered
// requests: the failing shard(s) are named so callers and operators can
// tell a partition outage from a policy error. It decodes as a plain
// ErrorResponse too (the Error field), so existing clients keep working.
type ShardErrorsResponse struct {
	Error string `json:"error"`
	// Partial marks a 200 degraded reply: the result covers only the
	// shards absent from ShardErrors.
	Partial bool `json:"partial,omitempty"`
	// ShardErrors maps shard ID → failure for every shard that failed.
	ShardErrors map[string]string `json:"shard_errors,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// relayShardError maps one failed call to a shard onto the reply, a
// router's or a forwarding shard's: shard-side HTTP statuses pass
// through, transport failures become 502 Bad Gateway.
func relayShardError(w http.ResponseWriter, shardID string, err error) {
	status := http.StatusBadGateway
	msg := err.Error()
	var re *RemoteError
	if errors.As(err, &re) {
		status = re.Status
		if re.Message != "" {
			msg = re.Message
		}
	}
	writeJSON(w, status, ShardErrorsResponse{
		Error:       fmt.Sprintf("shard %s: %s", shardID, msg),
		ShardErrors: map[string]string{shardID: msg},
	})
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

// callShard performs one single-shard call: bounded per-shard deadline
// and one jittered retry when the call is an idempotent read that failed
// transiently. A failure counts against the shard.
func (rt *Router) callShard(r *http.Request, t *ShardTable, sh shard.Info, idempotent bool, call func(context.Context, *Client) error) error {
	c := t.Client(sh.ID)
	rt.metrics.route(sh.ID)
	ctx, cancel := rt.shardCtx(r)
	defer cancel()
	var err error
	if idempotent {
		_, err = retryRead(rt, ctx, sh.ID, func(ctx context.Context) (struct{}, error) {
			return struct{}{}, call(ctx, c)
		})
	} else {
		err = call(ctx, c)
	}
	if err != nil {
		rt.metrics.err(sh.ID)
	}
	return err
}

// forwardDecide serves /v1/decide and /v1/check: it forwards the decision
// to the same path on the subject's shard under the caller's correlation
// ID (minted here when the caller sent none), so the shard's audit, declog
// and trace records and both replies carry it. The request is decoded to
// route it and re-encoded strictly for the shard; the shard's 2xx reply
// goes back byte for byte, never decoded.
func (rt *Router) forwardDecide(w http.ResponseWriter, r *http.Request) {
	corr := correlate(w, r)
	buf := getBuf()
	defer putBuf(buf)
	req, ok := readDecideRequest(w, r, buf, false)
	if !ok {
		return
	}
	t := rt.table.Load()
	sh, err := t.Route(req.Subject, req.Session)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	err = rt.callShard(r, t, sh, true, func(ctx context.Context, c *Client) error {
		return c.decideRaw(withCorrelation(ctx, corr), r.URL.Path, &req, buf)
	})
	if err != nil {
		relayShardError(w, sh.ID, err)
		return
	}
	writeReply(w, *buf)
}

// handleBatch splits the batch by owning shard, dispatches the per-shard
// sub-batches concurrently under the fan-out bound, and merges results
// back into request order. Shard failures are per-item errors: the rest
// of the batch still answers.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchDecideRequest
	if !readJSON(w, r, &req, false) {
		return
	}
	if len(req.Requests) > maxBatchSize {
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("batch of %d exceeds limit %d", len(req.Requests), maxBatchSize)})
		return
	}
	t := rt.table.Load()
	merged := make([]BatchItem, len(req.Requests))
	var stale atomic.Bool
	start := time.Now()
	splitBatch(req.Requests, func(i int, dr *DecideRequest) (string, bool) {
		sh, err := t.Route(dr.Subject, dr.Session)
		if err != nil {
			merged[i] = BatchItem{Error: err.Error()}
			return "", false
		}
		return sh.ID, true
	}, func(id string, sub []DecideRequest) (BatchDecideResponse, error) {
		rt.metrics.route(id)
		ctx, cancel := rt.shardCtx(r)
		defer cancel()
		return retryRead(rt, ctx, id, func(ctx context.Context) (BatchDecideResponse, error) {
			return t.Client(id).DecideBatch(ctx, sub)
		})
	}, func(id string, idx []int, resp BatchDecideResponse, err error) {
		if err != nil {
			rt.metrics.err(id)
			msg := fmt.Sprintf("shard %s: %v", id, err)
			for _, i := range idx {
				merged[i] = BatchItem{Error: msg}
			}
			return
		}
		if resp.Stale {
			stale.Store(true)
		}
		for j, i := range idx {
			merged[i] = resp.Results[j]
		}
	})
	rt.metrics.observeScatter(start)
	writeJSON(w, http.StatusOK, BatchDecideResponse{Results: merged, Stale: stale.Load()})
}

func (rt *Router) handleSessions(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !readJSON(w, r, &req, false) {
		return
	}
	if r.Method == http.MethodPost && req.Subject == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing subject"})
		return
	}
	rt.forwardOwned(w, r, req.Subject, req.Session, req)
}

func (rt *Router) handleSessionRoles(w http.ResponseWriter, r *http.Request) {
	var req SessionRoleRequest
	if !readJSON(w, r, &req, false) {
		return
	}
	rt.forwardOwned(w, r, "", req.Session, req)
}

// forwardOwned sends a request for one subject, or the one a session's ID
// names, to the shard Route names and relays its 2xx reply as it came (a
// new session's ID as the shard minted it). in is the decoded body to
// re-encode, nil for a GET: the one idempotent read, retried once.
func (rt *Router) forwardOwned(w http.ResponseWriter, r *http.Request, subject, session string, in any) {
	t := rt.table.Load()
	sh, err := t.Route(subject, session)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	var body []byte
	if in != nil {
		body, _ = json.Marshal(in) // a wire struct, which always encodes
	}
	buf := getBuf()
	defer putBuf(buf)
	err = rt.callShard(r, t, sh, r.Method == http.MethodGet, func(ctx context.Context, c *Client) error {
		return c.do(ctx, r.Method, r.URL.RequestURI(), body, readFramed(buf))
	})
	if err != nil {
		relayShardError(w, sh.ID, err)
		return
	}
	writeReply(w, *buf)
}

// handleSubjectAdmin routes subject registration/role assignment to the
// shard that owns the subject.
func (rt *Router) handleSubjectAdmin(w http.ResponseWriter, r *http.Request) {
	var req BindingRequest
	if !readJSON(w, r, &req, false) {
		return
	}
	if req.ID == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing subject id"})
		return
	}
	rt.forwardOwned(w, r, req.ID, "", req)
}

// handleBroadcastAdmin applies a shared-policy mutation on every shard.
// Shared policy (roles, objects, transactions, permissions, SoD) must be
// identical everywhere for per-shard decisions to be correct, so a
// partial broadcast is reported loudly with per-shard errors; shards
// that succeeded keep the mutation and the caller retries (the admin
// mutations are idempotent upserts or idempotent removals).
func (rt *Router) handleBroadcastAdmin(w http.ResponseWriter, r *http.Request) {
	var body json.RawMessage
	if !readJSON(w, r, &body, false) {
		return
	}
	t := rt.table.Load()
	start := time.Now()
	errs := rt.broadcast(r, t, r.Method, r.URL.Path, body)
	rt.metrics.observeScatter(start)
	if len(errs) > 0 {
		writeJSON(w, http.StatusBadGateway, ShardErrorsResponse{
			Error:       fmt.Sprintf("broadcast %s %s failed on %d/%d shards", r.Method, r.URL.Path, len(errs), t.Map().Len()),
			ShardErrors: errs,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// scatter calls call on every shard of t under the fan-out bound, each
// with its own per-shard deadline, and returns the failures by shard ID.
func (rt *Router) scatter(r *http.Request, t *ShardTable, call func(ctx context.Context, id string, c *Client) error) map[string]string {
	var mu sync.Mutex
	errs := make(map[string]string)
	fanOut(t.Map().Shards(), func(s shard.Info) {
		rt.metrics.route(s.ID)
		ctx, cancel := rt.shardCtx(r)
		defer cancel()
		if err := call(ctx, s.ID, t.Client(s.ID)); err != nil {
			rt.metrics.err(s.ID)
			mu.Lock()
			errs[s.ID] = err.Error()
			mu.Unlock()
		}
	})
	return errs
}

// broadcast sends one call to every shard of t, returning per-shard error
// strings (empty when all succeeded).
func (rt *Router) broadcast(r *http.Request, t *ShardTable, method, path string, body json.RawMessage) map[string]string {
	return rt.scatter(r, t, func(ctx context.Context, _ string, c *Client) error {
		return c.Call(ctx, method, path, body, nil)
	})
}

// scatterSubjects answers a cross-subject query: fetch runs on every
// shard (one bounded retry each on transient failure) and the reply is
// the sorted union. It is strict by default, a down shard failing the
// query; ?allow_partial=1 degrades to a 200 with the reachable union and
// the per-shard errors, as long as one shard answered.
func (rt *Router) scatterSubjects(w http.ResponseWriter, r *http.Request, what string, fetch func(ctx context.Context, c *Client) ([]string, error)) {
	t := rt.table.Load()
	start := time.Now()
	var mu sync.Mutex
	seen := make(map[string]bool)
	errs := rt.scatter(r, t, func(ctx context.Context, id string, c *Client) error {
		items, err := retryRead(rt, ctx, id, func(ctx context.Context) ([]string, error) {
			return fetch(ctx, c)
		})
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for _, it := range items {
			seen[it] = true
		}
		return nil
	})
	rt.metrics.observeScatter(start)
	union := make([]string, 0, len(seen))
	for it := range seen {
		union = append(union, it)
	}
	sort.Strings(union)
	switch {
	case len(errs) == 0:
		writeJSON(w, http.StatusOK, ScatterSubjectsResponse{Subjects: union})
	case r.URL.Query().Get("allow_partial") == "1" && len(errs) < t.Map().Len():
		writeJSON(w, http.StatusOK, ScatterSubjectsResponse{Subjects: union, Partial: true, ShardErrors: errs})
	default:
		writeJSON(w, http.StatusBadGateway, ShardErrorsResponse{
			Error:       fmt.Sprintf("%s failed on %d/%d shards", what, len(errs), t.Map().Len()),
			ShardErrors: errs,
		})
	}
}

// ScatterSubjectsResponse is the router's reply for cross-shard subject
// queries: the union, plus degradation markers under ?allow_partial=1.
type ScatterSubjectsResponse struct {
	Subjects []string `json:"subjects"`
	// Partial marks a degraded answer missing the shards in ShardErrors.
	Partial     bool              `json:"partial,omitempty"`
	ShardErrors map[string]string `json:"shard_errors,omitempty"`
}

func (rt *Router) handleWhoCan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	transaction, object := q.Get("transaction"), q.Get("object")
	var env []string
	if raw := q.Get("env"); raw != "" {
		env = strings.Split(raw, ",")
	}
	rt.scatterSubjects(w, r, "who-can scatter", func(ctx context.Context, c *Client) ([]string, error) {
		return c.WhoCan(ctx, transaction, object, env)
	})
}

func (rt *Router) handleSubjectsInRole(w http.ResponseWriter, r *http.Request) {
	role := r.URL.Query().Get("role")
	if role == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing role parameter"})
		return
	}
	rt.scatterSubjects(w, r, "subjects-in-role scatter", func(ctx context.Context, c *Client) ([]string, error) {
		resp, err := c.SubjectsInRole(ctx, role)
		return resp.Subjects, err
	})
}

func (rt *Router) handleWhatCan(w http.ResponseWriter, r *http.Request) {
	subject := r.URL.Query().Get("subject")
	if subject == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing subject parameter"})
		return
	}
	rt.forwardOwned(w, r, subject, "", nil)
}

// RouterHealthResponse aggregates per-shard liveness.
type RouterHealthResponse struct {
	Status string            `json:"status"` // "ok" | "degraded"
	Shards map[string]string `json:"shards"` // shard ID → "ok" | "unreachable"
}

// handleHealthz asks every shard's /v1/healthz under the fan-out bound,
// each within the per-shard deadline, and is degraded (503) while any
// shard does not answer healthy.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	t := rt.table.Load()
	resp := RouterHealthResponse{Status: "ok", Shards: make(map[string]string, t.Map().Len())}
	status := http.StatusOK
	var mu sync.Mutex
	fanOut(t.Map().Shards(), func(s shard.Info) {
		ctx, cancel := rt.shardCtx(r)
		defer cancel()
		state := "ok"
		if !t.Client(s.ID).Healthy(ctx) {
			state = "unreachable"
		}
		mu.Lock()
		defer mu.Unlock()
		resp.Shards[s.ID] = state
		if state != "ok" {
			resp.Status, status = "degraded", http.StatusServiceUnavailable
		}
	})
	writeJSON(w, status, resp)
}

// RouterStatszResponse describes the routing tier.
type RouterStatszResponse struct {
	Mode            string       `json:"mode"` // always "router"
	ShardMapVersion uint64       `json:"shard_map_version"`
	VNodes          int          `json:"vnodes"`
	Fanout          int          `json:"fanout"`
	ShardTimeoutMS  int64        `json:"shard_timeout_ms"`
	Shards          []shard.Info `json:"shards"`
}

func (rt *Router) handleStatsz(w http.ResponseWriter, r *http.Request) {
	m := rt.Map()
	resp := RouterStatszResponse{
		Mode:            "router",
		ShardMapVersion: m.Version(),
		VNodes:          m.VNodes(),
		Fanout:          routerFanout,
		ShardTimeoutMS:  rt.timeout.Milliseconds(),
		Shards:          m.Shards(),
	}
	writeJSON(w, http.StatusOK, resp)
}
