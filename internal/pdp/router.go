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
	"github.com/aware-home/grbac/internal/shard"
	"github.com/aware-home/grbac/internal/watch"
)

// Router is the sharded cluster's routing tier: a stateless HTTP front
// that forwards each request to the shard owning its subject (consistent
// hash over the versioned shard map) and scatter-gathers the requests
// that span subjects. It holds no policy and makes no decisions itself —
// every byte of mediation happens on the shards — so routers scale out
// independently and restart freely.
//
// Routing rules:
//   - Decide/Check/what-can: forwarded to the owner of the request's
//     subject. Session-scoped requests route by the shard qualifier the
//     router stamped into the session ID at creation.
//   - DecideBatch: split by owning shard, dispatched concurrently under
//     the fan-out bound, merged back in request order. A failed shard
//     fails only its own items (typed per-item errors), never the batch.
//   - Subject admin (/v1/admin/subjects) and sessions: owner shard;
//     session IDs come back qualified as "<shard>/<local-id>".
//   - Shared-policy admin (roles, objects, transactions, permissions,
//     sod): broadcast to every shard; any failure reports per-shard
//     typed errors (the shards that applied it stay applied — the
//     caller retries until the broadcast converges).
//   - who-can / subjects-in-role: scatter to every shard with bounded
//     fan-out and per-shard deadlines, union the answers. Strict by
//     default (a down shard fails the query — review answers must not
//     silently omit a partition); ?allow_partial=1 degrades to a 200
//     with the reachable union plus per-shard errors.
//
// During a rebalance, a shard that no longer owns a subject answers 421
// with the new owner's coordinates; the router follows the redirect once
// within the same request, so clients never observe the handoff.
type Router struct {
	mu   sync.Mutex // serializes SetMap
	view atomic.Pointer[routerView]
	maps watch.Notifier // publishes the active map's version

	mux      *http.ServeMux
	timeout  time.Duration
	logger   *log.Logger
	mkClient func(addr string) *Client

	// Health probes (see router_resilience.go).
	probeEvery time.Duration
	health     *healthTracker
	stop       chan struct{}
	stopOnce   sync.Once

	metrics *routerMetrics
	reg     *obs.Registry
	bundles *bundle.Verifier
}

// routerView is one immutable snapshot of the routing state: the shard
// map and the client table built for exactly that map. Handlers capture
// a view once per request, so a concurrent SetMap can never tear the
// map away from its clients mid-scatter — in-flight fan-outs drain
// against the table they started with.
type routerView struct {
	m       *shard.Map
	clients map[string]*Client
}

func (v *routerView) client(id string) (*Client, bool) {
	c, ok := v.clients[id]
	return c, ok
}

// routerFanout bounds how many shard calls one scatter request (a
// broadcast, query, batch split or inline health check) may have in
// flight at once.
const routerFanout = 8

// DefaultShardTimeout is the per-shard deadline for forwarded calls: a
// slow shard costs one deadline, not an unbounded hang.
const DefaultShardTimeout = 5 * time.Second

// readRetryBackoff is the base backoff before the single retry of an
// idempotent read (jittered to 0.5x–1.5x).
const readRetryBackoff = 25 * time.Millisecond

// ShardMapPath serves the router's current shard map, consumed by
// grbacctl and by SDK clients that route shard-direct.
const ShardMapPath = "/v1/shard/map"

// ShardMapWatchPath long-polls for shard map changes: the request parks
// until the map version exceeds ?after (or the wait expires), then
// returns the current wire map. It is internal/watch's long-poll, the
// one the replica feed runs too. Routers push rebalance commits to SDK
// clients through this edge so the fleet flips atomically.
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
	health  *obs.GaugeVec
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

func (m *routerMetrics) setHealth(shardID string, v float64) {
	if m != nil {
		m.health.With(shardID).Set(v)
	}
}

// NewRouter builds a routing tier over the shard map.
func NewRouter(m *shard.Map, opts ...RouterOption) (*Router, error) {
	if m == nil || m.Len() == 0 {
		return nil, fmt.Errorf("pdp: router needs a non-empty shard map")
	}
	rt := &Router{
		timeout: DefaultShardTimeout,
		logger:  log.Default(),
		stop:    make(chan struct{}),
		health:  newHealthTracker(),
	}
	for _, opt := range opts {
		opt(rt)
	}
	if rt.mkClient == nil {
		rt.mkClient = func(addr string) *Client { return NewClient(addr, nil) }
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
			health: rt.reg.NewGaugeVec("grbac_shard_health",
				"Probed shard health: 1 healthy, 0.5 suspect, 0 down.", "shard"),
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
	rt.install(m)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/decide", rt.handleDecide)
	mux.HandleFunc("/v1/check", rt.handleCheck)
	mux.HandleFunc("/v1/decide/batch", rt.handleBatch)
	mux.HandleFunc("/v1/sessions", rt.handleSessions)
	mux.HandleFunc("/v1/sessions/roles", rt.handleSessionRoles)
	mux.HandleFunc("/v1/admin/subjects", rt.handleSubjectAdmin)
	for _, p := range []string{"/v1/admin/roles", "/v1/admin/objects",
		"/v1/admin/transactions", "/v1/admin/permissions", "/v1/admin/sod"} {
		mux.HandleFunc(p, rt.handleBroadcastAdmin)
	}
	mux.HandleFunc("/v1/query/who-can", rt.handleWhoCan)
	mux.HandleFunc("/v1/query/subjects-in-role", rt.handleSubjectsInRole)
	mux.HandleFunc("/v1/query/what-can", rt.handleWhatCan)
	mux.HandleFunc(ShardMapPath, rt.handleShardMap)
	mux.HandleFunc(ShardMapWatchPath, watch.Handler(
		func(ctx context.Context, _ *http.Request, after uint64) uint64 { return rt.maps.Wait(ctx, after) },
		func(uint64) any { return rt.Map().Wire() }))
	mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	mux.HandleFunc("/v1/statsz", rt.handleStatsz)
	if rt.bundles != nil {
		mux.HandleFunc(BundlePath, rt.handleBundlePush)
		mux.HandleFunc(BundleStatusPath, rt.handleBundleStatus)
	}
	if rt.reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = rt.reg.WritePrometheus(w)
		})
	}
	rt.mux = mux
	if rt.probeEvery > 0 {
		go rt.prober()
	}
	return rt, nil
}

// Close stops the router's background health prober (if any). Safe to
// call multiple times; in-flight requests are unaffected.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
}

// install swaps in a map, (re)builds the per-shard client table and
// wakes every parked map watch. Callers must hold rt.mu (or be the
// constructor, before the router is shared).
func (rt *Router) install(m *shard.Map) {
	clients := make(map[string]*Client, m.Len())
	prev := rt.view.Load()
	for _, s := range m.Shards() {
		// Reuse the existing client when the address is unchanged, so a map
		// bump does not drop warm connection pools.
		if prev != nil {
			if p, ok := prev.m.Get(s.ID); ok && p.Addr == s.Addr {
				clients[s.ID] = prev.clients[s.ID]
				continue
			}
		}
		clients[s.ID] = rt.mkClient(s.Addr)
	}
	rt.view.Store(&routerView{m: m, clients: clients})
	rt.health.prune(m)
	rt.maps.Publish(m.Version())
}

// SetMap atomically replaces the shard map and wakes every parked map
// watch. Only maps with a strictly higher version are accepted
// (ErrStaleShardMap otherwise), so concurrent updaters cannot roll the
// router back.
func (rt *Router) SetMap(m *shard.Map) error {
	if m == nil || m.Len() == 0 {
		return fmt.Errorf("pdp: refusing empty shard map")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if cur := rt.view.Load(); cur != nil && m.Version() <= cur.m.Version() {
		return fmt.Errorf("%w: candidate %d, active %d",
			ErrStaleShardMap, m.Version(), cur.m.Version())
	}
	rt.install(m)
	return nil
}

// Map returns the active shard map.
func (rt *Router) Map() *shard.Map { return rt.view.Load().m }

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

// relayShardError maps one failed shard call onto the router's reply:
// shard-side HTTP statuses pass through (a 404 on the shard is a 404
// here), transport failures become 502 Bad Gateway.
func (rt *Router) relayShardError(w http.ResponseWriter, shardID string, err error) {
	rt.metrics.err(shardID)
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

func readJSONBody(w http.ResponseWriter, r *http.Request, out any, methods ...string) bool {
	allowed := false
	for _, m := range methods {
		if r.Method == m {
			allowed = true
			break
		}
	}
	if !allowed {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "method not allowed"})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(out); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "malformed request: " + err.Error()})
		return false
	}
	return true
}

// routeError is a routing failure with the HTTP status it should map
// to: 400 for requests that cannot name a shard at all, 404 for session
// qualifiers that name a shard the map doesn't have.
type routeError struct {
	status int
	msg    string
}

func (e *routeError) Error() string { return e.msg }

func writeRouteError(w http.ResponseWriter, e *routeError) {
	writeJSON(w, e.status, ErrorResponse{Error: e.msg})
}

// resolveSessionShard maps a shard-qualified session ID onto its owning
// shard and the shard-local ID. An ID with no qualifier at all is the
// caller's malformed request (400); an ID whose qualifier is empty
// ("/sid") or names a shard absent from the map refers to something
// that does not exist here (404) — it must never fall through to hash
// routing, which would silently ask an arbitrary shard.
func resolveSessionShard(m *shard.Map, qualified string) (shard.Info, string, *routeError) {
	if !strings.Contains(qualified, shard.SessionSep) {
		return shard.Info{}, "", &routeError{http.StatusBadRequest,
			fmt.Sprintf("session %q is not shard-qualified (want <shard>%s<id>)", qualified, shard.SessionSep)}
	}
	shardID, sid, ok := shard.SplitSession(qualified)
	if !ok {
		return shard.Info{}, "", &routeError{http.StatusNotFound,
			fmt.Sprintf("session %q has an empty shard qualifier", qualified)}
	}
	info, found := m.Get(shardID)
	if !found {
		return shard.Info{}, "", &routeError{http.StatusNotFound,
			fmt.Sprintf("session %q names unknown shard %q", qualified, shardID)}
	}
	return info, sid, nil
}

// route resolves the owning shard for a decision-style request: the
// session qualifier when a session is named (sessions live where they
// were created, surviving map changes), else the subject hash. It
// rewrites a qualified session ID to the shard-local form in place.
func route(v *routerView, req *DecideRequest) (shard.Info, *routeError) {
	if req.Session != "" {
		info, sid, rerr := resolveSessionShard(v.m, req.Session)
		if rerr != nil {
			return shard.Info{}, rerr
		}
		req.Session = sid
		return info, nil
	}
	if req.Subject == "" {
		return shard.Info{}, &routeError{http.StatusBadRequest,
			"request names neither subject nor session"}
	}
	return v.m.Owner(req.Subject), nil
}

// movedClient resolves the client to follow a 421 migration redirect
// with: the view's own client when the redirect names a shard we know
// at that address, else a fresh client for the redirect's address (the
// redirect can be ahead of our map during a rebalance).
func (rt *Router) movedClient(v *routerView, err error) (*Client, string, bool) {
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusMisdirectedRequest || re.Moved == nil {
		return nil, "", false
	}
	mv := re.Moved
	if info, ok := v.m.Get(mv.Shard); ok && info.Addr == mv.Addr {
		if c, ok := v.client(mv.Shard); ok {
			return c, mv.Shard, true
		}
	}
	if mv.Addr == "" {
		return nil, "", false
	}
	return rt.mkClient(mv.Addr), mv.Shard, true
}

// callShard performs one single-shard call: bounded per-shard deadline,
// one jittered retry when the call is an idempotent read that failed
// transiently, and one follow of a 421 migration redirect. Returns the
// ID of the shard that ultimately answered, for error attribution.
func (rt *Router) callShard(r *http.Request, v *routerView, sh shard.Info, idempotent bool, call func(context.Context, *Client) error) (string, error) {
	c, ok := v.client(sh.ID)
	if !ok {
		c = rt.mkClient(sh.Addr)
	}
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
	if mc, movedID, moved := rt.movedClient(v, err); moved {
		rt.metrics.route(movedID)
		return movedID, call(ctx, mc)
	}
	return sh.ID, err
}

// callJSON is the call for callShard that forwards a JSON request through
// Client.Call.
func callJSON(method, path string, in, out any) func(context.Context, *Client) error {
	return func(ctx context.Context, c *Client) error { return c.Call(ctx, method, path, in, out) }
}

// readRoutedDecide reads a decide or check body for forwarding. Unlike a
// shard, the router has always ignored unknown fields.
func readRoutedDecide(w http.ResponseWriter, r *http.Request, buf *[]byte) (DecideRequest, bool) {
	var req DecideRequest
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "method not allowed"})
		return req, false
	}
	if err := readDecide(w, r, buf, &req, false); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "malformed request: " + err.Error()})
		return req, false
	}
	return req, true
}

// handleDecide forwards a decision to the subject's shard under the
// caller's correlation ID (minted here when the caller sent none), so the
// shard's audit, declog and trace records and both replies carry it.
func (rt *Router) handleDecide(w http.ResponseWriter, r *http.Request) {
	corr := correlate(w, r)
	buf := getBuf()
	defer putBuf(buf)
	req, ok := readRoutedDecide(w, r, buf)
	if !ok {
		return
	}
	v := rt.view.Load()
	sh, rerr := route(v, &req)
	if rerr != nil {
		writeRouteError(w, rerr)
		return
	}
	var resp DecideResponse
	id, err := rt.callShard(r, v, sh, true, func(ctx context.Context, c *Client) (err error) {
		resp, err = c.Decide(withCorrelation(ctx, corr), req)
		return err
	})
	if err != nil {
		rt.relayShardError(w, id, err)
		return
	}
	out, err := appendDecideResponse((*buf)[:0], &resp)
	*buf = out
	writeEncoded(w, out, err)
}

// handleCheck is handleDecide for boolean decisions.
func (rt *Router) handleCheck(w http.ResponseWriter, r *http.Request) {
	corr := correlate(w, r)
	buf := getBuf()
	defer putBuf(buf)
	req, ok := readRoutedDecide(w, r, buf)
	if !ok {
		return
	}
	v := rt.view.Load()
	sh, rerr := route(v, &req)
	if rerr != nil {
		writeRouteError(w, rerr)
		return
	}
	var resp CheckResponse
	id, err := rt.callShard(r, v, sh, true, func(ctx context.Context, c *Client) (err error) {
		resp, err = c.check(withCorrelation(ctx, corr), req)
		return err
	})
	if err != nil {
		rt.relayShardError(w, id, err)
		return
	}
	*buf = appendCheckResponse((*buf)[:0], &resp)
	writeEncoded(w, *buf, nil)
}

// handleBatch splits the batch by owning shard, dispatches the per-shard
// sub-batches concurrently under the fan-out bound, and merges results
// back into request order. Shard failures are per-item errors: the rest
// of the batch still answers.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchDecideRequest
	if !readJSONBody(w, r, &req, http.MethodPost) {
		return
	}
	if len(req.Requests) > maxBatchSize {
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("batch of %d exceeds limit %d", len(req.Requests), maxBatchSize)})
		return
	}
	v := rt.view.Load()
	merged := make([]BatchItem, len(req.Requests))
	groups := make(map[string][]int) // shard ID → indices into req.Requests
	for i := range req.Requests {
		sh, rerr := route(v, &req.Requests[i])
		if rerr != nil {
			merged[i] = BatchItem{Error: rerr.msg}
			continue
		}
		groups[sh.ID] = append(groups[sh.ID], i)
	}

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex // guards merged + stale across shard goroutines
	stale := false
	sem := make(chan struct{}, routerFanout)
	for shardID, idxs := range groups {
		wg.Add(1)
		go func(shardID string, idxs []int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sub := make([]DecideRequest, len(idxs))
			for j, i := range idxs {
				sub[j] = req.Requests[i]
			}
			c, ok := v.client(shardID)
			if !ok {
				rt.fillBatchError(merged, &mu, idxs, shardID, fmt.Errorf("shard %s: not in map", shardID))
				return
			}
			rt.metrics.route(shardID)
			ctx, cancel := rt.shardCtx(r)
			defer cancel()
			resp, err := retryRead(rt, ctx, shardID, func(ctx context.Context) (BatchDecideResponse, error) {
				return c.DecideBatch(ctx, sub)
			})
			if err != nil {
				rt.fillBatchError(merged, &mu, idxs, shardID, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if resp.Stale {
				stale = true
			}
			for j, i := range idxs {
				if j < len(resp.Results) {
					merged[i] = resp.Results[j]
				} else {
					merged[i] = BatchItem{Error: fmt.Sprintf("shard %s: truncated batch reply", shardID)}
				}
			}
		}(shardID, idxs)
	}
	wg.Wait()
	rt.metrics.observeScatter(start)
	writeJSON(w, http.StatusOK, BatchDecideResponse{Results: merged, Stale: stale})
}

func (rt *Router) fillBatchError(merged []BatchItem, mu *sync.Mutex, idxs []int, shardID string, err error) {
	rt.metrics.err(shardID)
	msg := fmt.Sprintf("shard %s: %v", shardID, err)
	mu.Lock()
	defer mu.Unlock()
	for _, i := range idxs {
		merged[i] = BatchItem{Error: msg}
	}
}

func (rt *Router) handleSessions(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !readJSONBody(w, r, &req, http.MethodPost, http.MethodDelete) {
		return
	}
	v := rt.view.Load()
	switch r.Method {
	case http.MethodPost:
		if req.Subject == "" {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing subject"})
			return
		}
		sh := v.m.Owner(req.Subject)
		var resp SessionResponse
		id, err := rt.callShard(r, v, sh, false, callJSON(http.MethodPost, "/v1/sessions", req, &resp))
		if err != nil {
			rt.relayShardError(w, id, err)
			return
		}
		resp.Session = shard.QualifySession(id, resp.Session)
		writeJSON(w, http.StatusOK, resp)
	case http.MethodDelete:
		sh, sid, rerr := resolveSessionShard(v.m, req.Session)
		if rerr != nil {
			writeRouteError(w, rerr)
			return
		}
		req.Session = sid
		var out map[string]string
		if id, err := rt.callShard(r, v, sh, false, callJSON(http.MethodDelete, "/v1/sessions", req, &out)); err != nil {
			rt.relayShardError(w, id, err)
			return
		}
		writeJSON(w, http.StatusOK, out)
	}
}

func (rt *Router) handleSessionRoles(w http.ResponseWriter, r *http.Request) {
	var req SessionRoleRequest
	if !readJSONBody(w, r, &req, http.MethodPost) {
		return
	}
	v := rt.view.Load()
	sh, sid, rerr := resolveSessionShard(v.m, req.Session)
	if rerr != nil {
		writeRouteError(w, rerr)
		return
	}
	req.Session = sid
	var out map[string]string
	if id, err := rt.callShard(r, v, sh, false, callJSON(http.MethodPost, "/v1/sessions/roles", req, &out)); err != nil {
		rt.relayShardError(w, id, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSubjectAdmin routes subject registration/role assignment to the
// shard that owns the subject.
func (rt *Router) handleSubjectAdmin(w http.ResponseWriter, r *http.Request) {
	var req BindingRequest
	if !readJSONBody(w, r, &req, http.MethodPost) {
		return
	}
	if req.ID == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing subject id"})
		return
	}
	v := rt.view.Load()
	sh := v.m.Owner(req.ID)
	var out map[string]string
	if id, err := rt.callShard(r, v, sh, false, callJSON(http.MethodPost, "/v1/admin/subjects", req, &out)); err != nil {
		rt.relayShardError(w, id, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleBroadcastAdmin applies a shared-policy mutation on every shard.
// Shared policy (roles, objects, transactions, permissions, SoD) must be
// identical everywhere for per-shard decisions to be correct, so a
// partial broadcast is reported loudly with per-shard errors; shards
// that succeeded keep the mutation and the caller retries (the admin
// mutations are idempotent upserts or idempotent removals).
func (rt *Router) handleBroadcastAdmin(w http.ResponseWriter, r *http.Request) {
	var body json.RawMessage
	if !readJSONBody(w, r, &body, http.MethodPost, http.MethodDelete) {
		return
	}
	v := rt.view.Load()
	start := time.Now()
	errs := rt.broadcast(r, v, r.Method, r.URL.Path, body)
	rt.metrics.observeScatter(start)
	if len(errs) > 0 {
		writeJSON(w, http.StatusBadGateway, ShardErrorsResponse{
			Error:       fmt.Sprintf("broadcast %s %s failed on %d/%d shards", r.Method, r.URL.Path, len(errs), v.m.Len()),
			ShardErrors: errs,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// broadcast fans one call out to every shard in the view under the
// fan-out bound, returning per-shard error strings (empty when all
// succeeded).
func (rt *Router) broadcast(r *http.Request, v *routerView, method, path string, body json.RawMessage) map[string]string {
	shards := v.m.Shards()
	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := make(map[string]string)
	sem := make(chan struct{}, routerFanout)
	for _, s := range shards {
		wg.Add(1)
		go func(s shard.Info) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c, ok := v.client(s.ID)
			if !ok {
				mu.Lock()
				errs[s.ID] = "not in client table"
				mu.Unlock()
				return
			}
			rt.metrics.route(s.ID)
			ctx, cancel := rt.shardCtx(r)
			defer cancel()
			if err := c.Call(ctx, method, path, body, nil); err != nil {
				rt.metrics.err(s.ID)
				mu.Lock()
				errs[s.ID] = err.Error()
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return errs
}

// scatterStrings fans a per-shard string-list query out to every shard
// in the view and merges: the sorted union plus per-shard errors. Each
// shard's read gets one bounded retry on transient failure.
func (rt *Router) scatterStrings(r *http.Request, v *routerView, fetch func(ctx context.Context, c *Client) ([]string, error)) (union []string, errs map[string]string) {
	shards := v.m.Shards()
	var wg sync.WaitGroup
	var mu sync.Mutex
	errs = make(map[string]string)
	seen := make(map[string]bool)
	sem := make(chan struct{}, routerFanout)
	for _, s := range shards {
		wg.Add(1)
		go func(s shard.Info) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c, ok := v.client(s.ID)
			if !ok {
				mu.Lock()
				errs[s.ID] = "not in client table"
				mu.Unlock()
				return
			}
			rt.metrics.route(s.ID)
			ctx, cancel := rt.shardCtx(r)
			defer cancel()
			items, err := retryRead(rt, ctx, s.ID, func(ctx context.Context) ([]string, error) {
				return fetch(ctx, c)
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				rt.metrics.err(s.ID)
				errs[s.ID] = err.Error()
				return
			}
			for _, it := range items {
				seen[it] = true
			}
		}(s)
	}
	wg.Wait()
	union = make([]string, 0, len(seen))
	for it := range seen {
		union = append(union, it)
	}
	sort.Strings(union)
	return union, errs
}

// writeScatterResult applies the strict/partial contract shared by the
// cross-subject queries.
func (rt *Router) writeScatterResult(w http.ResponseWriter, r *http.Request, v *routerView, what string, union []string, errs map[string]string, respond func(subjects []string, partial bool) any) {
	allowPartial := r.URL.Query().Get("allow_partial") == "1"
	switch {
	case len(errs) == 0:
		writeJSON(w, http.StatusOK, respond(union, false))
	case allowPartial && len(errs) < v.m.Len():
		resp := respond(union, true)
		writeJSON(w, http.StatusOK, resp)
	default:
		writeJSON(w, http.StatusBadGateway, ShardErrorsResponse{
			Error:       fmt.Sprintf("%s failed on %d/%d shards", what, len(errs), v.m.Len()),
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
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "GET only"})
		return
	}
	q := r.URL.Query()
	transaction, object := q.Get("transaction"), q.Get("object")
	var env []string
	if raw := q.Get("env"); raw != "" {
		env = append(env, splitList(raw)...)
	}
	v := rt.view.Load()
	start := time.Now()
	union, errs := rt.scatterStrings(r, v, func(ctx context.Context, c *Client) ([]string, error) {
		return c.WhoCan(ctx, transaction, object, env)
	})
	rt.metrics.observeScatter(start)
	rt.writeScatterResult(w, r, v, "who-can scatter", union, errs, func(subjects []string, partial bool) any {
		out := ScatterSubjectsResponse{Subjects: subjects, Partial: partial}
		if partial {
			out.ShardErrors = errs
		}
		return out
	})
}

func (rt *Router) handleSubjectsInRole(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "GET only"})
		return
	}
	role := r.URL.Query().Get("role")
	if role == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing role parameter"})
		return
	}
	v := rt.view.Load()
	start := time.Now()
	union, errs := rt.scatterStrings(r, v, func(ctx context.Context, c *Client) ([]string, error) {
		resp, err := c.SubjectsInRole(ctx, role)
		return resp.Subjects, err
	})
	rt.metrics.observeScatter(start)
	rt.writeScatterResult(w, r, v, "subjects-in-role scatter", union, errs, func(subjects []string, partial bool) any {
		out := ScatterSubjectsResponse{Subjects: subjects, Partial: partial}
		if partial {
			out.ShardErrors = errs
		}
		return out
	})
}

func (rt *Router) handleWhatCan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "GET only"})
		return
	}
	subject := r.URL.Query().Get("subject")
	if subject == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing subject parameter"})
		return
	}
	v := rt.view.Load()
	sh := v.m.Owner(subject)
	var resp WhatCanResponse
	if id, err := rt.callShard(r, v, sh, true, callJSON(http.MethodGet, "/v1/query/what-can?"+r.URL.RawQuery, nil, &resp)); err != nil {
		rt.relayShardError(w, id, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleShardMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, rt.Map().Wire())
}

// RouterHealthResponse aggregates per-shard liveness.
type RouterHealthResponse struct {
	Status string            `json:"status"` // "ok" | "degraded"
	Shards map[string]string `json:"shards"` // shard ID → "ok" | "suspect" | "unreachable"
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v := rt.view.Load()
	shards := v.m.Shards()
	resp := RouterHealthResponse{Status: "ok", Shards: make(map[string]string, len(shards))}
	if rt.probeEvery > 0 {
		// Background probes are running: answer from their state machine
		// instead of re-probing inline on every health check.
		for _, s := range shards {
			state := rt.health.stateOf(s.ID)
			resp.Shards[s.ID] = state.String()
			if state == healthDown {
				resp.Status = "degraded"
			}
		}
	} else {
		var wg sync.WaitGroup
		var mu sync.Mutex
		sem := make(chan struct{}, routerFanout)
		for _, s := range shards {
			wg.Add(1)
			go func(s shard.Info) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				c, ok := v.client(s.ID)
				ctx, cancel := rt.shardCtx(r)
				defer cancel()
				state := "ok"
				if !ok || !c.Healthy(ctx) {
					state = "unreachable"
				}
				mu.Lock()
				resp.Shards[s.ID] = state
				if state != "ok" {
					resp.Status = "degraded"
				}
				mu.Unlock()
			}(s)
		}
		wg.Wait()
	}
	status := http.StatusOK
	if resp.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// RouterStatszResponse describes the routing tier.
type RouterStatszResponse struct {
	Mode            string       `json:"mode"` // always "router"
	ShardMapVersion uint64       `json:"shard_map_version"`
	VNodes          int          `json:"vnodes"`
	Fanout          int          `json:"fanout"`
	ShardTimeoutMS  int64        `json:"shard_timeout_ms"`
	ProbeIntervalMS int64        `json:"probe_interval_ms,omitempty"`
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
		ProbeIntervalMS: rt.probeEvery.Milliseconds(),
		Shards:          m.Shards(),
	}
	writeJSON(w, http.StatusOK, resp)
}

// splitList splits a comma-separated query value, dropping empties.
func splitList(raw string) []string {
	var out []string
	cur := ""
	for _, ch := range raw {
		if ch == ',' {
			if cur != "" {
				out = append(out, cur)
			}
			cur = ""
			continue
		}
		cur += string(ch)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
