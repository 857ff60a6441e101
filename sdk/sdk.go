// Package sdk embeds GRBAC mediation in the application's own process.
//
// The biggest QPS lever in a policy-decision architecture is never
// sending the request: an embedded Client bootstraps from the primary's
// replication snapshot, rides the watch long-poll (delta-first, with
// 410-Gone → full-snapshot fallback) to keep a local copy-on-write
// compiled policy current, and answers Decide/CheckAccess/DecideBatch
// in-process with the same lock-free snapshot and generation-stamped
// decision cache the server uses. A policy mutation on the primary bumps
// the generation, the watch delivers it, and the local cache invalidates
// in O(1) — push-invalidated caching with no polling and no TTL guesswork.
//
// Not every flow can be mediated locally. Sessions are ephemeral primary
// state (never replicated), and a request with a nil Environment asks for
// the live sensor-driven environment roles only the primary can see; both
// route to a remote pdp.Client Decide. When the local snapshot goes stale
// past the configured bound the Client degrades per its FallbackMode:
// remote mediation (default), serving marked-stale local answers, or
// fail-safe deny. When the remote is unreachable too, every non-local
// answer is a fail-safe deny with an audited "stale"/"fail-safe" reason —
// an offline SDK fails closed, never open.
//
// A ten-line embedded app:
//
//	client, err := sdk.New(ctx, "http://pdp:8125")
//	if err != nil {
//		log.Fatal(err)
//	}
//	defer client.Close()
//	ok, err := client.CheckAccess(ctx, grbac.Request{
//		Subject: "alice", Object: "tv", Transaction: "use",
//		Environment: []grbac.RoleID{"weekday-free-time"},
//	})
package sdk

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	grbac "github.com/aware-home/grbac"
	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/bundle"
	"github.com/aware-home/grbac/internal/faults"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/replica"
)

// Source reports which mediation path produced a Decision.
type Source string

// Mediation paths.
const (
	// SourceLocal is the in-process path: the request was evaluated
	// against the replicated snapshot in the caller's own address space.
	SourceLocal Source = "local"
	// SourceRemote is the fallback path: the request went to the primary
	// over pdp.Client, either because the flow is not locally evaluable
	// (session-scoped, sensor-dependent environment) or because the local
	// snapshot was stale under FallbackRemote.
	SourceRemote Source = "remote"
	// SourceFailSafe marks a synthesized deny: the request could not be
	// mediated locally or remotely, and the SDK failed closed.
	SourceFailSafe Source = "fail-safe"
)

// FallbackMode selects what a Client does with a locally-evaluable
// request when its snapshot is stale beyond the staleness bound.
type FallbackMode int

const (
	// FallbackRemote (the default) routes stale-snapshot requests to the
	// primary; if that fails too, the answer is a fail-safe deny.
	FallbackRemote FallbackMode = iota
	// FallbackServeStale keeps answering from the stale local snapshot,
	// marking each Decision Stale and auditing the staleness, for callers
	// that prefer availability over freshness (the paper's household
	// policies change at human timescales).
	FallbackServeStale
	// FallbackDeny fails closed the moment the snapshot is stale: every
	// locally-evaluable request gets an audited fail-safe deny until the
	// puller re-converges.
	FallbackDeny
)

// Decision is a core decision plus the provenance an embedded caller
// needs: where the answer came from and whether policy staleness was
// involved.
type Decision struct {
	grbac.Decision
	// Stale is true when the answer was produced under a stale local
	// snapshot (FallbackServeStale), synthesized fail-safe, or marked
	// stale by a degraded remote follower.
	Stale bool
	// Source is the mediation path that produced this decision.
	Source Source
}

// BatchResult pairs one batched request's decision with its error,
// index-aligned with the DecideBatch input.
type BatchResult struct {
	Decision Decision
	Err      error
}

// Stats is a point-in-time report of an embedded client's mediation
// traffic and replication health.
type Stats struct {
	// LocalDecisions counts requests answered in-process: every decision
	// the local system mediated, read off its own hit and miss counters so
	// the hot path keeps no count of its own. Direct use of System()
	// counts too.
	LocalDecisions uint64 `json:"local_decisions"`
	// RemoteFallbacks counts requests routed to the primary.
	RemoteFallbacks uint64 `json:"remote_fallbacks"`
	// FailSafeDenies counts synthesized denies (no local or remote path).
	FailSafeDenies uint64 `json:"failsafe_denies"`
	// StaleServed counts local answers served past the staleness bound
	// under FallbackServeStale.
	StaleServed uint64 `json:"stale_served"`
	// Generation is the local policy generation (the primary's generation
	// as of the last applied sync).
	Generation uint64 `json:"generation"`
	// Replication is the underlying puller's health.
	Replication replica.Stats `json:"replication"`
	// Core is the local system's decision-cache statistics.
	Core grbac.Stats `json:"core"`
}

// Client is an embedded policy enforcement point. Construct with New,
// Close when done. All methods are safe for concurrent use.
type Client struct {
	sys    *grbac.System
	puller *replica.Puller
	remote *pdp.Client

	fallback FallbackMode
	bundles  *bundle.Verifier
	auditLog *audit.Logger
	logger   *log.Logger

	maxStaleness time.Duration
	offlineStart bool
	noRemote     bool
	fetcher      replica.Fetcher

	shardRouting bool
	homeShard    string

	cancel context.CancelFunc
	done   chan struct{}

	remoteFallbacks atomic.Uint64
	failSafeDenies  atomic.Uint64
	staleServed     atomic.Uint64
}

// Option configures a Client under construction.
type Option func(*Client)

// WithMaxStaleness bounds how old the local snapshot may grow before the
// Client degrades per its FallbackMode (default 30s; d <= 0 disables
// staleness, trusting the local snapshot indefinitely).
func WithMaxStaleness(d time.Duration) Option {
	return func(c *Client) { c.maxStaleness = d }
}

// WithFallback selects the stale-snapshot behavior (default
// FallbackRemote).
func WithFallback(m FallbackMode) Option {
	return func(c *Client) { c.fallback = m }
}

// WithoutRemote disables remote fallback entirely: flows the local
// snapshot cannot evaluate get a fail-safe deny. This is the air-gapped /
// offline deployment shape.
func WithoutRemote() Option {
	return func(c *Client) { c.noRemote = true }
}

// WithBundleVerifier arms the embedded client's signed-bundle gate:
// ActivateBundle only installs bundles that verify against v's trusted
// key and advance its revision, rejecting unsigned, tampered, and stale
// bundles with the bundle package's typed errors. This is the offline /
// air-gapped policy-update path (compose with WithoutRemote and
// WithOfflineStart); on a replicating client the puller's next sync
// replaces whatever a bundle installed.
func WithBundleVerifier(v *bundle.Verifier) Option {
	return func(c *Client) { c.bundles = v }
}

// WithAudit attaches an audit logger; fail-safe denies and stale-served
// decisions are recorded on it so degraded mediation leaves a trail.
func WithAudit(l *audit.Logger) Option {
	return func(c *Client) { c.auditLog = l }
}

// WithLogger sets the sync loop's logger (default log.Default()).
func WithLogger(l *log.Logger) Option {
	return func(c *Client) { c.logger = l }
}

// WithOfflineStart lets New return before the first snapshot arrives.
// Until the puller syncs, every request follows the stale path (remote
// fallback or fail-safe deny), so a cold Client fails closed rather than
// answering from an empty default-deny policy as if it were real.
func WithOfflineStart() Option {
	return func(c *Client) { c.offlineStart = true }
}

// WithFetcher substitutes the replication transport (in-process tests).
func WithFetcher(f replica.Fetcher) Option {
	return func(c *Client) { c.fetcher = f }
}

// WithShardRouting makes the Client shard-aware: primaryURL must point at
// a grbacd -route node, whose shard map New fetches once at bootstrap,
// only to find the address of the "home" shard (homeShard by ID, or the
// map's first shard when empty). The Client replicates policy from that
// shard and mediates locally the subjects its replica holds. A subject
// the replica lacks — another shard's, one a rebalance moved away, or one
// nobody registered — goes to the router, which routes it by the
// published map, as does every session; a subject the router does not
// know either is ErrNotFound, as a local one is. Whatever the staleness
// of the snapshot, the home replica is the Client's only ownership
// signal: it follows no shard map.
func WithShardRouting(homeShard string) Option {
	return func(c *Client) {
		c.shardRouting = true
		c.homeShard = homeShard
	}
}

// bootstrapTimeout bounds how long New waits for the shard map and the
// first policy snapshot, each.
const bootstrapTimeout = 10 * time.Second

// New builds an embedded client for the primary at primaryURL, starts its
// replication puller, and — unless WithOfflineStart — blocks until the
// first policy snapshot is applied (bounded by bootstrapTimeout and ctx).
// The returned Client mediates locally from then on; Close stops the
// puller.
func New(ctx context.Context, primaryURL string, opts ...Option) (*Client, error) {
	c := &Client{
		maxStaleness: 30 * time.Second,
		logger:       log.Default(),
	}
	for _, opt := range opts {
		opt(c)
	}
	// The local system mirrors the server's mediation stack: compiled
	// snapshot, decision cache, deny-overrides — Replace installs the
	// primary's exported policy wholesale on every sync. Its clock is the
	// puller's staleness clock; only in-package tests build it themselves,
	// on a clock they can step.
	if c.sys == nil {
		c.sys = grbac.NewSystem()
	}

	feedURL := primaryURL
	if c.shardRouting {
		// Replicate from the home shard directly: the router holds no
		// policy and serves no replication feed.
		var err error
		if feedURL, err = c.homeShardAddr(ctx, primaryURL); err != nil {
			return nil, err
		}
	}

	pullerOpts := []replica.PullerOption{
		replica.WithMaxStaleness(c.maxStaleness),
		replica.WithFollowerLogger(c.logger),
	}
	if c.fetcher != nil {
		pullerOpts = append(pullerOpts, replica.WithFetcher(c.fetcher))
	}
	c.puller = replica.NewPuller(c.sys, feedURL, pullerOpts...)

	if !c.noRemote && primaryURL != "" {
		c.remote = pdp.NewClient(primaryURL, nil, pdp.WithRetry(3, 100*time.Millisecond))
	}

	runCtx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		_ = c.puller.Run(runCtx)
	}()

	if !c.offlineStart {
		bctx, bcancel := context.WithTimeout(ctx, bootstrapTimeout)
		defer bcancel()
		if err := c.puller.WaitSynced(bctx); err != nil {
			c.Close()
			return nil, fmt.Errorf("sdk: bootstrap sync from %s: %w", primaryURL, err)
		}
	}
	return c, nil
}

// Close stops the replication puller and waits for it to exit. The local
// snapshot remains readable, but decisions degrade along the stale path
// as the policy ages.
func (c *Client) Close() {
	c.cancel()
	<-c.done
}

// System exposes the local replicated decision engine for read-only use
// (queries, what-if analysis). Do not administer it: every sync replaces
// its policy wholesale.
func (c *Client) System() *grbac.System { return c.sys }

// Generation returns the local policy generation — the primary's
// generation as of the last applied sync.
func (c *Client) Generation() uint64 { return c.sys.Generation() }

// PolicyChanged returns a channel closed at the next local policy change
// (any applied sync or invalidation). Successive calls return the next
// edge; callers loop: wait, re-read, re-call. This is the push signal —
// a primary mutation travels watch → sync → generation bump, no polling.
func (c *Client) PolicyChanged() <-chan struct{} { return c.sys.GenerationChange() }

// Synced blocks until the puller has applied its first snapshot or ctx is
// done; useful after WithOfflineStart.
func (c *Client) Synced(ctx context.Context) error { return c.puller.WaitSynced(ctx) }

// Stale reports whether the local snapshot is past the staleness bound.
func (c *Client) Stale() bool { return c.puller.Stale() }

// localEvaluable reports whether the replicated snapshot alone can answer
// req. Two flows cannot: a session-scoped request (sessions are ephemeral
// primary state, never replicated) and a nil Environment (which asks for
// the live sensor-driven environment roles only the primary's
// EnvironmentSource can resolve — the replicated system has none, so
// answering locally would silently mediate against "no roles active").
func localEvaluable(req grbac.Request) bool {
	return req.Environment != nil && req.Session == ""
}

// Decide mediates one request: in-process from the replicated snapshot
// when the flow is locally evaluable and fresh, otherwise along the
// configured degradation path (remote Decide, marked-stale local answers,
// or fail-safe deny).
func (c *Client) Decide(ctx context.Context, req grbac.Request) (Decision, error) {
	if !localEvaluable(req) {
		return c.remoteDecide(ctx, req, "flow requires primary state (session or live environment)")
	}
	if c.puller.Stale() && !c.lacks(req) {
		return c.decideStale(ctx, req)
	}
	d, err := c.sys.Decide(req)
	if err != nil {
		if c.missingHere(req, err) {
			return c.decideMissing(ctx, req, err)
		}
		return Decision{}, err
	}
	return Decision{Decision: d, Source: SourceLocal}, nil
}

// CheckAccess is the boolean hot path: a warm local check is a cache read
// against the compiled snapshot — no Decision clone, zero allocations.
func (c *Client) CheckAccess(ctx context.Context, req grbac.Request) (bool, error) {
	if localEvaluable(req) && !c.puller.Stale() {
		ok, err := c.sys.CheckAccess(req)
		if err == nil || !c.missingHere(req, err) {
			return ok, err
		}
	}
	d, err := c.Decide(ctx, req)
	if err != nil {
		return false, err
	}
	return d.Allowed, nil
}

// DecideBatch mediates many requests at once. Locally-evaluable requests
// are answered against one policy snapshot (the same consistency
// guarantee the server's batch endpoint gives); the rest share one remote
// batch round trip. Results align index-for-index with reqs.
func (c *Client) DecideBatch(ctx context.Context, reqs []grbac.Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	stale := c.puller.Stale()

	var localIdx, remoteIdx []int
	for i, r := range reqs {
		switch {
		case !localEvaluable(r), stale && c.fallback == FallbackRemote:
			remoteIdx = append(remoteIdx, i)
		case stale && c.fallback == FallbackDeny && !c.lacks(r):
			out[i].Decision = c.failSafe(r, "policy snapshot stale beyond bound")
		default:
			localIdx = append(localIdx, i)
		}
	}

	if len(localIdx) > 0 {
		batch := make([]grbac.Request, len(localIdx))
		for j, i := range localIdx {
			batch[j] = reqs[i]
		}
		results := c.sys.DecideBatch(batch)
		for j, i := range localIdx {
			if err := results[j].Err; err != nil && c.missingHere(reqs[i], err) {
				remoteIdx = append(remoteIdx, i)
				continue
			}
			if results[j].Err != nil {
				out[i].Err = results[j].Err
				continue
			}
			out[i].Decision = Decision{Decision: results[j].Decision, Source: SourceLocal}
			if stale {
				c.markStaleServed(reqs[i], &out[i].Decision)
			}
		}
	}

	if len(remoteIdx) > 0 {
		c.remoteBatch(ctx, reqs, remoteIdx, out)
	}
	return out
}

// remoteBatch sends the remote-routed indices out as one batch round
// trip to the remote (the primary, or the router under WithShardRouting).
// Without a remote, or when the call fails — a reply with the wrong
// number of results included — every request gets a fail-safe deny; a
// batch the remote rejects outright gets the rejection.
func (c *Client) remoteBatch(ctx context.Context, reqs []grbac.Request, idx []int, out []BatchResult) {
	if c.remote == nil {
		for _, i := range idx {
			out[i].Decision = c.failSafe(reqs[i], "no remote fallback configured")
		}
		return
	}
	wire := make([]pdp.DecideRequest, len(idx))
	for j, i := range idx {
		wire[j] = pdp.FromCoreRequest(reqs[i])
	}
	var resp pdp.BatchDecideResponse
	err := faults.Inject(faults.SDKFallback)
	if err == nil {
		resp, err = c.remote.DecideBatch(ctx, wire)
	}
	for j, i := range idx {
		switch {
		case err != nil && definitive(err):
			out[i].Err = err
		case err != nil:
			out[i].Decision = c.failSafe(reqs[i], "remote fallback failed: "+err.Error())
		case resp.Results[j].Error != "":
			out[i].Err = fmt.Errorf("sdk: remote decide: %s", resp.Results[j].Error)
		default:
			c.remoteFallbacks.Add(1)
			out[i].Decision = Decision{
				Decision: resp.Results[j].Decision.ToCore(),
				Stale:    resp.Stale,
				Source:   SourceRemote,
			}
		}
	}
}

// decideStale handles a locally-evaluable request whose snapshot is past
// the staleness bound, per the configured FallbackMode.
func (c *Client) decideStale(ctx context.Context, req grbac.Request) (Decision, error) {
	switch c.fallback {
	case FallbackServeStale:
		d, err := c.sys.Decide(req)
		if err != nil {
			return Decision{}, err
		}
		out := Decision{Decision: d, Source: SourceLocal}
		c.markStaleServed(req, &out)
		return out, nil
	case FallbackDeny:
		return c.failSafe(req, "policy snapshot stale beyond bound"), nil
	default:
		return c.remoteDecide(ctx, req, "policy snapshot stale beyond bound")
	}
}

// remoteDecide routes one request to the primary, synthesizing a
// fail-safe deny when no remote path exists or the call fails.
func (c *Client) remoteDecide(ctx context.Context, req grbac.Request, why string) (Decision, error) {
	if c.remote == nil {
		return c.failSafe(req, why+"; no remote fallback configured"), nil
	}
	if err := faults.Inject(faults.SDKFallback); err != nil {
		return c.failSafe(req, why+"; remote fallback failed: "+err.Error()), nil
	}
	resp, err := c.remote.Decide(ctx, pdp.FromCoreRequest(req))
	if err != nil {
		if definitive(err) {
			// The primary answered and rejected the request itself (4xx):
			// that is the caller's error, not a degraded SDK — propagate it
			// instead of masking it as a fail-safe deny.
			return Decision{}, err
		}
		return c.failSafe(req, why+"; remote fallback failed: "+err.Error()), nil
	}
	c.remoteFallbacks.Add(1)
	return Decision{Decision: resp.ToCore(), Stale: resp.Stale, Source: SourceRemote}, nil
}

// definitive reports whether a remote error is the primary's considered
// rejection of the request (a non-retryable 4xx) rather than a sign the
// primary is unreachable or failing. Definitive errors propagate to the
// caller; everything else degrades to fail-safe deny.
func definitive(err error) bool {
	var re *pdp.RemoteError
	return errors.As(err, &re) &&
		re.Status >= 400 && re.Status < 500 && re.Status != http.StatusTooManyRequests
}

// markStaleServed annotates and accounts one stale-but-served local
// decision, and audits it so the trail shows freshness was traded away.
func (c *Client) markStaleServed(req grbac.Request, d *Decision) {
	d.Stale = true
	d.Reason += "; stale: local policy snapshot beyond staleness bound"
	c.staleServed.Add(1)
	if c.auditLog != nil {
		c.auditLog.Log(req, d.Decision)
	}
}

// failSafe synthesizes the closed-world answer for a request the SDK can
// mediate neither locally nor remotely, counting and auditing it. The
// deny is a degradation outcome, not an error: callers get a definitive
// (refusable) answer, and the audit trail explains why.
func (c *Client) failSafe(req grbac.Request, why string) Decision {
	d := grbac.Decision{
		Effect:      grbac.Deny,
		DefaultDeny: true,
		Strategy:    "fail-safe",
		Reason:      "fail-safe deny: " + why,
	}
	c.failSafeDenies.Add(1)
	if c.auditLog != nil {
		c.auditLog.Log(req, d)
	}
	return Decision{Decision: d, Stale: true, Source: SourceFailSafe}
}

// ActivateBundle verifies a raw signed policy bundle against the
// client's bundle verifier and, only if it verifies and advances the
// admitted revision, installs its state as the local policy. It returns
// the activated revision. Without WithBundleVerifier every bundle is
// refused: an embedded PEP never installs policy it cannot authenticate.
func (c *Client) ActivateBundle(raw []byte) (uint64, error) {
	if c.bundles == nil {
		return 0, fmt.Errorf("sdk: no bundle verifier configured: %w", bundle.ErrUnsigned)
	}
	b, err := c.bundles.Admit(raw)
	if err != nil {
		return 0, err
	}
	if err := c.sys.Replace(b.State); err != nil {
		return 0, fmt.Errorf("sdk: bundle revision %d verified but failed to install: %w",
			b.Manifest.Revision, err)
	}
	return b.Manifest.Revision, nil
}

// BundleStatus reports the client's bundle trust state (zero-valued
// without WithBundleVerifier).
func (c *Client) BundleStatus() bundle.Status { return c.bundles.Status() }

// localDecisions is Stats.LocalDecisions as the local system counts it: a
// mediated request is a cache hit or a miss, and one rejected with an error
// is neither.
func localDecisions(core grbac.Stats) uint64 {
	return core.DecisionHits + core.DecisionMisses
}

// Stats reports mediation traffic and replication health.
func (c *Client) Stats() Stats {
	core := c.sys.Stats()
	return Stats{
		LocalDecisions:  localDecisions(core),
		RemoteFallbacks: c.remoteFallbacks.Load(),
		FailSafeDenies:  c.failSafeDenies.Load(),
		StaleServed:     c.staleServed.Load(),
		Generation:      core.Generation,
		Replication:     c.puller.Stats(),
		Core:            core,
	}
}
