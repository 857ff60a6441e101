package sdk

import (
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	grbac "github.com/aware-home/grbac"
	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/faults"
	"github.com/aware-home/grbac/internal/guardtest"
	"github.com/aware-home/grbac/internal/obs"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/replica"
)

const testPolicy = `
subject role family-member;
subject role child extends family-member;
object role entertainment-devices;
env role weekday-free-time;
subject alice is child;
object tv is entertainment-devices;
transaction use;
grant child use entertainment-devices when weekday-free-time;
`

var quiet = log.New(io.Discard, "", 0)

// permitReq is the locally-evaluable request the test policy permits.
func permitReq() grbac.Request {
	return grbac.Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []grbac.RoleID{"weekday-free-time"},
	}
}

// denyGrant is the permission that flips permitReq to deny under
// deny-overrides.
func denyGrant() grbac.Permission {
	return grbac.Permission{
		Subject: "child", Object: "entertainment-devices",
		Environment: "weekday-free-time", Transaction: "use",
		Effect: grbac.Deny,
	}
}

// newPrimary boots a PDP primary with the test policy and a replication
// feed, returning its system and base URL.
func newPrimary(t testing.TB) (*grbac.System, *httptest.Server) {
	t.Helper()
	compiled, err := policy.Compile(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem()
	if err := compiled.Apply(sys, nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(pdp.NewServer(sys,
		pdp.WithReplicaSource(replica.NewSource(sys))))
	t.Cleanup(srv.Close)
	return sys, srv
}

// newEmbedded builds an embedded client against the primary with a quiet
// logger.
func newEmbedded(t testing.TB, url string, opts ...Option) *Client {
	t.Helper()
	opts = append([]Option{WithLogger(quiet)}, opts...)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := New(ctx, url, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestLocalDecideAfterBootstrap(t *testing.T) {
	_, srv := newPrimary(t)
	c := newEmbedded(t, srv.URL)

	d, err := c.Decide(context.Background(), permitReq())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed || d.Source != SourceLocal || d.Stale {
		t.Fatalf("decision = %+v, want fresh local permit", d)
	}
	ok, err := c.CheckAccess(context.Background(), permitReq())
	if err != nil || !ok {
		t.Fatalf("CheckAccess = %v, %v; want permit", ok, err)
	}
	st := c.Stats()
	if st.LocalDecisions != 2 || st.RemoteFallbacks != 0 {
		t.Fatalf("stats = %+v, want 2 local, 0 remote", st)
	}
	if st.Generation == 0 || st.Replication.Syncs == 0 {
		t.Fatalf("stats = %+v, want synced replication state", st)
	}
}

// TestGuardWarmCheckAccessZeroAllocs is guard 5 for the embedded SDK: it
// holds the embedded hot path to the core's own promise
// (TestGuardCheckAccessWarmHitZeroAllocs there). A warm local CheckAccess
// is a staleness read and a cache hit, and allocates nothing. Unlike the
// other guards it also runs under the race detector, where this path
// allocates nothing either.
func TestGuardWarmCheckAccessZeroAllocs(t *testing.T) {
	_, srv := newPrimary(t)
	c := newEmbedded(t, srv.URL)
	ctx, req := context.Background(), permitReq()
	if ok, err := c.CheckAccess(ctx, req); err != nil || !ok {
		t.Fatalf("warmup = %v, %v; want permit", ok, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if ok, err := c.CheckAccess(ctx, req); err != nil || !ok {
			t.Fatalf("CheckAccess = %v, %v; want permit", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm CheckAccess allocated %.1f objects/op, want 0", allocs)
	}
	if st := c.Stats(); st.LocalDecisions != 202 || st.Core.DecisionHits != 201 {
		t.Fatalf("stats = %+v, want 202 local decisions of which 201 hits", st)
	}
}

// countingClock is the real clock, counting the reads made of it.
type countingClock struct {
	clock.Real
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time { c.reads.Add(1); return c.Real.Now() }

func (c *countingClock) Since(t time.Time) time.Duration { c.reads.Add(1); return c.Real.Since(t) }

// quietFeed serves its source's snapshot and parks every watch until the
// puller stops: an unchanging primary that sends no keepalive, so once
// synced nothing but the test's own calls reads the replica's clock.
type quietFeed struct{ src *replica.Source }

func (q quietFeed) Snapshot(context.Context) (replica.Snapshot, error) {
	return q.src.Snapshot(), nil
}

func (q quietFeed) Watch(ctx context.Context, _ string, _ uint64) (replica.WatchResponse, error) {
	<-ctx.Done()
	return replica.WatchResponse{}, ctx.Err()
}

// TestGuardWarmEmbeddedCheckReadsNoClock is guard 17: while the last
// contact with the primary is recent, the staleness check is a state load,
// not a clock read. A warm embedded CheckAccess makes 0 reads of its
// System's clock and 0 allocs, and a follower pdp.Server's /v1/check makes
// 0 reads of its System's clock either.
func TestGuardWarmEmbeddedCheckReadsNoClock(t *testing.T) {
	src := replica.NewSource(compileSystem(t))
	clk := &countingClock{}
	c := newEmbedded(t, "", WithFetcher(quietFeed{src}), withClock(clk))
	ctx, req := context.Background(), permitReq()
	if ok, err := c.CheckAccess(ctx, req); err != nil || !ok {
		t.Fatalf("warmup = %v, %v; want permit", ok, err)
	}
	before := clk.reads.Load()
	allocs := testing.AllocsPerRun(200, func() {
		if ok, err := c.CheckAccess(ctx, req); err != nil || !ok {
			t.Fatalf("CheckAccess = %v, %v; want permit", ok, err)
		}
	})
	if reads := clk.reads.Load() - before; reads != 0 || allocs != 0 {
		t.Fatalf("warm CheckAccess: %d clock reads in 201 calls and %.1f allocs/op, want 0 and 0", reads, allocs)
	}

	fclk := &countingClock{}
	fsys := grbac.NewSystem(grbac.WithClock(fclk))
	f := replica.NewFollower(fsys, "", replica.WithFetcher(quietFeed{src}),
		replica.WithFollowerLogger(quiet))
	runCtx, stop := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() { defer close(done); _ = f.Run(runCtx) }()
	t.Cleanup(func() { stop(); <-done })
	syncCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := f.WaitSynced(syncCtx); err != nil {
		t.Fatal(err)
	}
	srv := pdp.NewServer(fsys, pdp.WithFollower(f))
	check := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(
			`{"subject":"alice","object":"tv","transaction":"use","environment":["weekday-free-time"]}`)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"allowed":true`) {
			t.Fatalf("follower /v1/check = %d %s, want a permit", rec.Code, rec.Body)
		}
	}
	check()
	before = fclk.reads.Load()
	for i := 0; i < 100; i++ {
		check()
	}
	if reads := fclk.reads.Load() - before; reads != 0 {
		t.Fatalf("follower /v1/check: %d reads of its System's clock in 100 checks, want 0", reads)
	}
}

// TestLocalDecisionsExactUnderConcurrentCheckAccess pins Stats.LocalDecisions
// as an exact count while 8 goroutines check at once: half of each
// goroutine's calls share one hot request, the other half carry an
// identity credential only that goroutine sends.
func TestLocalDecisionsExactUnderConcurrentCheckAccess(t *testing.T) {
	_, srv := newPrimary(t)
	c := newEmbedded(t, srv.URL)
	const goroutines, perGoroutine = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := permitReq()
			own.Credentials = grbac.CredentialSet{grbac.IdentityCredential("alice", 0.5+float64(g)/100, "test")}
			for i := 0; i < perGoroutine; i++ {
				req := permitReq()
				if i%2 == 1 {
					req = own
				}
				if _, err := c.CheckAccess(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.LocalDecisions != goroutines*perGoroutine || st.RemoteFallbacks != 0 {
		t.Fatalf("stats = %+v, want %d local decisions and no fallback", st, goroutines*perGoroutine)
	}
}

// TestGuardNoLockOnEmbeddedCheckAccess is guard 6 through the embedded
// SDK: warm CheckAccess from 2 and from 8 goroutines at once must show no
// sync.Mutex or sync.RWMutex contention below the SDK wrapper itself
// (shard view, fallback, stats), Puller.Stale, or the core's Decide and
// CheckAccess.
func TestGuardNoLockOnEmbeddedCheckAccess(t *testing.T) {
	_, srv := newPrimary(t)
	c := newEmbedded(t, srv.URL)
	ctx, req := context.Background(), permitReq()
	if ok, err := c.CheckAccess(ctx, req); err != nil || !ok {
		t.Fatalf("warmup = %v, %v; want permit", ok, err)
	}
	const focus = `sdk\.\(\*Client\)\.CheckAccess$|replica\.\(\*Puller\)\.Stale$|core\.\(\*System\)\.(CheckAccess|Decide)$`
	guardtest.NoLockContention(t, focus, func() {
		if ok, err := c.CheckAccess(ctx, req); err != nil || !ok {
			t.Errorf("CheckAccess = %v, %v; want permit", ok, err)
		}
	})
}

// TestWatchInvalidationFlipsDecision is the push-invalidation contract:
// a mutation on the primary must reach the embedded node's next decision
// through the watch feed — the test waits on the policy-change signal,
// never on a polling sleep.
func TestWatchInvalidationFlipsDecision(t *testing.T) {
	primary, srv := newPrimary(t)
	c := newEmbedded(t, srv.URL)

	if ok, err := c.CheckAccess(context.Background(), permitReq()); err != nil || !ok {
		t.Fatalf("pre-mutation CheckAccess = %v, %v; want permit", ok, err)
	}

	// Arm the signal before mutating so the edge cannot be missed.
	ch := c.PolicyChanged()
	if err := primary.Grant(denyGrant()); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("mutation never reached the embedded node; stats %+v", c.Stats())
		}
		d, err := c.Decide(context.Background(), permitReq())
		if err != nil {
			t.Fatal(err)
		}
		if !d.Allowed {
			if d.Source != SourceLocal {
				t.Fatalf("flipped decision came from %s, want local", d.Source)
			}
			return
		}
		// The generation moved but our mutation hasn't applied yet
		// (e.g. an intermediate sync); re-arm and keep waiting.
		ch = c.PolicyChanged()
	}
}

// TestRemoteFallbackForPrimaryOnlyFlows: session-scoped requests and nil
// environments depend on state that never replicates (sessions, live
// sensors), so they must route to the primary even with a fresh snapshot.
func TestRemoteFallbackForPrimaryOnlyFlows(t *testing.T) {
	primary, srv := newPrimary(t)
	c := newEmbedded(t, srv.URL)

	// Nil environment: the primary resolves its own (absent) environment
	// source; the point is the routing, not the outcome.
	req := permitReq()
	req.Environment = nil
	d, err := c.Decide(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Source != SourceRemote {
		t.Fatalf("nil-environment decision came from %s, want remote", d.Source)
	}

	// Session-scoped: the session exists only on the primary. A local
	// attempt would fail ErrNoSession; the remote path must answer.
	sess, err := primary.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.ActivateRole(sess, "child"); err != nil {
		t.Fatal(err)
	}
	sreq := permitReq()
	sreq.Session = sess
	d, err = c.Decide(context.Background(), sreq)
	if err != nil {
		t.Fatal(err)
	}
	if d.Source != SourceRemote || !d.Allowed {
		t.Fatalf("session decision = %+v, want remote permit", d)
	}
	if st := c.Stats(); st.RemoteFallbacks != 2 {
		t.Fatalf("remote fallbacks = %d, want 2", st.RemoteFallbacks)
	}
}

// TestRemoteErrorsPropagateWhenDefinitive: the primary's considered 4xx
// rejection is the caller's error and must surface as one; it is not a
// degradation the SDK may paper over with a fail-safe deny.
func TestRemoteErrorsPropagateWhenDefinitive(t *testing.T) {
	_, srv := newPrimary(t)
	c := newEmbedded(t, srv.URL)

	req := grbac.Request{Subject: "nobody", Object: "tv", Transaction: "use"}
	_, err := c.Decide(context.Background(), req)
	if err == nil || !errors.Is(err, pdp.ErrRemote) {
		t.Fatalf("unknown-subject decide err = %v, want remote 4xx", err)
	}
	if st := c.Stats(); st.FailSafeDenies != 0 {
		t.Fatalf("definitive rejection counted as fail-safe: %+v", st)
	}
}

// TestOfflineFailSafeDeny: with no remote fallback, flows the snapshot
// cannot evaluate fail closed, and the denial is audited with a reason
// that names the degradation.
func TestOfflineFailSafeDeny(t *testing.T) {
	_, srv := newPrimary(t)
	trail := audit.NewLogger()
	c := newEmbedded(t, srv.URL, WithoutRemote(), WithAudit(trail))

	req := permitReq()
	req.Environment = nil // sensor-dependent: not locally evaluable
	d, err := c.Decide(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed || d.Source != SourceFailSafe || !d.DefaultDeny || !d.Stale {
		t.Fatalf("offline decision = %+v, want fail-safe deny", d)
	}
	if !strings.Contains(d.Reason, "fail-safe") {
		t.Fatalf("reason %q does not name the fail-safe", d.Reason)
	}
	if st := c.Stats(); st.FailSafeDenies != 1 {
		t.Fatalf("fail-safe denies = %d, want 1", st.FailSafeDenies)
	}
	recs := trail.Records()
	if len(recs) != 1 || !strings.Contains(recs[0].Reason, "fail-safe") {
		t.Fatalf("audit trail = %+v, want one fail-safe record", recs)
	}
}

// localSource is an in-process replication transport over replica.Source,
// with a switchable failure mode to simulate a partitioned primary.
type localSource struct {
	mu   sync.Mutex
	src  *replica.Source
	fail error
}

func (l *localSource) setFail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fail = err
}

func (l *localSource) current() (*replica.Source, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.src, l.fail
}

func (l *localSource) Snapshot(ctx context.Context) (replica.Snapshot, error) {
	src, fail := l.current()
	if fail != nil {
		return replica.Snapshot{}, fail
	}
	return src.Snapshot(), nil
}

func (l *localSource) Watch(ctx context.Context, epoch string, after uint64) (replica.WatchResponse, error) {
	src, fail := l.current()
	if fail != nil {
		return replica.WatchResponse{}, fail
	}
	wctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	gen := src.Wait(wctx, epoch, after)
	return replica.WatchResponse{Epoch: src.Epoch(), Generation: gen}, nil
}

// compileSystem builds a local primary system from the test policy.
func compileSystem(t testing.TB) *core.System {
	t.Helper()
	compiled, err := policy.Compile(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem()
	if err := compiled.Apply(sys, nil); err != nil {
		t.Fatal(err)
	}
	return sys
}

// withClock builds the client's local System on clk, which the puller
// then reads and arms as its staleness clock.
func withClock(clk grbac.Clock) Option {
	return func(c *Client) { c.sys = grbac.NewSystem(grbac.WithClock(clk)) }
}

// staleClient builds an embedded client over an in-process feed, then
// partitions it from the primary and advances a fake clock past the
// staleness bound, returning the stale client.
func staleClient(t *testing.T, opts ...Option) *Client {
	t.Helper()
	fetch := &localSource{src: replica.NewSource(compileSystem(t))}
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	opts = append([]Option{
		WithFetcher(fetch),
		WithMaxStaleness(time.Second),
		withClock(clk),
	}, opts...)
	c := newEmbedded(t, "", opts...)

	if ok, err := c.CheckAccess(context.Background(), permitReq()); err != nil || !ok {
		t.Fatalf("fresh CheckAccess = %v, %v; want permit", ok, err)
	}
	fetch.setFail(errors.New("partitioned"))
	clk.Advance(5 * time.Second)
	if !c.Stale() {
		t.Fatal("client not stale after partition + clock advance")
	}
	return c
}

// TestStaleAfterCloseOnSchedule: Close stops the puller, not the
// staleness deadline, so a closed client's decisions still degrade along
// the stale path once the bound has passed.
func TestStaleAfterCloseOnSchedule(t *testing.T) {
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	c := newEmbedded(t, "", WithFetcher(&localSource{src: replica.NewSource(compileSystem(t))}),
		WithMaxStaleness(time.Second), withClock(clk))
	c.Close()
	clk.Advance(time.Second)
	if c.Stale() {
		t.Fatal("closed client stale at the bound, before it has passed")
	}
	clk.Advance(1)
	if !c.Stale() || c.Stats().Replication.Stale != c.Stale() {
		t.Fatalf("closed client past the bound: Stale() = %v, Stats().Replication.Stale = %v, want both true",
			c.Stale(), c.Stats().Replication.Stale)
	}
	if ok, err := c.CheckAccess(context.Background(), permitReq()); err != nil || ok {
		t.Fatalf("stale closed client CheckAccess = %v, %v; want a fail-safe deny", ok, err)
	}
}

func TestStaleFallbackDeny(t *testing.T) {
	trail := audit.NewLogger()
	c := staleClient(t, WithFallback(FallbackDeny), WithAudit(trail))

	d, err := c.Decide(context.Background(), permitReq())
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed || d.Source != SourceFailSafe || !strings.Contains(d.Reason, "stale") {
		t.Fatalf("stale decision = %+v, want fail-safe deny naming staleness", d)
	}
	if len(trail.Records()) != 1 {
		t.Fatalf("audit records = %d, want 1", len(trail.Records()))
	}
	// The boolean path degrades identically.
	ok, err := c.CheckAccess(context.Background(), permitReq())
	if err != nil || ok {
		t.Fatalf("stale CheckAccess = %v, %v; want deny", ok, err)
	}
}

func TestStaleFallbackServeStale(t *testing.T) {
	trail := audit.NewLogger()
	c := staleClient(t, WithFallback(FallbackServeStale), WithAudit(trail))

	d, err := c.Decide(context.Background(), permitReq())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed || !d.Stale || d.Source != SourceLocal {
		t.Fatalf("stale decision = %+v, want marked-stale local permit", d)
	}
	if !strings.Contains(d.Reason, "stale") {
		t.Fatalf("reason %q does not mark staleness", d.Reason)
	}
	if st := c.Stats(); st.StaleServed != 1 {
		t.Fatalf("stale served = %d, want 1", st.StaleServed)
	}
	if len(trail.Records()) != 1 {
		t.Fatalf("audit records = %d, want 1", len(trail.Records()))
	}
}

func TestStaleFallbackRemoteWithoutRemoteFailsSafe(t *testing.T) {
	// FallbackRemote (the default), but the client was built with no
	// primary URL: the remote leg is missing, so stale degrades to deny.
	c := staleClient(t)
	d, err := c.Decide(context.Background(), permitReq())
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed || d.Source != SourceFailSafe {
		t.Fatalf("stale decision = %+v, want fail-safe deny", d)
	}
}

// TestFaultInjectedFallbackFailsSafe: the chaos hook on the remote leg
// turns fallback attempts into fail-safe denies.
func TestFaultInjectedFallbackFailsSafe(t *testing.T) {
	_, srv := newPrimary(t)
	c := newEmbedded(t, srv.URL)

	plan := faults.NewPlan(1, faults.Rule{
		Point:  faults.SDKFallback,
		Action: faults.Action{Err: errors.New("injected outage")},
	})
	faults.Activate(plan)
	defer faults.Deactivate()

	req := permitReq()
	req.Environment = nil // forces the remote leg
	d, err := c.Decide(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed || d.Source != SourceFailSafe || !strings.Contains(d.Reason, "injected outage") {
		t.Fatalf("injected-fault decision = %+v, want fail-safe deny", d)
	}
	// Local mediation is untouched by the remote-leg fault.
	if ok, err := c.CheckAccess(context.Background(), permitReq()); err != nil || !ok {
		t.Fatalf("local CheckAccess under fault = %v, %v; want permit", ok, err)
	}
}

func TestDecideBatchPartitionsLocalAndRemote(t *testing.T) {
	primary, srv := newPrimary(t)
	c := newEmbedded(t, srv.URL)

	sess, err := primary.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.ActivateRole(sess, "child"); err != nil {
		t.Fatal(err)
	}

	nilEnv := permitReq()
	nilEnv.Environment = nil
	sessReq := permitReq()
	sessReq.Session = sess
	reqs := []grbac.Request{permitReq(), nilEnv, permitReq(), sessReq}

	out := c.DecideBatch(context.Background(), reqs)
	if len(out) != 4 {
		t.Fatalf("batch returned %d results, want 4", len(out))
	}
	wantSource := []Source{SourceLocal, SourceRemote, SourceLocal, SourceRemote}
	// The nil-environment item denies: the primary has no environment
	// source, so no environment roles are active and the grant's
	// weekday-free-time condition cannot hold. The routing is the point.
	wantAllowed := []bool{true, false, true, true}
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.Decision.Source != wantSource[i] {
			t.Fatalf("result %d source = %s, want %s", i, r.Decision.Source, wantSource[i])
		}
		if r.Decision.Allowed != wantAllowed[i] {
			t.Fatalf("result %d = %+v, want allowed=%v", i, r.Decision, wantAllowed[i])
		}
	}
	st := c.Stats()
	if st.LocalDecisions != 2 || st.RemoteFallbacks != 2 {
		t.Fatalf("stats = %+v, want 2 local + 2 remote", st)
	}
}

// TestConcurrentReplaceDuringDecideBatch is the snapshot-consistency
// regression test for the SDK path: while the puller applies wholesale
// core.Replace swaps (full snapshot syncs), in-flight DecideBatch calls
// must answer every item in one batch against one policy version — the
// toggled permission may flip between batches, never within one. Run
// under -race this also proves the swap itself is safe.
func TestConcurrentReplaceDuringDecideBatch(t *testing.T) {
	primary := compileSystem(t)
	fetch := &localSource{src: replica.NewSource(primary)}
	c := newEmbedded(t, "", WithFetcher(fetch))

	stop := make(chan struct{})
	var flips atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		deny := denyGrant()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := primary.Grant(deny); err != nil {
				t.Error(err)
				return
			}
			if err := primary.Revoke(deny); err != nil {
				t.Error(err)
				return
			}
			flips.Add(1)
		}
	}()

	const batchSize = 16
	reqs := make([]grbac.Request, batchSize)
	for i := range reqs {
		reqs[i] = permitReq()
	}
	deadline := time.Now().Add(2 * time.Second)
	batches := 0
	for time.Now().Before(deadline) {
		out := c.DecideBatch(context.Background(), reqs)
		first := out[0].Decision.Allowed
		for i, r := range out {
			if r.Err != nil {
				t.Fatalf("batch %d item %d: %v", batches, i, r.Err)
			}
			if r.Decision.Allowed != first {
				t.Fatalf("batch %d split mid-flight: item 0 allowed=%v, item %d allowed=%v",
					batches, first, i, r.Decision.Allowed)
			}
		}
		batches++
	}
	close(stop)
	wg.Wait()
	if batches == 0 || flips.Load() == 0 {
		t.Fatalf("no overlap exercised: %d batches, %d flips", batches, flips.Load())
	}
}

// TestRegisterMetrics: the SDK's series and the puller's series land on
// one registry and scrape with live values.
func TestRegisterMetrics(t *testing.T) {
	_, srv := newPrimary(t)
	c := newEmbedded(t, srv.URL)
	if _, err := c.Decide(context.Background(), permitReq()); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"grbac_sdk_local_decisions_total 1",
		"grbac_sdk_policy_generation",
		"grbac_replica_syncs_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestOfflineStartFailsClosedUntilSynced: WithOfflineStart returns a
// client before the first snapshot; until sync it must not answer from
// the empty local policy as if it were real.
func TestOfflineStartFailsClosedUntilSynced(t *testing.T) {
	fetch := &localSource{}
	fetch.setFail(errors.New("primary down"))
	c := newEmbedded(t, "", WithOfflineStart(), WithFetcher(fetch))

	d, err := c.Decide(context.Background(), permitReq())
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed || d.Source != SourceFailSafe {
		t.Fatalf("unsynced decision = %+v, want fail-safe deny", d)
	}

	// The primary comes up; the client converges and serves locally.
	fetch.mu.Lock()
	fetch.src = replica.NewSource(compileSystem(t))
	fetch.fail = nil
	fetch.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Synced(ctx); err != nil {
		t.Fatal(err)
	}
	d, err = c.Decide(context.Background(), permitReq())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed || d.Source != SourceLocal {
		t.Fatalf("post-sync decision = %+v, want local permit", d)
	}
}
