package pdp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/shard"
)

// sharedPolicy is the policy replicated to every shard: roles, objects,
// transactions, permissions — everything except subjects, which are
// partitioned across shards by the router.
const sharedPolicy = `
subject role family-member;
subject role child extends family-member;
object role entertainment-devices;
env role weekday-free-time;
object tv is entertainment-devices;
transaction use;
grant child use entertainment-devices when weekday-free-time;
`

// routerCluster is a router fronting n real shards, each a full
// pdp.Server over its own core.System with the shared policy applied,
// following the router's shard-map feed.
type routerCluster struct {
	rt     *Router
	front  *httptest.Server    // the router's HTTP face
	feed   string              // the router's URL, known before it starts
	feeds  map[string]*MapFeed // shard ID → the shard's map feed
	m      *shard.Map
	sys    map[string]*core.System     // shard ID → policy system
	trails map[string]*audit.Logger    // shard ID → shard audit trail
	shards map[string]*httptest.Server // shard ID → shard server
	client *Client                     // client pointed at the router
}

func newRouterCluster(t *testing.T, n int, opts ...RouterOption) *routerCluster {
	t.Helper()
	compiled, err := policy.Compile(sharedPolicy)
	if err != nil {
		t.Fatal(err)
	}
	c := &routerCluster{
		front:  httptest.NewUnstartedServer(nil),
		sys:    make(map[string]*core.System, n),
		trails: make(map[string]*audit.Logger, n),
		shards: make(map[string]*httptest.Server, n),
		feeds:  make(map[string]*MapFeed, n),
	}
	t.Cleanup(c.front.Close)
	c.feed = "http://" + c.front.Listener.Addr().String()
	infos := make([]shard.Info, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i)
		sys := core.NewSystem()
		if err := compiled.Apply(sys, nil); err != nil {
			t.Fatal(err)
		}
		c.trails[id] = audit.NewLogger()
		srv := httptest.NewServer(NewServer(sys, WithAdmin(), WithAuditLogger(c.trails[id]), c.follow(t, id)))
		t.Cleanup(srv.Close)
		c.sys[id] = sys
		c.shards[id] = srv
		infos[i] = shard.Info{ID: id, Addr: srv.URL}
	}
	c.m, err = shard.New(0, infos...)
	if err != nil {
		t.Fatal(err)
	}
	c.rt, err = NewRouter(c.m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	c.front.Config.Handler = c.rt
	c.front.Start()
	c.client = NewClient(c.front.URL, nil)
	// A following shard answers only for what it holds until its feed's
	// first fetch.
	for id, f := range c.feeds {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := f.await(ctx, func(*MapView) bool { return true })
		cancel()
		if err != nil {
			t.Fatalf("shard %s never fetched the map: %v", id, err)
		}
	}
	return c
}

// follow makes a shard follow the router's shard-map feed as the shard
// named id, until the test ends.
func (c *routerCluster) follow(t *testing.T, id string) ServerOption {
	t.Helper()
	f := NewMapFeed(c.feed, log.New(io.Discard, "", 0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	c.feeds[id] = f
	return WithMapFeed(id, f)
}

// coordinator builds a rebalance coordinator that publishes through the
// cluster's router.
func (c *routerCluster) coordinator(t *testing.T) *shard.Coordinator {
	return shard.NewCoordinator(filepath.Join(t.TempDir(), "rebalance.journal"),
		func(info shard.Info) shard.NodeClient { return NewMigrationNode(info.Addr) },
		func(_ context.Context, m *shard.Map) error { return c.rt.SetPending(m) },
		func(_ context.Context, m *shard.Map) error { return c.rt.SetMap(m) },
		t.Logf)
}

// addSubjects registers subjects through the router (which routes each to
// its owning shard) and returns them.
func (c *routerCluster) addSubjects(t *testing.T, n int) []string {
	t.Helper()
	ctx := context.Background()
	subs := make([]string, n)
	for i := range subs {
		subs[i] = fmt.Sprintf("subject-%03d", i)
		if err := c.client.UpsertSubject(ctx, BindingRequest{ID: subs[i], Roles: []string{"child"}}); err != nil {
			t.Fatalf("UpsertSubject(%s): %v", subs[i], err)
		}
	}
	return subs
}

func permitReq(sub string) DecideRequest {
	return DecideRequest{
		Subject: sub, Object: "tv", Transaction: "use",
		Environment: []string{"weekday-free-time"},
	}
}

// TestRouterPartitionsSubjects pins the tentpole invariant: every subject
// lands on exactly the shard the hash ring names, no shard holds another
// shard's subjects, and decisions through the router answer for all of
// them.
func TestRouterPartitionsSubjects(t *testing.T) {
	c := newRouterCluster(t, 4)
	subs := c.addSubjects(t, 48)
	ctx := context.Background()

	shardsHit := map[string]bool{}
	for _, sub := range subs {
		owner := c.m.Owner(sub).ID
		shardsHit[owner] = true
		// The subject must exist on its owner and nowhere else.
		for id, sys := range c.sys {
			found := false
			for _, s := range sys.SubjectsInRole("child") {
				if string(s) == sub {
					found = true
					break
				}
			}
			if found != (id == owner) {
				t.Fatalf("subject %s on shard %s: found=%v, owner=%s", sub, id, found, owner)
			}
		}
		resp, err := c.client.Decide(ctx, permitReq(sub))
		if err != nil {
			t.Fatalf("Decide(%s) through router: %v", sub, err)
		}
		if !resp.Allowed {
			t.Fatalf("Decide(%s) = %+v, want allowed", sub, resp)
		}
	}
	if len(shardsHit) != 4 {
		t.Fatalf("48 subjects spread over only %d/4 shards", len(shardsHit))
	}
}

// TestRouterSessionLifecycle pins the session contract: the router
// returns the ID the owner shard minted, core's "sess-<n>-<subject>", and
// every session-scoped call routes to the owner of the subject it names.
func TestRouterSessionLifecycle(t *testing.T) {
	c := newRouterCluster(t, 3)
	subs := c.addSubjects(t, 6)
	ctx := context.Background()

	for _, sub := range subs {
		sid, err := c.client.OpenSession(ctx, sub)
		if err != nil {
			t.Fatalf("OpenSession(%s): %v", sub, err)
		}
		if got, ok := core.SessionSubject(core.SessionID(sid)); !ok || string(got) != sub {
			t.Fatalf("session ID %q is not core's sess-<n>-%s", sid, sub)
		}
		if _, err := c.sys[c.m.Owner(sub).ID].Session(core.SessionID(sid)); err != nil {
			t.Fatalf("session %q not on its subject's owner: %v", sid, err)
		}

		// Fresh session, no active roles: deny (§4.1.2 least privilege).
		ok2, err := c.client.Check(ctx, DecideRequest{
			Subject: sub, Session: sid, Object: "tv", Transaction: "use",
			Environment: []string{"weekday-free-time"},
		})
		if err != nil {
			t.Fatalf("Check(session %s): %v", sid, err)
		}
		if ok2 {
			t.Fatal("session with no active roles permitted")
		}
		if err := c.client.SetSessionRole(ctx, sid, "child", true); err != nil {
			t.Fatalf("SetSessionRole(%s): %v", sid, err)
		}
		ok2, err = c.client.Check(ctx, DecideRequest{
			Subject: sub, Session: sid, Object: "tv", Transaction: "use",
			Environment: []string{"weekday-free-time"},
		})
		if err != nil || !ok2 {
			t.Fatalf("Check(session %s, child active) = %v, %v, want permit", sid, ok2, err)
		}
		if err := c.client.CloseSession(ctx, sid); err != nil {
			t.Fatalf("CloseSession(%s): %v", sid, err)
		}
		if _, err := c.client.Check(ctx, DecideRequest{
			Subject: sub, Session: sid, Object: "tv", Transaction: "use",
		}); err == nil {
			t.Fatal("closed session still decides")
		}
	}

	// An ID naming no subject cannot be placed: a malformed request (400),
	// never a shard call. An unknown session of a known subject reaches
	// that subject's owner, which answers 404.
	for _, bad := range []struct {
		session string
		status  string
	}{
		{"ghost", "400"},
		{"s1/sess-1-" + subs[0], "400"},
		{"sess-999-" + subs[0], "404"},
	} {
		_, err := c.client.Check(ctx, DecideRequest{Session: bad.session, Object: "tv", Transaction: "use"})
		if err == nil || !strings.Contains(err.Error(), bad.status) {
			t.Fatalf("Check(session %q) = %v, want %s", bad.session, err, bad.status)
		}
	}
}

// TestRouterSessionOnlyCheck pins that a check or decide naming a session
// and no subject routes to the owner of the subject its ID names and
// mediates as that subject: deny while no role is active, permit once
// child is.
func TestRouterSessionOnlyCheck(t *testing.T) {
	c := newRouterCluster(t, 3)
	ctx := context.Background()
	for _, sub := range c.addSubjects(t, 3) {
		sid, err := c.client.OpenSession(ctx, sub)
		if err != nil {
			t.Fatalf("OpenSession(%s): %v", sub, err)
		}
		req := DecideRequest{Session: sid, Object: "tv", Transaction: "use",
			Environment: []string{"weekday-free-time"}}
		if ok, err := c.client.Check(ctx, req); err != nil || ok {
			t.Fatalf("session-only Check(%s), nothing active = %v, %v, want deny", sid, ok, err)
		}
		if err := c.client.SetSessionRole(ctx, sid, "child", true); err != nil {
			t.Fatalf("SetSessionRole(%s): %v", sid, err)
		}
		if ok, err := c.client.Check(ctx, req); err != nil || !ok {
			t.Fatalf("session-only Check(%s), child active = %v, %v, want permit", sid, ok, err)
		}
		d, err := c.client.Decide(ctx, req)
		if err != nil || !d.Allowed {
			t.Fatalf("session-only Decide(%s) = %+v, %v, want permit", sid, d, err)
		}
	}
}

// TestRouterBroadcastAdmin pins that shared-policy mutations reach every
// shard: a role granted through the router is decidable on all shards.
func TestRouterBroadcastAdmin(t *testing.T) {
	c := newRouterCluster(t, 3)
	ctx := context.Background()

	if err := c.client.CreateRole(ctx, RoleRequest{ID: "guest", Kind: "subject"}); err != nil {
		t.Fatalf("CreateRole through router: %v", err)
	}
	if err := c.client.CreateTransaction(ctx, TransactionRequest{ID: "view"}); err != nil {
		t.Fatalf("CreateTransaction through router: %v", err)
	}
	if err := c.client.GrantPermission(ctx, PermissionRequest{
		Subject: "guest", Object: "entertainment-devices", Transaction: "view",
		Environment: "weekday-free-time", Effect: "permit",
	}); err != nil {
		t.Fatalf("GrantPermission through router: %v", err)
	}
	// Every shard must now hold the new policy: a guest subject placed on
	// any shard gets the permission.
	for id, sys := range c.sys {
		if err := sys.AddSubject(core.SubjectID("probe-" + id)); err != nil {
			t.Fatal(err)
		}
		if err := sys.AssignSubjectRole(core.SubjectID("probe-"+id), "guest"); err != nil {
			t.Fatalf("shard %s missing broadcast role: %v", id, err)
		}
		allowed, err := sys.CheckAccess(core.Request{
			Subject: core.SubjectID("probe-" + id), Object: "tv", Transaction: "view",
			Environment: []core.RoleID{"weekday-free-time"},
		})
		if err != nil || !allowed {
			t.Fatalf("shard %s: broadcast permission not decidable: %v %v", id, allowed, err)
		}
	}
}

// TestRouterScatterSubjectsInRole pins the scatter-union contract: the
// router's answer is the union of every shard's partition, sorted.
func TestRouterScatterSubjectsInRole(t *testing.T) {
	c := newRouterCluster(t, 4)
	subs := c.addSubjects(t, 32)

	resp, err := http.Get(c.front.URL + "/v1/query/subjects-in-role?role=child")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scatter status = %d", resp.StatusCode)
	}
	var out ScatterSubjectsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Partial {
		t.Fatal("healthy cluster answered partial")
	}
	want := append([]string(nil), subs...)
	sort.Strings(want)
	if len(out.Subjects) != len(want) {
		t.Fatalf("union has %d subjects, want %d", len(out.Subjects), len(want))
	}
	for i := range want {
		if out.Subjects[i] != want[i] {
			t.Fatalf("union[%d] = %q, want %q", i, out.Subjects[i], want[i])
		}
	}

	// who-can unions the same way, and an env value with an empty item
	// ("a,,b") reaches the shards, which drop the empty item.
	for _, env := range [][]string{{"weekday-free-time"}, {"weekday-free-time", "", "weekday-free-time"}} {
		got, err := c.client.WhoCan(context.Background(), "use", "tv", env)
		if err != nil {
			t.Fatalf("WhoCan(env %q) through router: %v", env, err)
		}
		if len(got) != len(want) {
			t.Fatalf("who-can(env %q) union = %d subjects, want %d", env, len(got), len(want))
		}
	}
}

// TestRouterBatchSplitsAndMerges pins DecideBatch semantics: requests
// grouped per owning shard, dispatched concurrently, merged back in
// request order.
func TestRouterBatchSplitsAndMerges(t *testing.T) {
	c := newRouterCluster(t, 4)
	subs := c.addSubjects(t, 24)
	ctx := context.Background()

	reqs := make([]DecideRequest, 0, len(subs)+1)
	for i, sub := range subs {
		r := permitReq(sub)
		if i%3 == 2 {
			r.Environment = []string{} // outside the window → deny
		}
		reqs = append(reqs, r)
	}
	reqs = append(reqs, permitReq("nobody")) // unknown subject → item error

	resp, err := c.client.DecideBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("DecideBatch through router: %v", err)
	}
	if len(resp.Results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(resp.Results), len(reqs))
	}
	for i, item := range resp.Results[:len(subs)] {
		if item.Error != "" {
			t.Fatalf("item %d (%s): unexpected error %q", i, subs[i], item.Error)
		}
		wantAllow := i%3 != 2
		if item.Decision == nil || item.Decision.Allowed != wantAllow {
			t.Fatalf("item %d (%s) = %+v, want allowed=%v — merge broke request order",
				i, subs[i], item.Decision, wantAllow)
		}
	}
	if last := resp.Results[len(reqs)-1]; last.Error == "" {
		t.Fatalf("unknown subject item = %+v, want error", last)
	}
}

// TestRouterShardDown pins partial-failure semantics when a shard is
// unreachable: strict scatters fail loudly naming the shard, allow_partial
// degrades to the reachable union, batches fail only the dead shard's
// items, and single decides relay a typed 502.
func TestRouterShardDown(t *testing.T) {
	c := newRouterCluster(t, 4)
	subs := c.addSubjects(t, 32)
	ctx := context.Background()

	// Kill one shard that owns at least one subject.
	victim := c.m.Owner(subs[0]).ID
	c.shards[victim].Close()
	var deadSubs, liveSubs []string
	for _, sub := range subs {
		if c.m.Owner(sub).ID == victim {
			deadSubs = append(deadSubs, sub)
		} else {
			liveSubs = append(liveSubs, sub)
		}
	}

	// Strict scatter: 502 with the dead shard named.
	resp, err := http.Get(c.front.URL + "/v1/query/subjects-in-role?role=child")
	if err != nil {
		t.Fatal(err)
	}
	var strict ShardErrorsResponse
	if err := json.NewDecoder(resp.Body).Decode(&strict); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("strict scatter with dead shard = %d, want 502", resp.StatusCode)
	}
	if _, named := strict.ShardErrors[victim]; !named || len(strict.ShardErrors) != 1 {
		t.Fatalf("shard_errors = %v, want exactly %q", strict.ShardErrors, victim)
	}

	// allow_partial: 200 with the live union and the failure disclosed.
	resp, err = http.Get(c.front.URL + "/v1/query/subjects-in-role?role=child&allow_partial=1")
	if err != nil {
		t.Fatal(err)
	}
	var partial ScatterSubjectsResponse
	if err := json.NewDecoder(resp.Body).Decode(&partial); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("allow_partial scatter = %d, want 200", resp.StatusCode)
	}
	if !partial.Partial {
		t.Fatal("degraded answer not marked partial")
	}
	if len(partial.Subjects) != len(liveSubs) {
		t.Fatalf("partial union = %d subjects, want %d (live shards only)",
			len(partial.Subjects), len(liveSubs))
	}
	if _, named := partial.ShardErrors[victim]; !named {
		t.Fatalf("partial reply does not disclose dead shard: %v", partial.ShardErrors)
	}

	// Batch: dead shard's items carry typed errors, the rest answer, order
	// preserved.
	reqs := make([]DecideRequest, len(subs))
	for i, sub := range subs {
		reqs[i] = permitReq(sub)
	}
	bresp, err := c.client.DecideBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("DecideBatch with dead shard: %v", err)
	}
	for i, item := range bresp.Results {
		dead := c.m.Owner(subs[i]).ID == victim
		if dead {
			if item.Error == "" || !strings.Contains(item.Error, "shard "+victim) {
				t.Fatalf("item %d (%s, dead shard) error = %q, want typed shard error", i, subs[i], item.Error)
			}
		} else if item.Error != "" || item.Decision == nil || !item.Decision.Allowed {
			t.Fatalf("item %d (%s, live shard) = %+v %q, want permit", i, subs[i], item.Decision, item.Error)
		}
	}

	// Single decide to the dead shard: typed 502 naming it.
	_, err = c.client.Decide(ctx, permitReq(deadSubs[0]))
	if err == nil || !strings.Contains(err.Error(), "502") {
		t.Fatalf("Decide to dead shard = %v, want 502", err)
	}
	// Live shards unaffected.
	if _, err := c.client.Decide(ctx, permitReq(liveSubs[0])); err != nil {
		t.Fatalf("Decide to live shard with peer down: %v", err)
	}

	// Aggregate health: degraded, dead shard named.
	resp, err = http.Get(c.front.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health RouterHealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "degraded" {
		t.Fatalf("healthz with dead shard = %d %q, want 503 degraded", resp.StatusCode, health.Status)
	}
	if health.Shards[victim] != "unreachable" {
		t.Fatalf("healthz shards = %v, want %s unreachable", health.Shards, victim)
	}
}

// TestRouterSlowShardBoundedLatency pins the per-shard deadline: one
// stalled shard costs the scatter one timeout, not an unbounded hang, and
// goroutines drain afterwards.
func TestRouterSlowShardBoundedLatency(t *testing.T) {
	compiled, err := policy.Compile(sharedPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem()
	if err := compiled.Apply(sys, nil); err != nil {
		t.Fatal(err)
	}
	fast := httptest.NewServer(NewServer(sys, WithAdmin()))
	defer fast.Close()

	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // stall until the test finishes
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer slow.Close()

	m, err := shard.New(0,
		shard.Info{ID: "fast", Addr: fast.URL},
		shard.Info{ID: "slow", Addr: slow.URL},
	)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(m, WithShardTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()

	before := runtime.NumGoroutine()
	start := time.Now()
	resp, err := http.Get(front.URL + "/v1/query/subjects-in-role?role=child&allow_partial=1")
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	var out ScatterSubjectsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !out.Partial {
		t.Fatalf("scatter with stalled shard = %d partial=%v, want 200 partial", resp.StatusCode, out.Partial)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("scatter took %v — stalled shard was not bounded by the 150ms deadline", elapsed)
	}
	if _, named := out.ShardErrors["slow"]; !named {
		t.Fatalf("shard_errors = %v, want slow named", out.ShardErrors)
	}

	// Repeat a few times, then verify no goroutine pile-up: every timed-out
	// shard call must release its goroutine.
	for i := 0; i < 8; i++ {
		r, err := http.Get(front.URL + "/v1/query/subjects-in-role?role=child&allow_partial=1")
		if err != nil {
			t.Fatal(err)
		}
		_ = json.NewDecoder(r.Body).Decode(&ScatterSubjectsResponse{})
		r.Body.Close()
	}
	once.Do(func() { close(release) })
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		// Keep-alive connections opened since `before` each hold goroutines
		// that are no pile-up; drop them so only leaked shard calls count.
		http.DefaultClient.CloseIdleConnections()
		pooledHTTPClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines grew %d → %d after scatter timeouts", before, runtime.NumGoroutine())
}

// TestRouterSetMapVersioning pins the map-swap contract: only strictly
// newer versions install, and the served map reflects the swap.
func TestRouterSetMapVersioning(t *testing.T) {
	c := newRouterCluster(t, 2)

	if err := c.rt.SetMap(c.m); err == nil {
		t.Fatal("re-installing the active version must be rejected")
	}
	grown, err := c.m.Add(shard.Info{ID: "s9", Addr: c.shards["s0"].URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.rt.SetMap(grown); err != nil {
		t.Fatalf("SetMap(v%d): %v", grown.Version(), err)
	}
	if err := c.rt.SetMap(c.m); err == nil {
		t.Fatal("rolling back to an older map version must be rejected")
	}

	resp, err := http.Get(c.front.URL + ShardMapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var w shard.Wire
	if err := json.NewDecoder(resp.Body).Decode(&w); err != nil {
		t.Fatal(err)
	}
	if w.Version != grown.Version() || len(w.Shards) != 3 {
		t.Fatalf("served map = v%d/%d shards, want v%d/3", w.Version, len(w.Shards), grown.Version())
	}

	// A newer map keeps the client of every shard whose address is
	// unchanged and builds a new one for a changed address.
	before := c.rt.table.Load()
	readdressed, err := grown.Remove("s1")
	if err != nil {
		t.Fatal(err)
	}
	if readdressed, err = readdressed.Add(shard.Info{ID: "s1", Addr: c.shards["s0"].URL}); err != nil {
		t.Fatal(err)
	}
	if err := c.rt.SetMap(readdressed); err != nil {
		t.Fatalf("SetMap(v%d): %v", readdressed.Version(), err)
	}
	after := c.rt.table.Load()
	for _, id := range []string{"s0", "s9"} {
		if after.Client(id) != before.Client(id) {
			t.Fatalf("shard %s kept its address but got a new client", id)
		}
	}
	if after.Client("s1") == before.Client("s1") {
		t.Fatal("shard s1 changed address but kept its old client")
	}
}

// misalignedShard is a shard whose batch endpoint answers every
// sub-batch of n requests with n+delta permits.
func misalignedShard(t *testing.T, delta int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req BatchDecideRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := BatchDecideResponse{Results: make([]BatchItem, len(req.Requests)+delta)}
		for i := range resp.Results {
			resp.Results[i].Decision = &DecideResponse{Allowed: true, Effect: "permit"}
		}
		writeJSON(w, http.StatusOK, resp)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestRouterBatchMisalignedReply pins the one rule for a sub-batch reply
// of the wrong length: one result too many or too few fails every item
// of that shard's group, never a prefix of it.
func TestRouterBatchMisalignedReply(t *testing.T) {
	for _, delta := range []int{+1, -1} {
		m, err := shard.New(0, shard.Info{ID: "s0", Addr: misalignedShard(t, delta).URL})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRouter(m)
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(rt)
		t.Cleanup(front.Close)
		reqs := []DecideRequest{permitReq("a"), permitReq("b"), {Object: "tv"}}
		resp, err := NewClient(front.URL, nil).DecideBatch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("delta %+d: DecideBatch: %v", delta, err)
		}
		for i, it := range resp.Results[:2] {
			if it.Decision != nil || !strings.Contains(it.Error, "shard s0: misaligned batch reply") {
				t.Fatalf("delta %+d: item %d = %+v, want the group's misalignment error", delta, i, it)
			}
		}
		if !strings.Contains(resp.Results[2].Error, "neither subject nor session") {
			t.Fatalf("delta %+d: unroutable item = %+v, want its own route error", delta, resp.Results[2])
		}
	}
}

// fakeShardRouter fronts a one-shard map whose shard is handler, and
// returns a function that sends body to path on the router: a POST, or a
// GET when body is empty.
func fakeShardRouter(t *testing.T, handler http.HandlerFunc) func(path, body string) (*http.Response, []byte) {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	m, err := shard.New(0, shard.Info{ID: "s0", Addr: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(m)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	return func(path, body string) (*http.Response, []byte) {
		t.Helper()
		method := http.MethodPost
		if body == "" {
			method = http.MethodGet
		}
		req, err := http.NewRequest(method, front.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, got
	}
}

// routedDecideBody is a decide body with a field the router ignores.
const routedDecideBody = `{"subject":"alice","object":"tv","transaction":"use","environment":["weekday-free-time"],"bogus":1}`

// TestRouterForwardsShardReplyVerbatim: a shard's 2xx decide or check
// reply reaches the caller byte for byte, a field the router's codec does
// not know and the shard's spacing included, so the router did not
// decode and re-encode it. The shard sees the strict re-encoded request
// under the caller's correlation ID. The other owner-routed replies, a
// what-can and a subject upsert, come back as the shard sent them too.
func TestRouterForwardsShardReplyVerbatim(t *testing.T) {
	const reply = `{"allowed":true, "effect":"permit","from_a_newer_shard":{"x":[1,2]},"correlation_id":"corr-7"}` + "\n"
	var gotBody, gotCorr atomic.Value
	post := fakeShardRouter(t, func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		gotBody.Store(string(b))
		gotCorr.Store(r.Header.Get(CorrelationHeader))
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, reply)
	})
	for _, path := range []string{"/v1/decide", "/v1/check"} {
		resp, body := post(path, routedDecideBody)
		if resp.StatusCode != http.StatusOK || string(body) != reply {
			t.Fatalf("%s: %d %q, want 200 %q", path, resp.StatusCode, body, reply)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", path, ct)
		}
		want := `{"subject":"alice","object":"tv","transaction":"use","environment":["weekday-free-time"]}`
		if gotBody.Load() != want {
			t.Fatalf("%s: shard got %q, want the strict re-encode %q", path, gotBody.Load(), want)
		}
		if corr := resp.Header.Get(CorrelationHeader); corr == "" || gotCorr.Load() != corr {
			t.Fatalf("%s: shard saw correlation %q, caller got %q", path, gotCorr.Load(), corr)
		}
	}
	for path, body := range map[string]string{
		"/v1/query/what-can?subject=alice": "",
		"/v1/admin/subjects":               `{"id":"alice","roles":["child"]}`,
	} {
		if resp, got := post(path, body); resp.StatusCode != http.StatusOK || string(got) != reply {
			t.Fatalf("%s: %d %q, want 200 %q", path, resp.StatusCode, got, reply)
		}
	}
}

// TestRouterUnframedShardReply: a 2xx reply that is not framed as one
// JSON object answers 502 naming the shard, never a forwarded 200.
func TestRouterUnframedShardReply(t *testing.T) {
	for name, c := range map[string]struct{ ct, body string }{
		"text content type": {"text/plain", `{"allowed":true}` + "\n"},
		"no content type":   {"", `{"allowed":true}`},
		"array":             {"application/json", "[true]\n"},
		"string":            {"application/json", `"permit"`},
		"unclosed object":   {"application/json", `{"allowed":true` + "\n"},
		"trailing garbage":  {"application/json", `{"allowed":true}x`},
		"empty":             {"application/json", ""},
	} {
		post := fakeShardRouter(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header()["Content-Type"] = []string{c.ct}
			_, _ = io.WriteString(w, c.body)
		})
		for _, path := range []string{"/v1/decide", "/v1/check"} {
			resp, body := post(path, routedDecideBody)
			if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), "shard s0") {
				t.Fatalf("%s %s: %d %s, want 502 naming shard s0", name, path, resp.StatusCode, body)
			}
		}
	}
}

// TestRouterShardReplyCutShort: a reply whose body read fails mid-way
// answers 502, never a truncated 200.
func TestRouterShardReplyCutShort(t *testing.T) {
	post := fakeShardRouter(t, func(w http.ResponseWriter, r *http.Request) {
		conn, rw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		_, _ = rw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"allowed\":true}\n")
		_ = rw.Flush()
	})
	for _, path := range []string{"/v1/decide", "/v1/check"} {
		resp, body := post(path, routedDecideBody)
		if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), "shard s0") {
			t.Fatalf("%s: %d %s, want 502 naming shard s0", path, resp.StatusCode, body)
		}
	}
}

// TestRouterForwardRetries: the forwarder keeps callShard's transient
// retry and relays the answering shard's reply verbatim.
func TestRouterForwardRetries(t *testing.T) {
	const reply = `{"allowed":false,"effect":"deny","strategy":"x"}` + "\n"
	var calls atomic.Int32
	post := fakeShardRouter(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 1 {
			http.Error(w, "briefly down", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, reply)
	})
	resp, body := post("/v1/decide", routedDecideBody)
	if resp.StatusCode != http.StatusOK || string(body) != reply || calls.Load() != 2 {
		t.Fatalf("retried read: %d %q after %d calls, want 200 %q after 2", resp.StatusCode, body, calls.Load(), reply)
	}
}
