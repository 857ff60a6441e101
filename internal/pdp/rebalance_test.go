package pdp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/shard"
)

// newShardServer builds one standalone shard: a full admin-enabled PDP
// over a fresh system with the shared policy applied.
func newShardServer(t *testing.T) (*core.System, *httptest.Server) {
	t.Helper()
	compiled, err := policy.Compile(sharedPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem()
	if err := compiled.Apply(sys, nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sys, WithAdmin()))
	t.Cleanup(srv.Close)
	return sys, srv
}

// TestMigrationForwardAndRedirect drives one subject through the
// shard-side migration protocol by hand and pins both halves of the
// dual-ownership window: after handoff the old owner transparently
// proxies subject- and session-scoped requests to the new owner; after
// complete it answers with the typed 421 carrying the new coordinates.
func TestMigrationForwardAndRedirect(t *testing.T) {
	ctx := context.Background()
	_, oldSrv := newShardServer(t)
	newSys, newSrv := newShardServer(t)
	oldC := NewClient(oldSrv.URL, nil)

	for _, sub := range []string{"alice", "bob"} {
		if err := oldC.UpsertSubject(ctx, BindingRequest{ID: sub, Roles: []string{"child"}}); err != nil {
			t.Fatal(err)
		}
	}
	var sess SessionResponse
	if err := oldC.Call(ctx, http.MethodPost, "/v1/sessions", SessionRequest{Subject: "alice"}, &sess); err != nil {
		t.Fatal(err)
	}
	if err := oldC.Call(ctx, http.MethodPost, "/v1/sessions/roles", SessionRoleRequest{Session: sess.Session, Role: "child", Active: true}, nil); err != nil {
		t.Fatal(err)
	}

	// Copy alice (record, roles, session) to the new owner, then open the
	// handoff window on the old one.
	node := NewMigrationNode(oldSrv.URL)
	bundle, err := node.ExportSubject(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := NewMigrationNode(newSrv.URL).ImportSubject(ctx, bundle); err != nil {
		t.Fatal(err)
	}
	move := []shard.Move{{Subject: "alice", To: shard.Info{ID: "new", Addr: newSrv.URL}}}
	if err := node.Handoff(ctx, 2, move); err != nil {
		t.Fatal(err)
	}

	// Forward mode: the old owner answers for alice by proxying.
	resp, err := oldC.Decide(ctx, permitReq("alice"))
	if err != nil || !resp.Allowed {
		t.Fatalf("forwarded Decide(alice) = %+v, %v; want permit", resp, err)
	}
	if allowed, err := oldC.Check(ctx, DecideRequest{Subject: "alice", Session: sess.Session, Object: "tv", Transaction: "use", Environment: []string{"weekday-free-time"}}); err != nil || !allowed {
		t.Fatalf("forwarded session Check = %v, %v; want permit", allowed, err)
	}
	// A batch mixing a moved and a resident subject splits: alice's item
	// is mediated on the new owner, bob's locally.
	batch, err := oldC.DecideBatch(ctx, []DecideRequest{permitReq("alice"), permitReq("bob")})
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range batch.Results {
		if item.Error != "" || item.Decision == nil || !item.Decision.Allowed {
			t.Fatalf("batch item %d during handoff = %+v, want permit", i, item)
		}
	}

	// Complete: the local copy is dropped and callers get the typed 421.
	if err := node.Complete(ctx, 2, move); err != nil {
		t.Fatal(err)
	}
	_, err = oldC.Decide(ctx, permitReq("alice"))
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusMisdirectedRequest || re.Moved == nil {
		t.Fatalf("post-complete Decide(alice) = %v, want 421 with Moved", err)
	}
	if re.Moved.Shard != "new" || re.Moved.Addr != newSrv.URL || re.Moved.MapVersion != 2 {
		t.Fatalf("Moved = %+v, want shard new @ %s v2", re.Moved, newSrv.URL)
	}
	// Session-scoped calls resolve through the captured session index even
	// when the request names no subject at routing time.
	_, err = oldC.Check(ctx, DecideRequest{Session: sess.Session, Object: "tv", Transaction: "use"})
	if !errors.As(err, &re) || re.Status != http.StatusMisdirectedRequest {
		t.Fatalf("post-complete session Check = %v, want 421", err)
	}
	// bob never moved and still answers locally.
	if resp, err := oldC.Decide(ctx, permitReq("bob")); err != nil || !resp.Allowed {
		t.Fatalf("Decide(bob) = %+v, %v; want permit", resp, err)
	}
	// The new owner carries alice's session under its original ID.
	if _, err := newSys.Session(core.SessionID(sess.Session)); err != nil {
		t.Fatalf("session %q missing on new owner: %v", sess.Session, err)
	}
}

// TestRebalanceEndToEnd is the tentpole integration: a live 2-shard
// cluster under continuous decide load grows to 3 shards through the
// coordinator. Not one decide may fail during the migration, the router
// must converge to the committed map version, and the post-state must
// be balanced (every shard holds exactly the subjects the new map
// assigns it).
func TestRebalanceEndToEnd(t *testing.T) {
	c := newRouterCluster(t, 2)
	subs := c.addSubjects(t, 32)
	ctx := context.Background()

	// Sessions created before the rebalance must survive it, including
	// for subjects that move.
	sessions := make(map[string]string)
	for _, sub := range subs[:8] {
		var sess SessionResponse
		if err := c.client.Call(ctx, http.MethodPost, "/v1/sessions", SessionRequest{Subject: sub}, &sess); err != nil {
			t.Fatal(err)
		}
		if err := c.client.Call(ctx, http.MethodPost, "/v1/sessions/roles", SessionRoleRequest{Session: sess.Session, Role: "child", Active: true}, nil); err != nil {
			t.Fatal(err)
		}
		sessions[sub] = sess.Session
	}

	// Third shard joins empty.
	newSys, newSrv := newShardServer(t)
	grow := shard.Info{ID: "s2", Addr: newSrv.URL}

	// Continuous load during the migration: every subject decides in a
	// loop; any error is a failed decide the handoff window leaked.
	var (
		stop     = make(chan struct{})
		decides  atomic.Int64
		failures atomic.Int64
		firstErr atomic.Value
	)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sub := subs[(i*4+w)%len(subs)]
				resp, err := c.client.Decide(ctx, permitReq(sub))
				decides.Add(1)
				if err != nil || !resp.Allowed {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("Decide(%s) = %+v, %v", sub, resp, err))
				}
			}
		}(w)
	}

	coord := shard.NewCoordinator(
		filepath.Join(t.TempDir(), "rebalance.journal"),
		func(info shard.Info) shard.NodeClient { return NewMigrationNode(info.Addr) },
		func(_ context.Context, m *shard.Map) error { return c.rt.SetMap(m) },
		t.Logf,
	)
	next, err := coord.AddShard(ctx, c.m, grow)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("AddShard: %v", err)
	}

	if failures.Load() > 0 {
		t.Fatalf("%d/%d decides failed during rebalance; first: %v",
			failures.Load(), decides.Load(), firstErr.Load())
	}
	if decides.Load() == 0 {
		t.Fatal("load loop made no decides")
	}
	if got := c.rt.Map().Version(); got != next.Version() {
		t.Fatalf("router map v%d, want committed v%d", got, next.Version())
	}

	// Balanced post-state: each shard's core holds exactly the subjects
	// the committed map assigns it.
	systems := map[string]*core.System{"s0": c.sys["s0"], "s1": c.sys["s1"], "s2": newSys}
	moved := 0
	for _, sub := range subs {
		owner := next.Owner(sub).ID
		if c.m.Owner(sub).ID != owner {
			moved++
		}
		for id, sys := range systems {
			_, err := sys.ExportSubject(core.SubjectID(sub))
			if resident := err == nil; resident != (id == owner) {
				t.Fatalf("subject %s on shard %s: resident=%v, owner=%s", sub, id, resident, owner)
			}
		}
	}
	if moved == 0 {
		t.Fatal("rebalance moved nothing — grow the subject set")
	}
	t.Logf("rebalance moved %d/%d subjects under %d decides", moved, len(subs), decides.Load())

	// Every subject still decides through the router on the new map.
	for _, sub := range subs {
		resp, err := c.client.Decide(ctx, permitReq(sub))
		if err != nil || !resp.Allowed {
			t.Fatalf("post-rebalance Decide(%s) = %+v, %v", sub, resp, err)
		}
	}
	// Session-scoped decides survive the move: their qualifier still
	// names the old shard, whose 421 the router follows transparently.
	for sub, sess := range sessions {
		allowed, err := c.client.Check(ctx, DecideRequest{
			Subject: sub, Session: sess, Object: "tv", Transaction: "use",
			Environment: []string{"weekday-free-time"},
		})
		if err != nil || !allowed {
			t.Fatalf("post-rebalance session Check(%s via %s) = %v, %v", sub, sess, allowed, err)
		}
	}
}

// TestShardMapWatch pins what the shard-map watch adds to the shared
// long-poll contract (TestWatchContract): its reply is the router's whole
// current wire map, shards and all, which the SDK installs as it stands.
func TestShardMapWatch(t *testing.T) {
	c := newRouterCluster(t, 2)
	grown, err := c.m.Add(shard.Info{ID: "s9", Addr: c.shards["s0"].URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.rt.SetMap(grown); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("%s%s?after=%d", c.front.URL, ShardMapWatchPath, c.m.Version()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var w shard.Wire
	if err := json.NewDecoder(resp.Body).Decode(&w); err != nil {
		t.Fatal(err)
	}
	m, err := shard.FromWire(w)
	if err != nil {
		t.Fatalf("watch reply is not a valid wire map: %v", err)
	}
	if m.Version() != grown.Version() || m.Len() != 3 {
		t.Fatalf("watch reply = v%d/%d shards, want v%d/3", m.Version(), m.Len(), grown.Version())
	}
	if s9, ok := m.Get("s9"); !ok || s9.Addr != c.shards["s0"].URL {
		t.Fatalf("watch reply lost the new shard: %+v", w.Shards)
	}
}

// TestSetMapStaleTyped pins the typed stale-map error.
func TestSetMapStaleTyped(t *testing.T) {
	c := newRouterCluster(t, 2)
	if err := c.rt.SetMap(c.m); !errors.Is(err, ErrStaleShardMap) {
		t.Fatalf("SetMap(active version) = %v, want ErrStaleShardMap", err)
	}
}

// TestRouterMidScatterMapSwap pins satellite invariant: a SetMap while
// a scatter is in flight must not tear the fan-out — the in-flight
// request drains against the client table it started with (including
// shards the new map dropped), and no goroutines leak.
func TestRouterMidScatterMapSwap(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	mkShard := func(subject string, slow bool) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if slow {
				<-release
			}
			writeJSON(w, http.StatusOK, SubjectsInRoleResponse{Subjects: []string{subject}})
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	fast := mkShard("fast-subject", false)
	slow := mkShard("slow-subject", true)
	m, err := shard.New(0,
		shard.Info{ID: "fast", Addr: fast.URL},
		shard.Info{ID: "slow", Addr: slow.URL},
	)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(m, WithShardTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	before := runtime.NumGoroutine()
	type result struct {
		out ScatterSubjectsResponse
		err error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(front.URL + "/v1/query/subjects-in-role?role=child")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var out ScatterSubjectsResponse
		done <- result{out: out, err: json.NewDecoder(resp.Body).Decode(&out)}
	}()

	// While the scatter hangs on the slow shard, swap in a map without it.
	time.Sleep(100 * time.Millisecond)
	shrunk, err := m.Remove("slow")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetMap(shrunk); err != nil {
		t.Fatal(err)
	}
	once.Do(func() { close(release) })

	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("mid-swap scatter failed: %v", res.err)
		}
		// Both shards answered: the fan-out drained against the map and
		// client table it captured, not the swapped one.
		got := map[string]bool{}
		for _, s := range res.out.Subjects {
			got[s] = true
		}
		if !got["fast-subject"] || !got["slow-subject"] {
			t.Fatalf("mid-swap scatter = %v, want both shards' answers", res.out.Subjects)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mid-swap scatter never completed")
	}

	// Drop keep-alive connection pools so only a true leak (a stuck
	// fan-out goroutine) keeps the count elevated.
	fast.CloseClientConnections()
	slow.CloseClientConnections()
	front.CloseClientConnections()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines grew %d → %d after mid-swap scatter", before, runtime.NumGoroutine())
}

// TestRouterRetriesTransientReads pins the bounded read retry: a shard
// that fails one decide with a 503 answers on the router's single
// retry, invisibly to the caller; a second consecutive failure
// surfaces.
func TestRouterRetriesTransientReads(t *testing.T) {
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 1 {
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "transient blip"})
			return
		}
		writeJSON(w, http.StatusOK, DecideResponse{Allowed: true, Effect: "permit"})
	}))
	t.Cleanup(flaky.Close)
	m, err := shard.New(0, shard.Info{ID: "s0", Addr: flaky.URL})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(m)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	resp, err := NewClient(front.URL, nil).Decide(context.Background(), permitReq("alice"))
	if err != nil || !resp.Allowed {
		t.Fatalf("Decide through flaky shard = %+v, %v; want permit via retry", resp, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("shard saw %d calls, want 2 (original + one retry)", n)
	}
}

// TestRouterHealthProbes pins the probe state machine: a dead shard
// degrades to suspect after one failed probe and to down (unreachable)
// after three, and /v1/healthz answers from probe state.
func TestRouterHealthProbes(t *testing.T) {
	c := newRouterCluster(t, 2, WithHealthProbes(20*time.Millisecond))
	t.Cleanup(c.rt.Close)

	// Both shards healthy: probes mark everything ok.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c.rt.health.stateOf("s0") == healthOK && c.rt.health.stateOf("s1") == healthOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probes never marked healthy shards ok")
		}
		time.Sleep(10 * time.Millisecond)
	}

	c.shards["s1"].Close()
	for state := healthOK; state != healthDown; state = c.rt.health.stateOf("s1") {
		if time.Now().After(deadline) {
			t.Fatalf("dead shard stuck in state %v, want down", c.rt.health.stateOf("s1"))
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(c.front.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health RouterHealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "degraded" {
		t.Fatalf("healthz = %d %q, want 503 degraded", resp.StatusCode, health.Status)
	}
	if health.Shards["s1"] != "unreachable" || health.Shards["s0"] != "ok" {
		t.Fatalf("healthz shards = %v, want s1 unreachable, s0 ok", health.Shards)
	}
}

// TestRebalanceHandlerAPI pins the operator surface: POST starts a
// rebalance asynchronously (202), status reports progress and settles
// on "done", a second concurrent start gets 409, and malformed actions
// get synchronous 400s.
func TestRebalanceHandlerAPI(t *testing.T) {
	c := newRouterCluster(t, 2)
	subs := c.addSubjects(t, 16)

	coord := shard.NewCoordinator(filepath.Join(t.TempDir(), "rebalance.journal"),
		func(info shard.Info) shard.NodeClient { return NewMigrationNode(info.Addr) },
		func(_ context.Context, m *shard.Map) error { return c.rt.SetMap(m) },
		t.Logf)
	h := NewRebalanceHandler(c.rt, coord, nil)
	outer := http.NewServeMux()
	outer.Handle(ShardRebalancePath, h)
	outer.Handle(ShardRebalanceStatusPath, h)
	outer.Handle("/", c.rt)
	front := httptest.NewServer(outer)
	t.Cleanup(front.Close)
	api := NewClient(front.URL, nil)
	ctx := context.Background()

	// Bad requests are rejected synchronously.
	for _, bad := range []RebalanceRequest{
		{Action: "grow", ID: "s9", Addr: "http://x"},
		{Action: "add", ID: "s9"},                     // no addr
		{Action: "add", ID: "s0", Addr: "http://dup"}, // duplicate ID
		{Action: "remove", ID: "ghost"},               // unknown shard
		{Action: "remove"},                            // no id
	} {
		err := api.Call(ctx, http.MethodPost, ShardRebalancePath, bad, nil)
		var re *RemoteError
		if !errors.As(err, &re) || re.Status != http.StatusBadRequest {
			t.Fatalf("POST %+v = %v, want 400", bad, err)
		}
	}

	// Idle status: nothing active, nothing failed.
	var st shard.Status
	if err := api.Call(ctx, http.MethodGet, ShardRebalanceStatusPath, nil, &st); err != nil {
		t.Fatal(err)
	}
	if st.Active || st.Error != "" {
		t.Fatalf("idle status = %+v", st)
	}

	// Start a real grow. The POST returns 202 before the run finishes.
	base := c.rt.Map().Version()
	_, dest := newShardServer(t)
	req := RebalanceRequest{Action: "add", ID: "s2", Addr: dest.URL}
	if err := api.Call(ctx, http.MethodPost, ShardRebalancePath, req, &st); err != nil {
		t.Fatalf("POST add: %v", err)
	}

	// Poll status until the background run settles.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := api.Call(ctx, http.MethodGet, ShardRebalanceStatusPath, nil, &st); err != nil {
			t.Fatal(err)
		}
		if !st.Active && st.Phase != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebalance never settled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Phase != "done" || st.Error != "" {
		t.Fatalf("final status = %+v, want done", st)
	}
	if got := c.rt.Map().Version(); got != base+1 {
		t.Fatalf("router map version = %d, want %d", got, base+1)
	}
	if _, ok := c.rt.Map().Get("s2"); !ok {
		t.Fatal("committed map lacks the added shard")
	}

	// The cluster still decides every subject through the router.
	for _, sub := range subs {
		resp, err := c.client.Decide(ctx, permitReq(sub))
		if err != nil || !resp.Allowed {
			t.Fatalf("post-rebalance Decide(%s) = %+v, %v", sub, resp, err)
		}
	}
}
