package sdk

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	grbac "github.com/aware-home/grbac"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/shard"
)

// shardedPolicy omits the subject bindings: subjects are partitioned
// across shards by the router, the rest is replicated everywhere.
const shardedPolicy = `
subject role family-member;
subject role child extends family-member;
object role entertainment-devices;
env role weekday-free-time;
object tv is entertainment-devices;
transaction use;
grant child use entertainment-devices when weekday-free-time;
`

// shardedCluster is a booted n-shard cluster behind a router, with the
// handles SDK rebalance tests need: the router itself (to publish and
// commit new maps), a factory for extra shard servers and each shard's
// server by ID.
type shardedCluster struct {
	front  *httptest.Server
	feed   string // the router's URL, which the shards follow
	rt     *pdp.Router
	m      *shard.Map
	subs   []string
	shards map[string]*httptest.Server
}

// newShard boots one more shard server (admin + replication feed, same
// policy, following the router's map feed when the cluster has one) and
// returns its Info, without touching the active map. It returns once the
// shard has fetched the map, if the router is up.
func (c *shardedCluster) newShard(t *testing.T, id string) shard.Info {
	t.Helper()
	compiled, err := policy.Compile(shardedPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem()
	if err := compiled.Apply(sys, nil); err != nil {
		t.Fatal(err)
	}
	opts := []pdp.ServerOption{pdp.WithAdmin(), pdp.WithReplicaSource(replica.NewSource(sys))}
	if c.feed != "" {
		f := pdp.NewMapFeed(c.feed, quiet, nil)
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
		opts = append(opts, pdp.WithMapFeed(id, f))
		if c.rt != nil {
			for deadline := time.Now().Add(10 * time.Second); f.View() == nil; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("shard %s never fetched the map", id)
				}
			}
		}
	}
	srv := httptest.NewServer(pdp.NewServer(sys, opts...))
	t.Cleanup(srv.Close)
	if c.shards == nil {
		c.shards = make(map[string]*httptest.Server)
	}
	c.shards[id] = srv
	return shard.Info{ID: id, Addr: srv.URL}
}

// bootShardedCluster boots n shards (admin + replication feed enabled,
// so an SDK can pull policy from any of them) behind a router and
// registers subjects through it.
func bootShardedCluster(t *testing.T, n, subjects int) *shardedCluster {
	t.Helper()
	c := &shardedCluster{front: httptest.NewUnstartedServer(nil)}
	t.Cleanup(c.front.Close)
	c.feed = "http://" + c.front.Listener.Addr().String()
	infos := make([]shard.Info, n)
	for i := 0; i < n; i++ {
		infos[i] = c.newShard(t, fmt.Sprintf("s%d", i))
	}
	m, err := shard.New(0, infos...)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := pdp.NewRouter(m)
	if err != nil {
		t.Fatal(err)
	}
	c.rt, c.m = rt, m
	c.front.Config.Handler = rt
	c.front.Start()
	// Each shard answers only for what it holds until its first fetch;
	// a listing naming the committed version waits for it.
	for _, info := range infos {
		if _, err := pdp.NewMigrationNode(info.Addr).Subjects(context.Background(), m.Version()); err != nil {
			t.Fatalf("shard %s never fetched the map: %v", info.ID, err)
		}
	}

	router := pdp.NewClient(c.front.URL, nil)
	c.subs = make([]string, subjects)
	for i := range c.subs {
		c.subs[i] = fmt.Sprintf("member-%03d", i)
		if err := router.UpsertSubject(context.Background(),
			pdp.BindingRequest{ID: c.subs[i], Roles: []string{"child"}}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// newShardedCluster is the URL-shaped convenience wrapper the routing
// tests use.
func newShardedCluster(t *testing.T, n, subjects int) (string, *shard.Map, []string) {
	t.Helper()
	c := bootShardedCluster(t, n, subjects)
	return c.front.URL, c.m, c.subs
}

func shardPermitReq(sub string) grbac.Request {
	return grbac.Request{
		Subject: grbac.SubjectID(sub), Object: "tv", Transaction: "use",
		Environment: []grbac.RoleID{"weekday-free-time"},
	}
}

// coordinator builds a rebalance coordinator that publishes through the
// cluster's router.
func (c *shardedCluster) coordinator(t *testing.T) *shard.Coordinator {
	return shard.NewCoordinator(filepath.Join(t.TempDir(), "rebalance.journal"),
		func(info shard.Info) shard.NodeClient { return pdp.NewMigrationNode(info.Addr) },
		func(_ context.Context, m *shard.Map) error { return c.rt.SetPending(m) },
		func(_ context.Context, m *shard.Map) error { return c.rt.SetMap(m) },
		t.Logf)
}

// handOff publishes a pending map naming only dest, waits until the
// shards at from and dest follow it, and hands sub off from the shard at
// from to dest.
func (c *shardedCluster) handOff(t *testing.T, sub string, from, dest shard.Info) {
	t.Helper()
	ctx := context.Background()
	pending, err := shard.FromWire(shard.Wire{Version: c.rt.Map().Version() + 1, Shards: []shard.Info{dest}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.rt.SetPending(pending); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{from.Addr, dest.Addr} {
		if _, err := pdp.NewMigrationNode(addr).Subjects(ctx, pending.Version()); err != nil {
			t.Fatalf("shard %s never saw the pending map: %v", addr, err)
		}
	}
	moves := []shard.Move{{Subject: sub, From: from, To: dest}}
	if err := pdp.NewMigrationNode(from.Addr).Handoff(ctx, moves); err != nil {
		t.Fatalf("handoff: %v", err)
	}
}

// TestSDKShardRouting pins the client-side shard map: the SDK bootstraps
// from the router, replicates its home shard's partition, answers home
// subjects locally, and routes foreign subjects straight to their owning
// shard — every decision correct either way.
func TestSDKShardRouting(t *testing.T) {
	routerURL, m, subs := newShardedCluster(t, 3, 24)
	c := newEmbedded(t, routerURL, WithShardRouting(""))
	ctx := context.Background()

	if c.ShardMap() == nil || c.ShardMap().Len() != 3 {
		t.Fatalf("ShardMap = %v, want the router's 3-shard map", c.ShardMap())
	}
	home := c.homeShard
	if _, ok := m.Get(home); !ok {
		t.Fatalf("home shard %q not in map", home)
	}

	var locals, remotes int
	for _, sub := range subs {
		d, err := c.Decide(ctx, shardPermitReq(sub))
		if err != nil {
			t.Fatalf("Decide(%s): %v", sub, err)
		}
		if !d.Allowed {
			t.Fatalf("Decide(%s) denied: %+v", sub, d)
		}
		wantSource := SourceRemote
		if m.Owner(sub).ID == home {
			wantSource = SourceLocal
		}
		if d.Source != wantSource {
			t.Fatalf("Decide(%s) source = %s, want %s (owner %s, home %s)",
				sub, d.Source, wantSource, m.Owner(sub).ID, home)
		}
		if d.Source == SourceLocal {
			locals++
		} else {
			remotes++
		}
	}
	if locals == 0 || remotes == 0 {
		t.Fatalf("locals=%d remotes=%d — test must exercise both paths", locals, remotes)
	}

	st := c.Stats()
	if st.LocalDecisions != uint64(locals) || st.RemoteFallbacks != uint64(remotes) {
		t.Fatalf("stats = %d local / %d remote, want %d / %d",
			st.LocalDecisions, st.RemoteFallbacks, locals, remotes)
	}
}

// TestSDKShardRoutingBatch pins the batch split: home subjects answer
// from the local snapshot, foreign ones ride per-shard remote batches,
// results stay index-aligned.
func TestSDKShardRoutingBatch(t *testing.T) {
	routerURL, m, subs := newShardedCluster(t, 3, 24)
	c := newEmbedded(t, routerURL, WithShardRouting(""))

	reqs := make([]grbac.Request, len(subs))
	for i, sub := range subs {
		reqs[i] = shardPermitReq(sub)
	}
	out := c.DecideBatch(context.Background(), reqs)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("batch[%d] (%s): %v", i, subs[i], r.Err)
		}
		if !r.Decision.Allowed {
			t.Fatalf("batch[%d] (%s) denied — merge misaligned?", i, subs[i])
		}
		wantSource := SourceRemote
		if m.Owner(subs[i]).ID == c.homeShard {
			wantSource = SourceLocal
		}
		if r.Decision.Source != wantSource {
			t.Fatalf("batch[%d] (%s) source = %s, want %s", i, subs[i], r.Decision.Source, wantSource)
		}
	}
}

// TestSDKShardRoutingSessions pins direct-to-shard session mediation: the
// SDK sends a session-scoped request straight to the owner of the
// subject the router-minted session ID names.
func TestSDKShardRoutingSessions(t *testing.T) {
	routerURL, m, subs := newShardedCluster(t, 3, 8)
	c := newEmbedded(t, routerURL, WithShardRouting(""))
	ctx := context.Background()

	// Pick a subject on a foreign shard so the direct route is the only
	// way the decision can succeed locally-unreplicated state.
	var sub string
	for _, s := range subs {
		if m.Owner(s).ID != c.homeShard {
			sub = s
			break
		}
	}
	router := pdp.NewClient(routerURL, nil)
	sid, err := router.OpenSession(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SetSessionRole(ctx, sid, "child", true); err != nil {
		t.Fatal(err)
	}
	req := shardPermitReq(sub)
	req.Session = grbac.SessionID(sid)
	d, err := c.Decide(ctx, req)
	if err != nil {
		t.Fatalf("session decide via SDK: %v", err)
	}
	if !d.Allowed || d.Source != SourceRemote {
		t.Fatalf("session decide = %+v, want remote permit", d)
	}

	// The home shard resolves by ID too: a home subject's session still
	// routes remotely (sessions are never replicated).
	var homeSub string
	for _, s := range subs {
		if m.Owner(s).ID == c.homeShard {
			homeSub = s
			break
		}
	}
	sid2, err := router.OpenSession(ctx, homeSub)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.SetSessionRole(ctx, sid2, "child", true); err != nil {
		t.Fatal(err)
	}
	req2 := shardPermitReq(homeSub)
	req2.Session = grbac.SessionID(sid2)
	d2, err := c.Decide(ctx, req2)
	if err != nil || !d2.Allowed || d2.Source != SourceRemote {
		t.Fatalf("home-shard session decide = %+v, %v; want remote permit", d2, err)
	}
}

// TestSDKShardMapWatchConvergence is the SDK half of the rebalance
// tentpole: a coordinator grows the cluster by one shard, the router
// commits the new map, and the embedded client — riding the map watch
// long-poll — flips atomically to the committed map and keeps every
// decision correct under the new ownership, home and foreign alike.
func TestSDKShardMapWatchConvergence(t *testing.T) {
	cl := bootShardedCluster(t, 2, 24)
	c := newEmbedded(t, cl.front.URL, WithShardRouting("s0"))
	ctx := context.Background()

	// Pre-rebalance sweep: every subject decided correctly.
	for _, sub := range cl.subs {
		if d, err := c.Decide(ctx, shardPermitReq(sub)); err != nil || !d.Allowed {
			t.Fatalf("pre-rebalance Decide(%s) = %+v, %v", sub, d, err)
		}
	}

	// Grow the cluster: coordinator migrates subjects to a third shard
	// and commits the new map on the router.
	coord := cl.coordinator(t)
	cur := cl.rt.Map()
	next, err := cur.Add(cl.newShard(t, "s2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Start(ctx, cur, next); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); coord.Status().Active; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("rebalance never settled: %+v", coord.Status())
		}
	}
	if st := coord.Status(); st.Phase != "done" {
		t.Fatalf("rebalance status = %+v, want done", st)
	}

	// The watcher must install the committed map without any SDK-side
	// polling knob: the router wakes the parked long-poll on commit.
	deadline := time.Now().Add(5 * time.Second)
	for c.ShardMap().Version() != next.Version() {
		if time.Now().After(deadline) {
			t.Fatalf("SDK map version = %d, want %d (watch never converged)",
				c.ShardMap().Version(), next.Version())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Post-rebalance sweep: decisions follow the new ownership — moved
	// home subjects now route remotely, everything still permits.
	var locals, remotes int
	for _, sub := range cl.subs {
		d, err := c.Decide(ctx, shardPermitReq(sub))
		if err != nil || !d.Allowed {
			t.Fatalf("post-rebalance Decide(%s) = %+v, %v", sub, d, err)
		}
		wantSource := SourceRemote
		if next.Owner(sub).ID == c.homeShard {
			wantSource = SourceLocal
		}
		if d.Source != wantSource {
			t.Fatalf("post-rebalance Decide(%s) source = %s, want %s (owner %s)",
				sub, d.Source, wantSource, next.Owner(sub).ID)
		}
		if d.Source == SourceLocal {
			locals++
		} else {
			remotes++
		}
	}
	if locals == 0 || remotes == 0 {
		t.Fatalf("locals=%d remotes=%d — post-rebalance sweep must exercise both paths", locals, remotes)
	}
}

// TestSDKShardMapWatchRidesRouterOutage takes the router down for
// several map-watch backoffs, commits a newer map while it is gone, and
// brings it back on the same address: the watcher must keep retrying
// through the outage and install the newer map once the router answers.
func TestSDKShardMapWatchRidesRouterOutage(t *testing.T) {
	cl := bootShardedCluster(t, 2, 4)
	serve := func(addr string) (*http.Server, string) {
		t.Helper()
		// A restart races the old listener's teardown.
		var ln net.Listener
		var err error
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if ln, err = net.Listen("tcp", addr); err == nil || time.Now().After(deadline) {
				break
			}
		}
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		srv := &http.Server{Handler: cl.rt}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		return srv, ln.Addr().String()
	}
	front, addr := serve("127.0.0.1:0")

	watchErrs := &lineCounter{substr: "shard map watch:"}
	c := newEmbedded(t, "http://"+addr, WithShardRouting("s0"), WithLogger(log.New(watchErrs, "", 0)))

	_ = front.Close()
	deadline := time.Now().Add(10 * time.Second)
	for watchErrs.n.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("watcher logged %d failed polls against a down router, want 3", watchErrs.n.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	grown, err := cl.m.Add(shard.Info{ID: "s9", Addr: cl.newShard(t, "s9").Addr})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.rt.SetMap(grown); err != nil {
		t.Fatal(err)
	}
	serve(addr)

	deadline = time.Now().Add(10 * time.Second)
	for c.ShardMap().Version() != grown.Version() {
		if time.Now().After(deadline) {
			t.Fatalf("SDK map v%d after the router came back, want v%d", c.ShardMap().Version(), grown.Version())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lineCounter counts the log lines containing substr.
type lineCounter struct {
	substr string
	n      atomic.Int64
}

func (l *lineCounter) Write(p []byte) (int, error) {
	if strings.Contains(string(p), l.substr) {
		l.n.Add(1)
	}
	return len(p), nil
}

// TestSDKReachesMovedSubjectThroughOldShard pins the stale-map path: a
// subject is handed off to a shard the SDK's installed map has never
// heard of (the router publishes that shard only in a pending map it
// never commits, so the SDK's committed map cannot help), and a
// shard-direct decide and batch still succeed because the old owner
// forwards them by the pending map.
func TestSDKReachesMovedSubjectThroughOldShard(t *testing.T) {
	cl := bootShardedCluster(t, 2, 8)
	c := newEmbedded(t, cl.front.URL, WithShardRouting("s0"))
	ctx := context.Background()

	// A foreign subject, so the SDK routes shard-direct to s1.
	var sub string
	for _, s := range cl.subs {
		if cl.m.Owner(s).ID == "s1" {
			sub = s
			break
		}
	}
	if sub == "" {
		t.Fatal("no subject owned by s1")
	}
	oldInfo, _ := cl.m.Get("s1")
	cl.handOff(t, sub, oldInfo, cl.newShard(t, "x9"))

	d, err := c.Decide(ctx, shardPermitReq(sub))
	if err != nil {
		t.Fatalf("Decide after handoff: %v", err)
	}
	if !d.Allowed || d.Source != SourceRemote {
		t.Fatalf("Decide after handoff = %+v, want remote permit forwarded by the old owner", d)
	}

	// A batch item takes the same path: the old owner forwards it to the
	// new one.
	out := c.DecideBatch(ctx, []grbac.Request{shardPermitReq(sub)})
	if out[0].Err != nil || !out[0].Decision.Allowed {
		t.Fatalf("batch after handoff = %+v, want permit forwarded by the old owner", out[0])
	}
}

// TestSDKShardSeesWindowWrite hands a subject of the SDK's home shard off
// to a new shard and writes to it through the router after the handoff
// and before any commit. The SDK's home replica no longer holds the
// subject while the rebalance's map is pending, so it asks remotely, by
// the committed map, the old owner, which forwards to the new one: every
// local entry point answers with the write. An unknown subject is still
// ErrNotFound.
func TestSDKShardSeesWindowWrite(t *testing.T) {
	cl := bootShardedCluster(t, 2, 0)
	c := newEmbedded(t, cl.front.URL, WithShardRouting("s0"))
	ctx := context.Background()
	router := pdp.NewClient(cl.front.URL, nil)
	var sub string
	for i := 0; sub == ""; i++ {
		if s := fmt.Sprintf("window-%02d", i); cl.m.Owner(s).ID == "s0" {
			sub = s
		}
	}
	if err := router.UpsertSubject(ctx, pdp.BindingRequest{ID: sub, Roles: []string{"family-member"}}); err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the home replica to hold "+sub, func() bool { return c.System().HasSubject(grbac.SubjectID(sub)) })
	if d, err := c.Decide(ctx, shardPermitReq(sub)); err != nil || d.Allowed || d.Source != SourceLocal {
		t.Fatalf("Decide(%s) before the move = %+v, %v; want a local deny", sub, d, err)
	}
	ghost := "ghost"
	for i := 0; cl.m.Owner(ghost).ID != "s0"; i++ {
		ghost = fmt.Sprintf("ghost-%02d", i)
	}
	if _, err := c.Decide(ctx, shardPermitReq(ghost)); !errors.Is(err, grbac.ErrNotFound) {
		t.Fatalf("Decide(%s) of an unknown home subject = %v, want ErrNotFound", ghost, err)
	}

	home, _ := cl.m.Get("s0")
	cl.handOff(t, sub, home, cl.newShard(t, "x9"))
	waitFor("the SDK to see the pending map", func() bool { v := c.feed.View(); return v != nil && v.Pending != nil })
	waitFor("the home replica to drop "+sub, func() bool { return !c.System().HasSubject(grbac.SubjectID(sub)) })
	if err := router.UpsertSubject(ctx, pdp.BindingRequest{ID: sub, Roles: []string{"child"}}); err != nil {
		t.Fatalf("write in the window: %v", err)
	}

	if d, err := c.Decide(ctx, shardPermitReq(sub)); err != nil || !d.Allowed || d.Source != SourceRemote {
		t.Fatalf("Decide(%s) after the window write = %+v, %v; want a remote permit", sub, d, err)
	}
	if ok, err := c.CheckAccess(ctx, shardPermitReq(sub)); err != nil || !ok {
		t.Fatalf("CheckAccess(%s) after the window write = %v, %v; want permit", sub, ok, err)
	}
	if out := c.DecideBatch(ctx, []grbac.Request{shardPermitReq(sub)}); out[0].Err != nil || !out[0].Decision.Allowed {
		t.Fatalf("batch after the window write = %+v, want permit", out[0])
	}
}

// TestSDKShardSeesHandoffBeforeItsFeed holds the SDK's map feed back
// while a subject of its home shard is handed off and written to. The
// SDK sees no pending map, yet the home replica has dropped the subject,
// so it asks remotely and answers with the write.
func TestSDKShardSeesHandoffBeforeItsFeed(t *testing.T) {
	cl := bootShardedCluster(t, 2, 0)
	// The SDK reaches the router through a front that, while held, keeps
	// every map watch reply back until the test ends.
	var held atomic.Bool
	release := make(chan struct{})
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		cl.rt.ServeHTTP(rec, r)
		if held.Load() && r.URL.Path == pdp.ShardMapWatchPath {
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(front.Close)
	t.Cleanup(func() { close(release) })
	c := newEmbedded(t, front.URL, WithShardRouting("s0"))
	ctx := context.Background()
	router := pdp.NewClient(cl.front.URL, nil)
	var sub string
	for i := 0; sub == ""; i++ {
		if s := fmt.Sprintf("lag-%02d", i); cl.m.Owner(s).ID == "s0" {
			sub = s
		}
	}
	if err := router.UpsertSubject(ctx, pdp.BindingRequest{ID: sub, Roles: []string{"family-member"}}); err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the home replica to hold "+sub, func() bool { return c.System().HasSubject(grbac.SubjectID(sub)) })

	held.Store(true)
	home, _ := cl.m.Get("s0")
	cl.handOff(t, sub, home, cl.newShard(t, "x9"))
	waitFor("the home replica to drop "+sub, func() bool { return !c.System().HasSubject(grbac.SubjectID(sub)) })
	if err := router.UpsertSubject(ctx, pdp.BindingRequest{ID: sub, Roles: []string{"child"}}); err != nil {
		t.Fatalf("write after the handoff: %v", err)
	}
	if v := c.feed.View(); v.Pending != nil {
		t.Fatal("the SDK's feed saw the pending map: the front did not hold it back")
	}

	if d, err := c.Decide(ctx, shardPermitReq(sub)); err != nil || !d.Allowed || d.Source != SourceRemote {
		t.Fatalf("Decide(%s) = %+v, %v; want a remote permit", sub, d, err)
	}
	if ok, err := c.CheckAccess(ctx, shardPermitReq(sub)); err != nil || !ok {
		t.Fatalf("CheckAccess(%s) = %v, %v; want permit", sub, ok, err)
	}
	if out := c.DecideBatch(ctx, []grbac.Request{shardPermitReq(sub)}); out[0].Err != nil || !out[0].Decision.Allowed {
		t.Fatalf("batch = %+v, want permit", out[0])
	}
}

// TestSDKShardRebalanceRemoveKeepsSessions is the SDK half of draining a
// shard that holds sessions: after s2 is removed and stopped, the SDK's
// shard-direct routing sends each session, by its ID alone or with its
// subject, to the subject's new owner, which answers for its active role
// set as it changes.
func TestSDKShardRebalanceRemoveKeepsSessions(t *testing.T) {
	cl := bootShardedCluster(t, 3, 24)
	c := newEmbedded(t, cl.front.URL, WithShardRouting("s0"))
	ctx := context.Background()
	router := pdp.NewClient(cl.front.URL, nil)
	sessions := make(map[string]string)
	for _, sub := range cl.subs {
		if cl.m.Owner(sub).ID != "s2" {
			continue
		}
		sid, err := router.OpenSession(ctx, sub)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.SetSessionRole(ctx, sid, "child", true); err != nil {
			t.Fatal(err)
		}
		sessions[sub] = sid
	}
	if len(sessions) == 0 {
		t.Fatal("no subject on s2 — grow the subject set")
	}

	coord := cl.coordinator(t)
	next, err := cl.m.Remove("s2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Start(ctx, cl.m, next); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); coord.Status().Active; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("rebalance never settled: %+v", coord.Status())
		}
	}
	if st := coord.Status(); st.Phase != "done" {
		t.Fatalf("rebalance status = %+v, want done", st)
	}
	for deadline := time.Now().Add(5 * time.Second); c.ShardMap().Version() != next.Version(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("SDK map v%d, want v%d", c.ShardMap().Version(), next.Version())
		}
	}
	cl.shards["s2"].Close()

	check := func(sub, sid string, want bool) {
		t.Helper()
		req := shardPermitReq(sub)
		req.Session = grbac.SessionID(sid)
		for _, named := range []grbac.SubjectID{"", grbac.SubjectID(sub)} {
			req.Subject = named
			if d, err := c.Decide(ctx, req); err != nil || d.Allowed != want || d.Source != SourceRemote {
				t.Fatalf("Decide(%+v) = %+v, %v; want a remote allowed=%v", req, d, err, want)
			}
		}
	}
	for sub, sid := range sessions {
		check(sub, sid, true)
		if err := router.SetSessionRole(ctx, sid, "child", false); err != nil {
			t.Fatalf("deactivate child in %s: %v", sid, err)
		}
		check(sub, sid, false)
		if err := router.SetSessionRole(ctx, sid, "child", true); err != nil {
			t.Fatalf("activate child in %s: %v", sid, err)
		}
		check(sub, sid, true)
		if err := router.CloseSession(ctx, sid); err != nil {
			t.Fatalf("CloseSession(%s): %v", sid, err)
		}
		req := shardPermitReq(sub)
		req.Subject, req.Session = "", grbac.SessionID(sid)
		if _, err := c.Decide(ctx, req); err == nil || !strings.Contains(err.Error(), "404") {
			t.Fatalf("closed session %s decides: %v, want the owner's 404", sid, err)
		}
	}
}

// TestSDKShardBatchMisalignedReply pins the one rule for a sub-batch
// reply of the wrong length on the shard-direct batch: one result too
// many or too few fails every item of that shard's group safe.
func TestSDKShardBatchMisalignedReply(t *testing.T) {
	for _, delta := range []int{+1, -1} {
		bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req pdp.BatchDecideRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			resp := pdp.BatchDecideResponse{Results: make([]pdp.BatchItem, len(req.Requests)+delta)}
			for i := range resp.Results {
				resp.Results[i].Decision = &pdp.DecideResponse{Allowed: true, Effect: "permit"}
			}
			_ = json.NewEncoder(w).Encode(resp)
		}))
		t.Cleanup(bad.Close)
		home := (&shardedCluster{}).newShard(t, "s0")
		m, err := shard.New(0, home, shard.Info{ID: "s1", Addr: bad.URL})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := pdp.NewRouter(m)
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(rt)
		t.Cleanup(front.Close)
		c := newEmbedded(t, front.URL, WithShardRouting("s0"))

		var reqs []grbac.Request
		for i := 0; len(reqs) < 2; i++ {
			if sub := fmt.Sprintf("member-%03d", i); m.Owner(sub).ID == "s1" {
				reqs = append(reqs, shardPermitReq(sub))
			}
		}
		for i, r := range c.DecideBatch(context.Background(), reqs) {
			if r.Err != nil || r.Decision.Allowed || r.Decision.Source != SourceFailSafe ||
				!strings.Contains(r.Decision.Reason, "misaligned batch reply") {
				t.Fatalf("delta %+d: item %d = %+v, want a fail-safe deny for the misaligned group", delta, i, r)
			}
		}
	}
}

// TestSDKShardRemoteClientFor pins what the SDK does with the owner
// rule's answers: a placed request, by its subject or by the subject its
// session ID names, goes to its shard's client; every request the table
// cannot place goes to the configured remote.
func TestSDKShardRemoteClientFor(t *testing.T) {
	m, err := shard.New(0, shard.Info{ID: "s0", Addr: "http://s0"}, shard.Info{ID: "s1", Addr: "http://s1"})
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{remote: pdp.NewClient("http://router", nil)}
	tab, err := pdp.NewShardTable(nil, m, c.newShardClient)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		req  pdp.DecideRequest
		want *pdp.Client
	}{
		{pdp.DecideRequest{Subject: "alice"}, tab.Client(m.Owner("alice").ID)},
		{pdp.DecideRequest{Session: "sess-4-bob"}, tab.Client(m.Owner("bob").ID)},
		{pdp.DecideRequest{Session: "abc"}, c.remote},
		{pdp.DecideRequest{Session: "s1/sess-4-bob"}, c.remote},
		{pdp.DecideRequest{Object: "tv"}, c.remote},
	} {
		if got := c.remoteClientFor(tab, &tc.req); got != tc.want {
			t.Errorf("remoteClientFor(%+v) = %p, want %p", tc.req, got, tc.want)
		}
	}
}

// TestSDKShardRoutingHomeShardSelection pins explicit home-shard choice
// and rejection of unknown IDs.
func TestSDKShardRoutingHomeShardSelection(t *testing.T) {
	routerURL, _, _ := newShardedCluster(t, 3, 4)
	c := newEmbedded(t, routerURL, WithShardRouting("s2"))
	if c.homeShard != "s2" {
		t.Fatalf("home shard = %q, want s2", c.homeShard)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5e9)
	defer cancel()
	if _, err := New(ctx, routerURL, WithLogger(quiet), WithShardRouting("nope")); err == nil {
		t.Fatal("unknown home shard must fail bootstrap")
	}
}
