package sdk

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
		f := pdp.NewMapFeed(c.feed, quiet)
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

// TestSDKShardRouting pins shard-aware mediation: the SDK bootstraps
// from the router, replicates its home shard's partition, answers home
// subjects locally, and sends foreign subjects to the router — every
// decision correct either way.
func TestSDKShardRouting(t *testing.T) {
	routerURL, m, subs := newShardedCluster(t, 3, 24)
	c := newEmbedded(t, routerURL, WithShardRouting(""))
	ctx := context.Background()

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
// from the local snapshot, foreign ones ride one remote batch through the
// router, results stay index-aligned.
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

// TestSDKShardRoutingSessions pins session mediation: the SDK sends a
// session-scoped request to the router, which routes it to the owner of
// the subject the session ID names.
func TestSDKShardRoutingSessions(t *testing.T) {
	routerURL, m, subs := newShardedCluster(t, 3, 8)
	c := newEmbedded(t, routerURL, WithShardRouting(""))
	ctx := context.Background()

	// Pick a subject on a foreign shard, so only its owner can answer.
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

// TestSDKShardFetchesMapOnce pins what the SDK asks of the router's map:
// one GET of the published map at bootstrap, to find its home shard, and
// no map watch, before or after a sweep of local and remote decides.
func TestSDKShardFetchesMapOnce(t *testing.T) {
	cl := bootShardedCluster(t, 2, 8)
	var fetches, watches atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case pdp.ShardMapPath:
			fetches.Add(1)
		case pdp.ShardMapWatchPath:
			watches.Add(1)
		}
		cl.rt.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	c := newEmbedded(t, front.URL, WithShardRouting("s0"))
	for _, sub := range cl.subs {
		if d, err := c.Decide(context.Background(), shardPermitReq(sub)); err != nil || !d.Allowed {
			t.Fatalf("Decide(%s) = %+v, %v", sub, d, err)
		}
	}
	if f, w := fetches.Load(), watches.Load(); f != 1 || w != 0 {
		t.Fatalf("the SDK made %d map fetches and %d map watches, want 1 and 0", f, w)
	}
}

// TestSDKShardMapWatchConvergence is the SDK half of the rebalance
// tentpole: a coordinator grows the cluster by one shard and the router
// commits the new map. Once the home replica converges on its new
// partition, the embedded client answers locally exactly the subjects
// the replica holds and sends the rest to the router, every decision
// correct under the new ownership.
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

	// The home replica converges on the new partition: it holds exactly
	// the subjects the committed map gives the home shard.
	converged := func() bool {
		for _, sub := range cl.subs {
			if c.System().HasSubject(grbac.SubjectID(sub)) != (next.Owner(sub).ID == c.homeShard) {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(5 * time.Second); !converged(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the home replica never converged on the committed map's partition")
		}
	}

	// Post-rebalance sweep: decisions follow the replica — moved home
	// subjects now go remote, everything still permits.
	var locals, remotes int
	for _, sub := range cl.subs {
		d, err := c.Decide(ctx, shardPermitReq(sub))
		if err != nil || !d.Allowed {
			t.Fatalf("post-rebalance Decide(%s) = %+v, %v", sub, d, err)
		}
		wantSource := SourceRemote
		if c.System().HasSubject(grbac.SubjectID(sub)) {
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

// TestSDKReachesMovedSubjectThroughOldShard pins the pending-map path: a
// subject is handed off to a shard the committed map has never heard of
// (the router publishes that shard only in a pending map it never
// commits), and the SDK's decide and batch still succeed: the router
// sends them to the old owner by the committed map, and the old owner
// forwards them by the pending map.
func TestSDKReachesMovedSubjectThroughOldShard(t *testing.T) {
	cl := bootShardedCluster(t, 2, 8)
	c := newEmbedded(t, cl.front.URL, WithShardRouting("s0"))
	ctx := context.Background()

	// A foreign subject, which the SDK sends to the router.
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
// subject, so it asks the router, which sends it by the committed map to
// the old owner, which forwards to the new one: every local entry point
// answers with the write. An unknown subject is still ErrNotFound.
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

// TestSDKShardSeesHandoffBeforeItsFeed refuses the SDK every shard-map
// request after its bootstrap while a subject of its home shard is handed
// off and written to. The SDK needs no map to see the move: its home
// replica drops the subject, so it asks the router and answers with the
// write.
func TestSDKShardSeesHandoffBeforeItsFeed(t *testing.T) {
	cl := bootShardedCluster(t, 2, 0)
	// The SDK reaches the router through a front that, once held, answers
	// every shard-map request 503.
	var held atomic.Bool
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if held.Load() && strings.HasPrefix(r.URL.Path, pdp.ShardMapPath) {
			http.Error(w, "held", http.StatusServiceUnavailable)
			return
		}
		cl.rt.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	c := newEmbedded(t, front.URL, WithShardRouting("s0"))
	held.Store(true)
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

	home, _ := cl.m.Get("s0")
	cl.handOff(t, sub, home, cl.newShard(t, "x9"))
	waitFor("the home replica to drop "+sub, func() bool { return !c.System().HasSubject(grbac.SubjectID(sub)) })
	if err := router.UpsertSubject(ctx, pdp.BindingRequest{ID: sub, Roles: []string{"child"}}); err != nil {
		t.Fatalf("write after the handoff: %v", err)
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
// shard that holds sessions: after s2 is removed and stopped, the SDK
// sends each session, by its ID alone or with its subject, to the
// router, which routes it to the subject's new owner, which answers for
// its active role set as it changes.
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

// TestSDKShardBatchMisalignedReply pins the one rule for a batch reply of
// the wrong length, pdp.Client.DecideBatch's: when the router answers the
// SDK's remote batch with one result too many or too few, every remote
// item fails safe, and the home subjects still answer locally.
func TestSDKShardBatchMisalignedReply(t *testing.T) {
	cl := bootShardedCluster(t, 2, 8)
	for _, delta := range []int{+1, -1} {
		front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/decide/batch" {
				cl.rt.ServeHTTP(w, r)
				return
			}
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
		t.Cleanup(front.Close)
		c := newEmbedded(t, front.URL, WithShardRouting("s0"))

		reqs := make([]grbac.Request, len(cl.subs))
		for i, sub := range cl.subs {
			reqs[i] = shardPermitReq(sub)
		}
		var remotes int
		for i, r := range c.DecideBatch(context.Background(), reqs) {
			if cl.m.Owner(cl.subs[i]).ID == "s0" {
				if r.Err != nil || !r.Decision.Allowed || r.Decision.Source != SourceLocal {
					t.Fatalf("delta %+d: home item %d = %+v, want a local permit", delta, i, r)
				}
				continue
			}
			remotes++
			if r.Err != nil || r.Decision.Allowed || r.Decision.Source != SourceFailSafe ||
				!strings.Contains(r.Decision.Reason, "misaligned batch reply") {
				t.Fatalf("delta %+d: item %d = %+v, want a fail-safe deny for the misaligned reply", delta, i, r)
			}
		}
		if remotes == 0 {
			t.Fatal("no remote item: grow the subject set")
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
