package pdp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/shard"
	"github.com/aware-home/grbac/internal/store"
)

// newShardServer builds one standalone shard: a full admin-enabled PDP,
// with opts, over a fresh system with the shared policy applied.
func newShardServer(t *testing.T, opts ...ServerOption) (*core.System, *httptest.Server) {
	t.Helper()
	compiled, err := policy.Compile(sharedPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem()
	if err := compiled.Apply(sys, nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sys, append([]ServerOption{WithAdmin()}, opts...)...))
	t.Cleanup(srv.Close)
	return sys, srv
}

// runRebalance runs cur→next with coord the way RebalanceHandler does,
// with Start, waits for the run to settle and returns its error.
func runRebalance(t *testing.T, coord *shard.Coordinator, cur, next *shard.Map) error {
	t.Helper()
	if _, err := coord.Start(context.Background(), cur, next); err != nil {
		return err
	}
	for deadline := time.Now().Add(30 * time.Second); coord.Status().Active; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("rebalance never settled: %+v", coord.Status())
		}
	}
	if st := coord.Status(); st.Phase == "failed" {
		return errors.New(st.Error)
	}
	return nil
}

// wantProxiedPermits asserts that a direct client to a subject's old
// shard gets the new owner's permit for every request shape: decide,
// check with the subject and its session, check by session alone, and a
// batch mixing the moved subject with one still resident (resident
// names a subject the old shard still owns, "" for none).
func wantProxiedPermits(t *testing.T, old *Client, sub, session, resident string) {
	t.Helper()
	ctx := context.Background()
	if resp, err := old.Decide(ctx, permitReq(sub)); err != nil || !resp.Allowed {
		t.Fatalf("Decide(%s) via the old shard = %+v, %v; want permit", sub, resp, err)
	}
	check := DecideRequest{Subject: sub, Session: session, Object: "tv", Transaction: "use", Environment: []string{"weekday-free-time"}}
	if allowed, err := old.Check(ctx, check); err != nil || !allowed {
		t.Fatalf("session Check(%s) via the old shard = %v, %v; want permit", sub, allowed, err)
	}
	check.Subject = ""
	if allowed, err := old.Check(ctx, check); err != nil || !allowed {
		t.Fatalf("session-only Check(%s) via the old shard = %v, %v; want permit", session, allowed, err)
	}
	reqs := []DecideRequest{permitReq(sub)}
	if resident != "" {
		reqs = append(reqs, permitReq(resident))
	}
	batch, err := old.DecideBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range batch.Results {
		if item.Error != "" || item.Decision == nil || !item.Decision.Allowed {
			t.Fatalf("batch item %d via the old shard = %+v, want permit", i, item)
		}
	}
}

// onlyMap is a map at version v that names only the given shards.
func onlyMap(t *testing.T, v uint64, shards ...shard.Info) *shard.Map {
	t.Helper()
	m, err := shard.FromWire(shard.Wire{Version: v, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// publishPending publishes m as the cluster's pending map and waits until
// the shards at addrs hold it, the barrier the coordinator's plan uses.
func (c *routerCluster) publishPending(t *testing.T, m *shard.Map, addrs ...string) {
	t.Helper()
	if err := c.rt.SetPending(m); err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if _, err := NewMigrationNode(addr).Subjects(context.Background(), m.Version()); err != nil {
			t.Fatalf("shard %s never saw pending map v%d: %v", addr, m.Version(), err)
		}
	}
}

// awaitCommitted waits until the feed holds a committed map of version v.
func awaitCommitted(t *testing.T, f *MapFeed, v uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.await(ctx, func(mv *MapView) bool { return mv.Committed.Version() >= v && mv.Pending == nil }); err != nil {
		t.Fatalf("feed never committed v%d: %v", v, err)
	}
}

// TestMigrationProxiesAfterComplete drives one subject through a handoff
// by hand on a cluster whose shards follow the router's map feed: after
// the handoff has dropped the old owner's copy, while the move's map is
// pending and again once it is committed, the old owner answers
// subject- and session-scoped requests, a session-only check and a batch
// by forwarding them to the new owner, and a subject that never moved is
// still mediated locally.
func TestMigrationProxiesAfterComplete(t *testing.T) {
	ctx := context.Background()
	c := newRouterCluster(t, 1)
	oldSys, oldC := c.sys["s0"], NewClient(c.shards["s0"].URL, nil)
	newSys, newSrv := newShardServer(t, c.follow(t, "s1"))

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

	// Hand alice (record, roles, session) off to the new owner.
	to := shard.Info{ID: "s1", Addr: newSrv.URL}
	next := onlyMap(t, 2, to)
	c.publishPending(t, next, c.shards["s0"].URL, newSrv.URL)
	if err := NewMigrationNode(c.shards["s0"].URL).Handoff(ctx, []shard.Move{{Subject: "alice", To: to}}); err != nil {
		t.Fatal(err)
	}
	if oldSys.HasSubject("alice") || len(oldSys.Sessions()) != 0 {
		t.Fatalf("the old owner still holds alice or her session after handoff: %v", oldSys.Sessions())
	}
	wantProxiedPermits(t, oldC, "alice", sess.Session, "bob")

	// Committed: the old owner forwards by the committed map.
	if err := c.rt.SetMap(next); err != nil {
		t.Fatal(err)
	}
	awaitCommitted(t, c.feeds["s0"], next.Version())
	wantProxiedPermits(t, oldC, "alice", sess.Session, "bob")
	// bob never moved and still answers locally.
	if resp, err := oldC.Decide(ctx, permitReq("bob")); err != nil || !resp.Allowed {
		t.Fatalf("Decide(bob) = %+v, %v; want permit", resp, err)
	}
	// The new owner carries alice's session under its original ID.
	if _, err := newSys.Session(core.SessionID(sess.Session)); err != nil {
		t.Fatalf("session %q missing on new owner: %v", sess.Session, err)
	}
}

// TestMigrationProxyKeepsCorrelationID pins that the old shard forwards a
// moved subject's decide, check and batch under the caller's correlation
// ID: the new owner audits each under it, and each reply carries it in
// its header and its body.
func TestMigrationProxyKeepsCorrelationID(t *testing.T) {
	ctx := context.Background()
	c := newRouterCluster(t, 1)
	oldSrv := c.shards["s0"]
	_, newSrv := newShardServer(t, WithAuditLogger(audit.NewLogger()), c.follow(t, "s1"))
	if err := NewClient(oldSrv.URL, nil).UpsertSubject(ctx, BindingRequest{ID: "alice", Roles: []string{"child"}}); err != nil {
		t.Fatal(err)
	}
	to := shard.Info{ID: "s1", Addr: newSrv.URL}
	c.publishPending(t, onlyMap(t, 2, to), oldSrv.URL)
	if err := NewMigrationNode(oldSrv.URL).Handoff(ctx, []shard.Move{{Subject: "alice", To: to}}); err != nil {
		t.Fatal(err)
	}

	decision := `{"subject":"alice","object":"tv","transaction":"use","environment":["weekday-free-time"]}`
	newOwner := NewClient(newSrv.URL, nil)
	for _, tc := range []struct{ route, body string }{
		{decidePath, decision},
		{checkPath, decision},
		{batchPath, `{"requests":[` + decision + `]}`},
	} {
		corr := "corr-proxied" + strings.ReplaceAll(tc.route, "/", "-")
		req, err := http.NewRequest(http.MethodPost, oldSrv.URL+tc.route, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(CorrelationHeader, corr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			CorrelationID string `json:"correlation_id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s via the old shard = %d, %v", tc.route, resp.StatusCode, err)
		}
		if got := resp.Header.Get(CorrelationHeader); got != corr || body.CorrelationID != corr {
			t.Fatalf("%s reply carries %q in its header and %q in its body, want %q in both",
				tc.route, got, body.CorrelationID, corr)
		}
		recs, err := newOwner.Audit(ctx, AuditQuery{CorrelationID: corr})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Route != tc.route || recs[0].Subject != "alice" {
			t.Fatalf("new owner's audit for %s = %+v, want one %s record for alice", corr, recs, tc.route)
		}
	}
}

// TestMigrationProxiesTwoMoveChain moves alice A → B, then B → C, each a
// pending map, a handoff and a commit on the router the shards follow,
// and decides through a second router whose map still names only A: A
// forwards by the published maps, so a caller two rebalances behind still
// gets the owner's permit.
func TestMigrationProxiesTwoMoveChain(t *testing.T) {
	ctx := context.Background()
	c := newRouterCluster(t, 1)
	srvA := c.shards["s0"]
	_, srvB := newShardServer(t, c.follow(t, "b"))
	sysC, srvC := newShardServer(t, c.follow(t, "c"))
	if err := NewClient(srvA.URL, nil).UpsertSubject(ctx, BindingRequest{ID: "alice", Roles: []string{"child"}}); err != nil {
		t.Fatal(err)
	}
	for i, hop := range []struct {
		from *httptest.Server
		to   shard.Info
	}{{srvA, shard.Info{ID: "b", Addr: srvB.URL}}, {srvB, shard.Info{ID: "c", Addr: srvC.URL}}} {
		next := onlyMap(t, uint64(i)+2, hop.to)
		c.publishPending(t, next, srvA.URL, srvB.URL, srvC.URL)
		if err := NewMigrationNode(hop.from.URL).Handoff(ctx, []shard.Move{{Subject: "alice", To: hop.to}}); err != nil {
			t.Fatal(err)
		}
		if err := c.rt.SetMap(next); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sysC.ExportSubject("alice"); err != nil {
		t.Fatalf("alice on C after two moves: %v", err)
	}

	stale, err := NewRouter(c.m)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(stale)
	t.Cleanup(front.Close)
	if resp, err := NewClient(front.URL, nil).Decide(ctx, permitReq("alice")); err != nil || !resp.Allowed {
		t.Fatalf("Decide(alice) through a router on map {A} = %+v, %v; want permit", resp, err)
	}
}

// TestMigrationHandoffKeepsWindowWrites pins that a handoff copies each
// subject once: a role assignment and a session sent to the old owner
// after the handoff are forwarded to the new owner, a re-run handoff
// copies nothing over them, and a session opened through the forward
// stays addressable by its ID alone on the old owner.
func TestMigrationHandoffKeepsWindowWrites(t *testing.T) {
	ctx := context.Background()
	c := newRouterCluster(t, 1)
	oldC := NewClient(c.shards["s0"].URL, nil)
	newSys, newSrv := newShardServer(t, c.follow(t, "s1"))
	if err := oldC.UpsertSubject(ctx, BindingRequest{ID: "alice", Roles: []string{"family-member"}}); err != nil {
		t.Fatal(err)
	}
	to := shard.Info{ID: "s1", Addr: newSrv.URL}
	c.publishPending(t, onlyMap(t, 2, to), c.shards["s0"].URL)
	node := NewMigrationNode(c.shards["s0"].URL)
	move := []shard.Move{{Subject: "alice", To: to}}
	if err := node.Handoff(ctx, move); err != nil {
		t.Fatal(err)
	}

	// The window: every write goes to the old owner.
	if err := oldC.UpsertSubject(ctx, BindingRequest{ID: "alice", Roles: []string{"child"}}); err != nil {
		t.Fatalf("role upsert in the window: %v", err)
	}
	var sess SessionResponse
	if err := oldC.Call(ctx, http.MethodPost, "/v1/sessions", SessionRequest{Subject: "alice"}, &sess); err != nil {
		t.Fatalf("session open in the window: %v", err)
	}
	if err := oldC.Call(ctx, http.MethodPost, "/v1/sessions/roles", SessionRoleRequest{Session: sess.Session, Role: "child", Active: true}, nil); err != nil {
		t.Fatalf("activate by session alone in the window: %v", err)
	}
	// A resumed coordinator hands the subject off again.
	if err := node.Handoff(ctx, move); err != nil {
		t.Fatal(err)
	}
	if c.sys["s0"].HasSubject("alice") {
		t.Fatal("the re-run handoff brought alice back to the old owner")
	}

	b, err := newSys.ExportSubject("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(b.Subject.Roles); got != "[child family-member]" {
		t.Fatalf("alice's roles on the new owner = %s, want [child family-member]", got)
	}
	si, err := newSys.Session(core.SessionID(sess.Session))
	if err != nil {
		t.Fatalf("window session on the new owner: %v", err)
	}
	if got := fmt.Sprint(si.Active); got != "[child]" {
		t.Fatalf("window session's active roles = %s, want [child]", got)
	}
	wantProxiedPermits(t, oldC, "alice", sess.Session, "")
}

// TestMigrationHandoffDropsEverySubject hands 10 000 subjects, each with
// an open session, off in direct handoff calls within 10 s: afterwards the
// old owner holds none of them, none of their sessions and no other
// per-subject state, and the new owner holds them all.
func TestMigrationHandoffDropsEverySubject(t *testing.T) {
	const n = 10000
	oldSys, newSys := core.NewSystem(), core.NewSystem()
	moves := make([]shard.Move, n)
	for i := range moves {
		sub := core.SubjectID(fmt.Sprintf("subject-%05d", i))
		if err := oldSys.AddSubject(sub); err != nil {
			t.Fatal(err)
		}
		if _, err := oldSys.CreateSession(sub); err != nil {
			t.Fatal(err)
		}
		moves[i] = shard.Move{Subject: string(sub)}
	}
	oldSrv := NewServer(oldSys, WithAdmin())
	oldHTTP := httptest.NewServer(oldSrv)
	t.Cleanup(oldHTTP.Close)
	newHTTP := httptest.NewServer(NewServer(newSys, WithAdmin()))
	t.Cleanup(newHTTP.Close)
	for i := range moves {
		moves[i].To = shard.Info{ID: "new", Addr: newHTTP.URL}
	}

	start := time.Now()
	node := NewMigrationNode(oldHTTP.URL)
	for lo := 0; lo < n; lo += 1000 {
		if err := node.Handoff(context.Background(), moves[lo:lo+1000]); err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(start)
	t.Logf("handed off %d subjects in %v (%v per subject)", n, took, took/n)
	if took > 10*time.Second {
		t.Fatalf("handoff of %d subjects took %v, want under 10s", n, took)
	}
	if s, ss := len(oldSys.Subjects()), len(oldSys.Sessions()); s != 0 || ss != 0 {
		t.Fatalf("old owner still holds %d subjects and %d sessions", s, ss)
	}
	clients := 0
	oldSrv.owners.clients.Range(func(any, any) bool { clients++; return true })
	if clients != 1 {
		t.Fatalf("old owner keeps %d forwarding clients, want the new owner's one", clients)
	}
	if s, ss := len(newSys.Subjects()), len(newSys.Sessions()); s != n || ss != n {
		t.Fatalf("new owner holds %d subjects and %d sessions, want %d of each", s, ss, n)
	}
}

// TestRebalanceEndToEnd is the tentpole integration: a live 2-shard
// cluster under continuous decide load grows to 3 shards through the
// coordinator. Not one decide may fail during the migration, the router
// must converge to the committed map version, and the post-state must
// be balanced (every shard holds exactly the subjects the new map
// assigns it). A moved subject's sessions answer from its new owner
// alone, with the old shards stopped.
func TestRebalanceEndToEnd(t *testing.T) {
	c := newRouterCluster(t, 2)
	subs := c.addSubjects(t, 32)
	ctx := context.Background()

	// Sessions created before the rebalance must survive it, including
	// for subjects that move.
	sessions := make(map[string]string)
	for _, sub := range subs {
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
	newSys, newSrv := newShardServer(t, c.follow(t, "s2"))
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

	coord := c.coordinator(t)
	next, err := c.m.Add(grow)
	if err != nil {
		t.Fatal(err)
	}
	err = runRebalance(t, coord, c.m, next)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("rebalance: %v", err)
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
	// Session-scoped decides survive the move, with the subject and by
	// the session alone.
	wantSessions := func(moved bool) {
		t.Helper()
		for sub, sess := range sessions {
			if moved && next.Owner(sub).ID != grow.ID {
				continue
			}
			check := DecideRequest{Subject: sub, Session: sess, Object: "tv", Transaction: "use",
				Environment: []string{"weekday-free-time"}}
			for _, named := range []string{sub, ""} {
				check.Subject = named
				if allowed, err := c.client.Check(ctx, check); err != nil || !allowed {
					t.Fatalf("post-rebalance session Check(%+v) = %v, %v", check, allowed, err)
				}
			}
		}
	}
	wantSessions(false)
	// They route to the new owner under the committed map, never through
	// the old shard: every moved session answers with both old shards
	// stopped.
	c.shards["s0"].Close()
	c.shards["s1"].Close()
	wantSessions(true)
}

// TestRebalanceRemoveKeepsSessions drains shard s2 out of a 3-shard
// cluster while its subjects hold sessions with child active, then stops
// s2. Each session moved with its subject, and the router still serves it
// by its ID alone on the map without s2: it checks with and without its
// subject, takes a deactivation and an activation, and closes.
func TestRebalanceRemoveKeepsSessions(t *testing.T) {
	c := newRouterCluster(t, 3)
	ctx := context.Background()
	sessions := make(map[string]string)
	for _, sub := range c.addSubjects(t, 24) {
		if c.m.Owner(sub).ID != "s2" {
			continue
		}
		sid, err := c.client.OpenSession(ctx, sub)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.client.SetSessionRole(ctx, sid, "child", true); err != nil {
			t.Fatal(err)
		}
		sessions[sub] = sid
	}
	if len(sessions) == 0 {
		t.Fatal("no subject on s2 — grow the subject set")
	}

	coord := c.coordinator(t)
	next, err := c.m.Remove("s2")
	if err != nil {
		t.Fatal(err)
	}
	if err := runRebalance(t, coord, c.m, next); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	c.shards["s2"].Close()

	check := func(sub, sid string, want bool) {
		t.Helper()
		req := DecideRequest{Subject: sub, Session: sid, Object: "tv", Transaction: "use",
			Environment: []string{"weekday-free-time"}}
		for _, named := range []string{"", sub} {
			req.Subject = named
			if allowed, err := c.client.Check(ctx, req); err != nil || allowed != want {
				t.Fatalf("Check(%+v) = %v, %v; want %v", req, allowed, err, want)
			}
		}
	}
	for sub, sid := range sessions {
		check(sub, sid, true)
		if err := c.client.SetSessionRole(ctx, sid, "child", false); err != nil {
			t.Fatalf("deactivate child in %s: %v", sid, err)
		}
		check(sub, sid, false)
		if err := c.client.SetSessionRole(ctx, sid, "child", true); err != nil {
			t.Fatalf("activate child in %s: %v", sid, err)
		}
		check(sub, sid, true)
		if err := c.client.CloseSession(ctx, sid); err != nil {
			t.Fatalf("CloseSession(%s): %v", sid, err)
		}
		if _, err := c.client.Check(ctx, DecideRequest{Session: sid, Object: "tv", Transaction: "use"}); err == nil ||
			!strings.Contains(err.Error(), "404") {
			t.Fatalf("closed session %s checks: %v, want the owner's 404", sid, err)
		}
	}
}

// TestRebalanceKeepsConcurrentWrites grows a live 2-shard cluster to 3
// through the coordinator while four writers open sessions, activate
// child in them and assign roles through the router, under continuous
// decides. No decide or write may fail, and every acked write must be on
// the subject's final owner: each acked session still takes a write
// addressed by its ID alone and permits its subject, each acked role is
// held. Every write assigns a (subject, role) pair of its own, so a lost
// one cannot hide behind a later repeat.
func TestRebalanceKeepsConcurrentWrites(t *testing.T) {
	c := newRouterCluster(t, 2)
	subs := c.addSubjects(t, 32)
	ctx := context.Background()
	newSys, newSrv := newShardServer(t, c.follow(t, "s2"))
	const tags = 16
	for i := 0; i < tags; i++ {
		role := RoleRequest{ID: fmt.Sprintf("tag-%d", i), Kind: "subject"}
		for _, api := range []*Client{c.client, NewClient(newSrv.URL, nil)} {
			if err := api.Call(ctx, http.MethodPost, "/v1/admin/roles", role, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	var (
		stop     = make(chan struct{})
		writes   atomic.Int64
		decides  atomic.Int64
		failures atomic.Int64
		firstErr atomic.Value
		mu       sync.Mutex
		sessions [][2]string // subject, session
		assigned [][2]string // subject, role
	)
	fail := func(err error) {
		failures.Add(1)
		firstErr.CompareAndSwap(nil, err)
	}
	var wg sync.WaitGroup
	loop := func(step func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				step(i)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		loop(func(int) {
			k := int(writes.Add(1) - 1)
			sub := subs[k%len(subs)]
			var sess SessionResponse
			if err := c.client.Call(ctx, http.MethodPost, "/v1/sessions", SessionRequest{Subject: sub}, &sess); err != nil {
				fail(fmt.Errorf("open session for %s: %w", sub, err))
				return
			}
			if err := c.client.Call(ctx, http.MethodPost, "/v1/sessions/roles", SessionRoleRequest{Session: sess.Session, Role: "child", Active: true}, nil); err != nil {
				fail(fmt.Errorf("activate child in %s: %w", sess.Session, err))
				return
			}
			mu.Lock()
			sessions = append(sessions, [2]string{sub, sess.Session})
			mu.Unlock()
			if k >= len(subs)*tags {
				return
			}
			role := fmt.Sprintf("tag-%d", k/len(subs))
			if err := c.client.UpsertSubject(ctx, BindingRequest{ID: sub, Roles: []string{role}}); err != nil {
				fail(fmt.Errorf("assign %s to %s: %w", role, sub, err))
				return
			}
			mu.Lock()
			assigned = append(assigned, [2]string{sub, role})
			mu.Unlock()
		})
	}
	for w := 0; w < 2; w++ {
		loop(func(i int) {
			sub := subs[(i*2+w)%len(subs)]
			resp, err := c.client.Decide(ctx, permitReq(sub))
			decides.Add(1)
			if err != nil || !resp.Allowed {
				fail(fmt.Errorf("Decide(%s) = %+v, %v", sub, resp, err))
			}
		})
	}
	// Writers run before, through and after the move.
	waitWrites := func(n int64) {
		for deadline := time.Now().Add(10 * time.Second); writes.Load() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("writers stalled at %d writes", writes.Load())
				return
			}
		}
	}
	waitWrites(32)

	coord := c.coordinator(t)
	next, err := c.m.Add(shard.Info{ID: "s2", Addr: newSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	before := writes.Load()
	err = runRebalance(t, coord, c.m, next)
	during := writes.Load() - before
	waitWrites(writes.Load() + 32)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d decides or writes failed across the rebalance; first: %v", n, firstErr.Load())
	}
	t.Logf("%d writes (%d during the move), %d decides", writes.Load(), during, decides.Load())

	systems := map[string]*core.System{"s0": c.sys["s0"], "s1": c.sys["s1"], "s2": newSys}
	for _, a := range assigned {
		b, err := systems[next.Owner(a[0]).ID].ExportSubject(core.SubjectID(a[0]))
		if err != nil {
			t.Fatalf("subject %s on its owner: %v", a[0], err)
		}
		if !slices.Contains(b.Subject.Roles, core.RoleID(a[1])) {
			t.Fatalf("acked role %s lost from %s: holds %v", a[1], a[0], b.Subject.Roles)
		}
	}
	for _, ss := range sessions {
		sub, sess := ss[0], ss[1]
		if err := c.client.Call(ctx, http.MethodPost, "/v1/sessions/roles", SessionRoleRequest{Session: sess, Role: "child", Active: true}, nil); err != nil {
			t.Fatalf("acked session %s after the rebalance: activate = %v", sess, err)
		}
		allowed, err := c.client.Check(ctx, DecideRequest{
			Subject: sub, Session: sess, Object: "tv", Transaction: "use",
			Environment: []string{"weekday-free-time"},
		})
		if err != nil || !allowed {
			t.Fatalf("acked session %s after the rebalance: Check = %v, %v; want permit", sess, allowed, err)
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

// TestMapFeedRidesRouterOutage takes the router down for several
// map-watch backoffs, commits a newer map while it is gone, and brings it
// back on the same address: a shard's feed must keep retrying through the
// outage and install the newer map once the router answers.
func TestMapFeedRidesRouterOutage(t *testing.T) {
	m, err := shard.New(0, shard.Info{ID: "s0", Addr: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(m)
	if err != nil {
		t.Fatal(err)
	}
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
		srv := &http.Server{Handler: rt}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		return srv, ln.Addr().String()
	}
	front, addr := serve("127.0.0.1:0")

	watchErrs := &lineCounter{substr: "shard map watch:"}
	f := NewMapFeed("http://"+addr, log.New(watchErrs, "", 0))
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
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := f.await(wctx, func(*MapView) bool { return true }); err != nil {
		t.Fatalf("feed never fetched the map: %v", err)
	}

	_ = front.Close()
	for deadline := time.Now().Add(10 * time.Second); watchErrs.n.Load() < 3; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("feed logged %d failed polls against a down router, want 3", watchErrs.n.Load())
		}
	}
	grown, err := m.Add(shard.Info{ID: "s9", Addr: "http://127.0.0.1:2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetMap(grown); err != nil {
		t.Fatal(err)
	}
	serve(addr)

	if err := f.await(wctx, func(v *MapView) bool { return v.Committed.Version() == grown.Version() }); err != nil {
		t.Fatalf("feed at map v%d after the router came back, want v%d: %v",
			f.View().Committed.Version(), grown.Version(), err)
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

// TestRebalanceHandlerAPI pins the operator surface: POST starts a
// rebalance asynchronously (202), status reports progress and settles
// on "done", a second concurrent start gets 409, and malformed actions
// get synchronous 400s.
func TestRebalanceHandlerAPI(t *testing.T) {
	c := newRouterCluster(t, 2)
	subs := c.addSubjects(t, 16)

	coord := c.coordinator(t)
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
	_, dest := newShardServer(t, c.follow(t, "s2"))
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

// TestRebalanceHandlerRefusesUnreadyShard adds a shard that cannot take
// part in a run: one that is unreachable, then one that follows no map
// feed. Each POST fails at once with 502, and nothing is published or
// journaled, so the cluster keeps serving on its committed map and the
// corrected POST runs to a commit.
func TestRebalanceHandlerRefusesUnreadyShard(t *testing.T) {
	c := newRouterCluster(t, 2)
	subs := c.addSubjects(t, 8)
	coord := c.coordinator(t)
	outer := http.NewServeMux()
	outer.Handle(ShardRebalancePath, NewRebalanceHandler(c.rt, coord, log.New(io.Discard, "", 0)))
	front := httptest.NewServer(outer)
	t.Cleanup(front.Close)
	api := NewClient(front.URL, nil)
	ctx := context.Background()

	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	_, unfed := newShardServer(t)
	seq := c.rt.feed.Load().Seq()
	for name, addr := range map[string]string{"unreachable": gone.URL, "no map feed": unfed.URL} {
		err := api.Call(ctx, http.MethodPost, ShardRebalancePath, RebalanceRequest{Action: "add", ID: "s2", Addr: addr}, nil)
		var re *RemoteError
		if !errors.As(err, &re) || re.Status != http.StatusBadGateway {
			t.Fatalf("add %s shard = %v, want 502", name, err)
		}
		if w := c.rt.feed.Load(); w.Pending != nil || w.Seq() != seq {
			t.Fatalf("add %s shard published %+v", name, w)
		}
		if st := coord.Status(); st.Active {
			t.Fatalf("add %s shard left the coordinator busy: %+v", name, st)
		}
		if resumed, err := coord.Resume(ctx); resumed || err != nil {
			t.Fatalf("Resume after the refused add of the %s shard = %v, %v; want nothing to resume", name, resumed, err)
		}
	}
	late := "after-refusal"
	if err := c.client.UpsertSubject(ctx, BindingRequest{ID: late, Roles: []string{"child"}}); err != nil {
		t.Fatalf("register after the refusals: %v", err)
	}
	if !c.sys[c.m.Owner(late).ID].HasSubject(core.SubjectID(late)) {
		t.Fatalf("%s is not on its committed owner", late)
	}

	_, dest := newShardServer(t, c.follow(t, "s2"))
	if err := api.Call(ctx, http.MethodPost, ShardRebalancePath, RebalanceRequest{Action: "add", ID: "s2", Addr: dest.URL}, nil); err != nil {
		t.Fatalf("corrected add: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); coord.Status().Active; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("corrected add never settled: %+v", coord.Status())
		}
	}
	if st := coord.Status(); st.Phase != "done" {
		t.Fatalf("corrected add = %+v, want done", st)
	}
	for _, sub := range append(subs, late) {
		if resp, err := c.client.Decide(ctx, permitReq(sub)); err != nil || !resp.Allowed {
			t.Fatalf("Decide(%s) after the corrected add = %+v, %v; want permit", sub, resp, err)
		}
	}
}

// TestRebalanceRefusesMisnamedShard adds a shard that follows the map
// feed under another shard's ID, s0, at the new shard s2's address. It
// answers and follows the feed, but it would forward s2's subjects as s0
// and answer s0's itself, so the readiness check, whose listing names the
// ID the map gives the shard, refuses the run with 502 before anything is
// published or journaled. Renamed, the shard joins.
func TestRebalanceRefusesMisnamedShard(t *testing.T) {
	c := newRouterCluster(t, 2)
	subs := c.addSubjects(t, 8)
	coord := shard.NewCoordinator(filepath.Join(t.TempDir(), "rebalance.journal"),
		func(info shard.Info) shard.NodeClient {
			n := NewMigrationNode(info.Addr)
			n.ID = info.ID
			return n
		},
		func(_ context.Context, m *shard.Map) error { return c.rt.SetPending(m) },
		func(_ context.Context, m *shard.Map) error { return c.rt.SetMap(m) },
		t.Logf)
	outer := http.NewServeMux()
	outer.Handle(ShardRebalancePath, NewRebalanceHandler(c.rt, coord, log.New(io.Discard, "", 0)))
	front := httptest.NewServer(outer)
	t.Cleanup(front.Close)
	api := NewClient(front.URL, nil)
	ctx := context.Background()

	seq := c.rt.feed.Load().Seq()
	_, misnamed := newShardServer(t, c.follow(t, "s0"))
	err := api.Call(ctx, http.MethodPost, ShardRebalancePath, RebalanceRequest{Action: "add", ID: "s2", Addr: misnamed.URL}, nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusBadGateway || !strings.Contains(re.Message, `"s0"`) {
		t.Fatalf("add of a shard that follows the feed as s0 = %v, want 502 naming s0", err)
	}
	if w := c.rt.feed.Load(); w.Pending != nil || w.Seq() != seq {
		t.Fatalf("refused add published %+v", w)
	}
	if resumed, err := coord.Resume(ctx); resumed || err != nil {
		t.Fatalf("Resume after the refused add = %v, %v; want nothing to resume", resumed, err)
	}

	_, dest := newShardServer(t, c.follow(t, "s2"))
	if err := api.Call(ctx, http.MethodPost, ShardRebalancePath, RebalanceRequest{Action: "add", ID: "s2", Addr: dest.URL}, nil); err != nil {
		t.Fatalf("add of the rightly named shard: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); coord.Status().Active; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("add never settled: %+v", coord.Status())
		}
	}
	if st := coord.Status(); st.Phase != "done" {
		t.Fatalf("add of the rightly named shard = %+v, want done", st)
	}
	for _, sub := range subs {
		if resp, err := c.client.Decide(ctx, permitReq(sub)); err != nil || !resp.Allowed {
			t.Fatalf("Decide(%s) after the add = %+v, %v; want permit", sub, resp, err)
		}
	}
}

// BenchmarkMigrateHandoff times one POST /v1/migrate/handoff for N
// subjects, each with one open session, into a live new owner, and
// reports its cost per subject, which stays flat in N: no step of a
// handoff scans every subject or every session.
func BenchmarkMigrateHandoff(b *testing.B) {
	for _, n := range []int{500, 4000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				oldSys := core.NewSystem()
				newOwner := httptest.NewServer(NewServer(core.NewSystem(), WithAdmin()))
				req := MigrateHandoffRequest{Moves: make([]shard.Move, n)}
				for j := range req.Moves {
					sub := fmt.Sprintf("subject-%05d", j)
					if err := oldSys.AddSubject(core.SubjectID(sub)); err != nil {
						b.Fatal(err)
					}
					if _, err := oldSys.CreateSession(core.SubjectID(sub)); err != nil {
						b.Fatal(err)
					}
					req.Moves[j] = shard.Move{Subject: sub, To: shard.Info{ID: "new", Addr: newOwner.URL}}
				}
				body, err := json.Marshal(req)
				if err != nil {
					b.Fatal(err)
				}
				srv := NewServer(oldSys, WithAdmin())
				w := httptest.NewRecorder()
				r := httptest.NewRequest(http.MethodPost, MigrateHandoffPath, bytes.NewReader(body))
				b.StartTimer()
				srv.ServeHTTP(w, r)
				b.StopTimer()
				if w.Code != http.StatusOK {
					b.Fatalf("handoff = %d: %s", w.Code, w.Body)
				}
				newOwner.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/subject")
		})
	}
}

// hookedNode runs before ahead of the first handoff of a run, after the
// coordinator's plan has listed every shard.
type hookedNode struct {
	shard.NodeClient
	before func()
}

func (n hookedNode) Handoff(ctx context.Context, moves []shard.Move) error {
	n.before()
	return n.NodeClient.Handoff(ctx, moves)
}

// TestRebalanceRegistersAfterPlanOnNewOwner registers subjects through
// the router after the coordinator's plan has listed every shard's
// residents. Each is born on its owner under the pending map, so after
// the commit every one sits on its new owner alone and decides through
// the router.
func TestRebalanceRegistersAfterPlanOnNewOwner(t *testing.T) {
	c := newRouterCluster(t, 2)
	c.addSubjects(t, 16)
	ctx := context.Background()
	newSys, newSrv := newShardServer(t, c.follow(t, "s2"))
	late := make([]string, 16)
	var once sync.Once
	register := func() {
		once.Do(func() {
			for i := range late {
				late[i] = fmt.Sprintf("late-%02d", i)
				if err := c.client.UpsertSubject(ctx, BindingRequest{ID: late[i], Roles: []string{"child"}}); err != nil {
					t.Errorf("register %s after the plan: %v", late[i], err)
				}
			}
		})
	}
	coord := shard.NewCoordinator(filepath.Join(t.TempDir(), "rebalance.journal"),
		func(info shard.Info) shard.NodeClient { return hookedNode{NewMigrationNode(info.Addr), register} },
		func(_ context.Context, m *shard.Map) error { return c.rt.SetPending(m) },
		func(_ context.Context, m *shard.Map) error { return c.rt.SetMap(m) },
		t.Logf)
	next, err := c.m.Add(shard.Info{ID: "s2", Addr: newSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := runRebalance(t, coord, c.m, next); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if late[0] == "" {
		t.Fatal("the run made no handoff — grow the subject set")
	}
	systems := map[string]*core.System{"s0": c.sys["s0"], "s1": c.sys["s1"], "s2": newSys}
	onNew := 0
	for _, sub := range late {
		owner := next.Owner(sub).ID
		if owner == "s2" {
			onNew++
		}
		for id, sys := range systems {
			if held := sys.HasSubject(core.SubjectID(sub)); held != (id == owner) {
				t.Fatalf("%s registered after the plan: held by %s = %v, owner %s", sub, id, held, owner)
			}
		}
		if resp, err := c.client.Decide(ctx, permitReq(sub)); err != nil || !resp.Allowed {
			t.Fatalf("Decide(%s) after the commit = %+v, %v; want permit", sub, resp, err)
		}
	}
	if onNew == 0 {
		t.Fatal("no late subject belongs to the new shard — grow the late set")
	}
}

// TestRebalanceRestartedOldOwnerServesNoStaleCopy restarts a durable old
// owner between a handoff and the commit. Its delete of the handed-off
// subject survives the restart, so it serves no stale copy: until its
// feed delivers the map it answers 503, then it forwards, and every
// write acked in the window, a role and a session, sits on the final
// owner after the commit.
func TestRebalanceRestartedOldOwnerServesNoStaleCopy(t *testing.T) {
	ctx := context.Background()
	compiled, err := policy.Compile(sharedPolicy)
	if err != nil {
		t.Fatal(err)
	}
	seedSys := core.NewSystem()
	if err := compiled.Apply(seedSys, nil); err != nil {
		t.Fatal(err)
	}
	seed := seedSys.Export()
	dir := t.TempDir()
	front := httptest.NewUnstartedServer(nil)
	t.Cleanup(front.Close)
	c := &routerCluster{feed: "http://" + front.Listener.Addr().String(), feeds: make(map[string]*MapFeed)}

	// The old owner keeps one URL across its restart: the test server
	// serves whichever incarnation holds the pointer.
	var current atomic.Pointer[Server]
	boot := func() *store.Durable {
		dur, err := store.Open(dir, store.WithSeedState(&seed), quietStore)
		if err != nil {
			t.Fatal(err)
		}
		current.Store(NewServer(dur.System(), WithAdmin(), c.follow(t, "a")))
		return dur
	}
	boot()
	srvA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(srvA.Close)
	sysB, srvB := newShardServer(t, c.follow(t, "b"))
	rt, err := NewRouter(onlyMap(t, 1, shard.Info{ID: "a", Addr: srvA.URL}))
	if err != nil {
		t.Fatal(err)
	}
	c.rt = rt
	front.Config.Handler = rt
	front.Start()
	if _, err := NewMigrationNode(srvA.URL).Subjects(ctx, 1); err != nil {
		t.Fatalf("A never fetched the map: %v", err)
	}
	router := NewClient(front.URL, nil)
	if err := router.UpsertSubject(ctx, BindingRequest{ID: "alice", Roles: []string{"family-member"}}); err != nil {
		t.Fatal(err)
	}

	to := shard.Info{ID: "b", Addr: srvB.URL}
	next := onlyMap(t, 2, to)
	c.publishPending(t, next, srvA.URL, srvB.URL)
	if err := NewMigrationNode(srvA.URL).Handoff(ctx, []shard.Move{{Subject: "alice", To: to}}); err != nil {
		t.Fatal(err)
	}
	// The window: the router still sends alice's writes to A.
	if err := router.UpsertSubject(ctx, BindingRequest{ID: "alice", Roles: []string{"child"}}); err != nil {
		t.Fatalf("role write in the window: %v", err)
	}
	sid, err := router.OpenSession(ctx, "alice")
	if err != nil {
		t.Fatalf("session open in the window: %v", err)
	}
	if err := router.SetSessionRole(ctx, sid, "child", true); err != nil {
		t.Fatalf("activate in the window: %v", err)
	}

	// A dies without ceremony and comes back from its data directory.
	dur := boot()
	defer dur.Close()
	if dur.System().HasSubject("alice") {
		t.Fatal("the restarted old owner recovered its handed-off copy of alice")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := router.Decide(ctx, permitReq("alice"))
		if err == nil {
			if !resp.Allowed {
				t.Fatalf("the restarted old owner answered alice with %+v, a stale copy's deny", resp)
			}
			break
		}
		var re *RemoteError
		if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("Decide(alice) via the restarted old owner: %v", err)
		}
	}

	if err := rt.SetMap(next); err != nil {
		t.Fatal(err)
	}
	b, err := sysB.ExportSubject("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(b.Subject.Roles); got != "[child family-member]" {
		t.Fatalf("alice's roles on the final owner = %s, want [child family-member]", got)
	}
	if len(b.Sessions) != 1 || b.Sessions[0].ID != core.SessionID(sid) || fmt.Sprint(b.Sessions[0].Active) != "[child]" {
		t.Fatalf("alice's sessions on the final owner = %+v, want %s with child active", b.Sessions, sid)
	}
	if dur.System().HasSubject("alice") {
		t.Fatal("the old owner holds alice again")
	}
	allowed, err := router.Check(ctx, DecideRequest{Session: sid, Object: "tv", Transaction: "use", Environment: []string{"weekday-free-time"}})
	if err != nil || !allowed {
		t.Fatalf("session check after the commit = %v, %v; want permit", allowed, err)
	}
}

// TestMigrationRefusesForgedHop sends a registration straight to a
// shard that does not own the subject, with a hop header claiming the
// owner forwarded it there. The shard answers 409 and creates nothing,
// and the subject registers on its owner through the router afterwards.
func TestMigrationRefusesForgedHop(t *testing.T) {
	c := newRouterCluster(t, 2)
	ctx := context.Background()
	sub := "forged"
	owner := c.m.Owner(sub).ID
	other := "s0"
	if owner == other {
		other = "s1"
	}
	seq := strconv.FormatUint(c.rt.feed.Load().Seq(), 10)
	for _, hop := range []string{"2 " + seq, "1 " + seq} {
		direct := NewClient(c.shards[other].URL, nil)
		err := direct.Call(context.WithValue(ctx, hopKey{}, hop), http.MethodPost, "/v1/admin/subjects", BindingRequest{ID: sub, Roles: []string{"child"}}, nil)
		var re *RemoteError
		switch {
		case hop[0] == '2' && (!errors.As(err, &re) || re.Status != http.StatusConflict):
			t.Fatalf("registration on %s with hop %q = %v, want 409", other, hop, err)
		case hop[0] == '1' && err != nil:
			t.Fatalf("registration on %s with hop %q = %v, want it forwarded to %s", other, hop, err, owner)
		}
		if c.sys[other].HasSubject(core.SubjectID(sub)) {
			t.Fatalf("hop %q created %s on %s, which no map names its owner", hop, sub, other)
		}
	}
	if !c.sys[owner].HasSubject(core.SubjectID(sub)) {
		t.Fatalf("the hop-1 registration did not reach the owner %s", owner)
	}
	if resp, err := c.client.Decide(ctx, permitReq(sub)); err != nil || !resp.Allowed {
		t.Fatalf("Decide(%s) through the router = %+v, %v; want permit", sub, resp, err)
	}
}

// TestMigrationOwnerRule pins the ownership rule's table on a shard "a"
// that holds alice, over hand-made feed views: where a request for a
// subject it does not hold goes at each hop, for views that lag or lead
// the sender's, and that a forwarded request reaching a shard no map
// names is refused.
func TestMigrationOwnerRule(t *testing.T) {
	sys := core.NewSystem()
	if err := sys.AddSubject("alice"); err != nil {
		t.Fatal(err)
	}
	feed := NewMapFeed("http://unused", log.New(io.Discard, "", 0))
	srv := NewServer(sys, WithAdmin(), WithMapFeed("a", feed))
	only := func(v uint64, id string) *shard.Map { return onlyMap(t, v, shard.Info{ID: id, Addr: "http://" + id}) }
	view := func(committed, pending *shard.Map) *MapView {
		w := shard.Wire{Version: committed.Version()}
		if pending != nil {
			w.Pending = &shard.Wire{}
		}
		return &MapView{Committed: committed, Pending: pending, seq: w.Seq()}
	}
	for _, tc := range []struct {
		name             string
		view             *MapView
		hop              string
		subject, session string
		want             string // "" answers here
		err              error
	}{
		{"held", view(only(1, "b"), nil), "", "alice", "", "", nil},
		{"hop 0 to the committed owner", view(only(1, "b"), nil), "", "bob", "", "b", nil},
		{"hop 0 by the session's subject", view(only(1, "b"), nil), "", "", "sess-4-bob", "b", nil},
		{"hop 0 on the committed owner to the pending one", view(only(1, "a"), only(2, "c")), "", "bob", "", "c", nil},
		{"hop 0 with no other owner", view(only(1, "a"), nil), "", "bob", "", "", nil},
		{"hop 1 to the pending owner", view(only(1, "b"), only(2, "c")), "1 3", "bob", "", "c", nil},
		{"hop 1 on the pending owner", view(only(1, "b"), only(2, "a")), "1 3", "bob", "", "", nil},
		{"hop 1 past the sender's commit", view(only(2, "c"), nil), "1 3", "bob", "", "c", nil},
		{"hop 2 on the pending owner", view(only(1, "b"), only(2, "a")), "2 3", "bob", "", "", nil},
		{"hop 2 on the committed owner", view(only(1, "a"), only(2, "c")), "2 3", "bob", "", "", nil},
		{"hop 2 on a shard no map names", view(only(1, "b"), only(2, "c")), "2 3", "bob", "", "", errNotOwner},
		{"hop 2 on a shard no map names, no pending", view(only(1, "b"), nil), "2 2", "bob", "", "", errNotOwner},
	} {
		feed.view.Store(tc.view)
		r := httptest.NewRequest(http.MethodPost, decidePath, nil)
		if tc.hop != "" {
			r.Header.Set(HopHeader, tc.hop)
		}
		sh, err := srv.owner(r, tc.subject, tc.session)
		got := ""
		if sh != nil {
			got = sh.ID
		}
		if err != tc.err || got != tc.want {
			t.Errorf("%s: owner = %q, %v; want %q, %v", tc.name, got, err, tc.want, tc.err)
		}
	}

	// A shard behind the sender's view waits for its feed to catch up,
	// and answers 503 if it does not.
	feed.view.Store(view(only(1, "b"), nil))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	r := httptest.NewRequest(http.MethodPost, decidePath, nil).WithContext(ctx)
	r.Header.Set(HopHeader, "1 3")
	if sh, err := srv.owner(r, "bob", ""); sh != nil || err == nil {
		t.Errorf("owner behind the sender's view = %v, %v; want an error", sh, err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		feed.view.Store(view(only(1, "b"), only(2, "a")))
		feed.changed.Publish(3)
	}()
	r = httptest.NewRequest(http.MethodPost, decidePath, nil)
	r.Header.Set(HopHeader, "1 3")
	if sh, err := srv.owner(r, "bob", ""); sh != nil || err != nil {
		t.Errorf("owner once caught up to the sender's pending map = %v, %v; want here", sh, err)
	}
	// Before the feed's first fetch only held subjects are answered.
	unfed := NewServer(sys, WithAdmin(), WithMapFeed("a", NewMapFeed("http://unused", log.New(io.Discard, "", 0))))
	r = httptest.NewRequest(http.MethodPost, decidePath, nil)
	if sh, err := unfed.owner(r, "bob", ""); sh != nil || !errors.Is(err, errNoMapView) {
		t.Errorf("owner before the first fetch = %v, %v; want errNoMapView", sh, err)
	}
	if sh, err := unfed.owner(r, "alice", ""); sh != nil || err != nil {
		t.Errorf("owner of a held subject before the first fetch = %v, %v; want here", sh, err)
	}
}
