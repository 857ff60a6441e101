package pdp

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/replica"
)

// newTestServerWithSource is newTestServer plus the replication feed:
// the returned server is a primary.
func newTestServerWithSource(t *testing.T) (*httptest.Server, *core.System) {
	t.Helper()
	compiled, err := policy.Compile(serverPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem()
	if err := compiled.Apply(sys, nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sys,
		WithAdmin(),
		WithReplicaSource(replica.NewSource(sys))))
	t.Cleanup(srv.Close)
	return srv, sys
}

func newHTTPServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func TestReplicaSnapshotEndpoint(t *testing.T) {
	srv, sys := newTestServerWithSource(t)
	snap, err := replica.NewClient(srv.URL, srv.Client()).Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.Epoch == "" {
		t.Fatal("snapshot missing epoch")
	}
	if snap.Generation != sys.Generation() {
		t.Fatalf("snapshot generation %d != system %d", snap.Generation, sys.Generation())
	}
	if len(snap.State.Permissions) == 0 {
		t.Fatal("snapshot state empty")
	}
}

// TestReplicaWatchLongPoll pins what the replica feed adds to the shared
// long-poll contract (TestWatchContract): the reply carries the feed's
// epoch, and a poll under a foreign epoch never parks, however large its
// generation claim.
func TestReplicaWatchLongPoll(t *testing.T) {
	srv, _ := newTestServerWithSource(t)
	client := replica.NewClient(srv.URL, srv.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	snap, err := client.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Watch(ctx, "some-old-epoch", 1<<40)
	if err != nil {
		t.Fatalf("watch under a foreign epoch: %v", err)
	}
	if resp.Epoch != snap.Epoch || resp.Generation != snap.Generation {
		t.Fatalf("watch under foreign epoch = %+v, want epoch %q generation %d",
			resp, snap.Epoch, snap.Generation)
	}
}

// newFollowerServer builds a primary+follower pair over httptest, the
// follower replicating into followerSys, and returns the follower's test
// server plus its Follower.
func newFollowerServer(t *testing.T, followerSys *core.System, opts ...replica.FollowerOption) (primary *core.System, follower *replica.Follower, followerURL string, hc *http.Client) {
	t.Helper()
	primarySrv, primarySys := newTestServerWithSource(t)
	f, fsrv := startFollower(t, primarySrv.URL, followerSys, opts...)
	return primarySys, f, fsrv.URL, fsrv.Client()
}

// startFollower runs a follower of upstreamURL, replicating into
// followerSys, behind a PDP server that also exposes its own replica feed
// and audit trail, as grbacd wires every node, so further followers can
// chain off it. It returns once the first sync has landed.
func startFollower(t *testing.T, upstreamURL string, followerSys *core.System, opts ...replica.FollowerOption) (*replica.Follower, *httptest.Server) {
	t.Helper()
	base := []replica.FollowerOption{
		replica.WithBackoff(time.Millisecond, 10*time.Millisecond),
	}
	f := replica.NewFollower(followerSys, upstreamURL, append(base, opts...)...)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = f.Run(ctx) }()

	fsrv := newHTTPServer(t, NewServer(followerSys,
		WithFollower(f),
		WithReplicaSource(replica.NewSource(followerSys)),
		WithAuditLogger(audit.NewLogger())))
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never synced")
		}
		time.Sleep(time.Millisecond)
	}
	return f, fsrv
}

// TestFollowerChaining pins the primary → follower → follower topology:
// a mutation on the primary reaches the second hop through the first
// hop's feed, and the second hop serves the result as fresh, not stale.
func TestFollowerChaining(t *testing.T) {
	primarySrv, _ := newTestServerWithSource(t)
	_, mid := startFollower(t, primarySrv.URL, core.NewSystem())
	leaf, leafSrv := startFollower(t, mid.URL, core.NewSystem())
	ctx := context.Background()
	req := DecideRequest{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []string{"weekday-free-time"},
	}
	client := NewClient(leafSrv.URL, leafSrv.Client())
	if resp, err := client.Decide(ctx, req); err != nil || !resp.Allowed {
		t.Fatalf("second-hop follower before the revoke = %+v, %v; want permit", resp, err)
	}

	if err := NewClient(primarySrv.URL, primarySrv.Client()).RevokePermission(ctx, PermissionRequest{
		Subject: "child", Object: "entertainment-devices", Environment: "weekday-free-time",
		Transaction: "use", Effect: "permit",
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := client.Decide(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Allowed {
			if resp.Stale {
				t.Fatal("second-hop follower marked a fresh decision stale")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("primary's revoke never reached the second-hop follower")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if leaf.Stale() {
		t.Fatal("second-hop follower reports itself stale")
	}
}

func TestFollowerServerRedirectsMutations(t *testing.T) {
	primarySys, _, followerURL, hc := newFollowerServer(t, core.NewSystem())

	// A no-redirect client sees the 307 + error envelope.
	noRedirect := &http.Client{
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	client := NewClient(followerURL, noRedirect)
	err := client.CreateRole(context.Background(), RoleRequest{ID: "r", Kind: "subject"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusTemporaryRedirect {
		t.Fatalf("err = %v, want RemoteError{307}", err)
	}

	// The default client follows the 307 and administers the primary.
	following := NewClient(followerURL, hc)
	if err := following.CreateRole(context.Background(), RoleRequest{
		ID: "visiting-nurse", Kind: "subject",
	}); err != nil {
		t.Fatalf("redirected CreateRole: %v", err)
	}
	found := false
	for _, r := range primarySys.Roles(core.SubjectRole) {
		if r.ID == "visiting-nurse" {
			found = true
		}
	}
	if !found {
		t.Fatal("redirected mutation did not land on the primary")
	}
}

func TestFollowerServerServesDecisionsAndStats(t *testing.T) {
	primarySys, f, followerURL, hc := newFollowerServer(t, core.NewSystem())
	client := NewClient(followerURL, hc)
	ctx := context.Background()

	// Wait for convergence, then decide locally on the follower.
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().AppliedGeneration != primarySys.Generation() {
		if time.Now().After(deadline) {
			t.Fatal("follower did not converge")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := client.Decide(ctx, DecideRequest{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []string{"weekday-free-time"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Allowed {
		t.Fatalf("follower denied the replicated permit: %+v", resp)
	}
	if resp.Stale {
		t.Fatal("healthy follower marked its decision stale")
	}

	// Statsz carries the replication section with zero lag.
	st, err := client.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication == nil {
		t.Fatal("follower statsz missing replication section")
	}
	if st.Replication.Lag != 0 || st.Replication.Syncs == 0 {
		t.Fatalf("replication stats = %+v", st.Replication)
	}
	if !client.Healthy(ctx) {
		t.Fatal("converged follower reported unhealthy")
	}
}

func TestFollowerServerDegradesWhenStale(t *testing.T) {
	// A clock we can push past the staleness bound.
	clk := clock.NewFake(time.Now())
	_, f, followerURL, hc := newFollowerServer(t, core.NewSystem(core.WithClock(clk)),
		replica.WithMaxStaleness(50*time.Millisecond))
	client := NewClient(followerURL, hc)
	ctx := context.Background()

	clk.Advance(time.Hour) // everything recorded is now ancient
	if !f.Stale() {
		t.Fatal("follower not stale after clock jump")
	}
	if client.Healthy(ctx) {
		t.Fatal("stale follower reported healthy")
	}
	resp, err := client.Decide(ctx, DecideRequest{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []string{"weekday-free-time"},
	})
	if err != nil {
		t.Fatalf("stale follower refused to serve: %v", err)
	}
	if !resp.Stale {
		t.Fatal("stale follower did not mark its decision")
	}
	if !resp.Allowed {
		t.Fatalf("stale follower changed the decision: %+v", resp)
	}
	// The decision's audit record says it was served stale.
	recs, err := client.Audit(ctx, AuditQuery{CorrelationID: resp.CorrelationID})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !recs[0].Stale || recs[0].Route != "/v1/decide" {
		t.Fatalf("audit records for the stale decision = %+v, want one stale /v1/decide record", recs)
	}
}
