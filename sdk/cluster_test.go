package sdk

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/store"
)

// openDurablePrimary boots a durable store in dir (seeding the test
// policy on first boot) and wires a PDP server as a durable primary:
// epoch-pinned replication source with the store as delta provider.
func openDurablePrimary(t *testing.T, dir string) (*store.Durable, *pdp.Server) {
	t.Helper()
	compiled, err := policy.Compile(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	seedSys := core.NewSystem()
	if err := compiled.Apply(seedSys, nil); err != nil {
		t.Fatal(err)
	}
	seed := seedSys.Export()
	dur, err := store.Open(dir, store.WithSeedState(&seed), store.WithDurableLogger(quiet))
	if err != nil {
		t.Fatal(err)
	}
	sys := dur.System()
	srv := pdp.NewServer(sys,
		pdp.WithReplicaSource(replica.NewSource(sys,
			replica.WithSourceEpoch(dur.Epoch()),
			replica.WithDeltaProvider(dur))),
		pdp.WithDurableStore(dur))
	return dur, srv
}

// TestSDKClusterRidesPrimaryRestart is the acceptance scenario for the
// embedded data plane: an SDK node bootstraps from a durable primary,
// sees a primary mutation arrive in its next decision purely through
// watch-driven invalidation (the test waits on the policy-change signal,
// never a polling sleep), survives the primary dying and restarting from
// its data directory under the same epoch, and converges on post-restart
// policy through the delta feed.
func TestSDKClusterRidesPrimaryRestart(t *testing.T) {
	dir := t.TempDir()
	dur1, server1 := openDurablePrimary(t, dir)

	// The SDK needs one stable primary URL across the restart, so the
	// test server proxies to whichever incarnation holds the pointer.
	var current atomic.Pointer[pdp.Server]
	current.Store(server1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	// A short poll: the watch parked on the dead incarnation ends at its
	// next keepalive, not at the default cap.
	feed := replica.NewClient(ts.URL, ts.Client())
	feed.MaxWait = 100 * time.Millisecond
	c := newEmbedded(t, ts.URL, WithFetcher(feed))
	if ok, err := c.CheckAccess(context.Background(), permitReq()); err != nil || !ok {
		t.Fatalf("bootstrap CheckAccess = %v, %v; want permit", ok, err)
	}

	// awaitFlip waits for the embedded node's decision on permitReq to
	// reach want, driven entirely by the push signal.
	awaitFlip := func(what string, want bool) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			d, err := c.Decide(context.Background(), permitReq())
			if err != nil {
				t.Fatal(err)
			}
			if d.Allowed == want {
				if d.Source != SourceLocal {
					t.Fatalf("%s: decision source = %s, want local", what, d.Source)
				}
				return
			}
			ch := c.PolicyChanged()
			// Re-check after arming: the change may have landed between
			// the Decide above and the arm.
			if d, err := c.Decide(context.Background(), permitReq()); err == nil && d.Allowed == want {
				return
			}
			select {
			case <-ch:
			case <-deadline:
				t.Fatalf("timed out waiting for %s; stats %+v", what, c.Stats())
			}
		}
	}

	// A primary mutation must reach the embedded node's next decision via
	// the watch feed.
	if err := dur1.System().Grant(core.Permission{
		Subject: "child", Object: "entertainment-devices",
		Environment: "weekday-free-time", Transaction: "use",
		Effect: core.Deny,
	}); err != nil {
		t.Fatal(err)
	}
	awaitFlip("deny grant to propagate", false)
	preRestart := c.Stats()
	if preRestart.Replication.Syncs != 1 {
		t.Fatalf("steady-state propagation used %d full snapshots, want 1 (deltas only); stats %+v",
			preRestart.Replication.Syncs, preRestart)
	}

	// Kill the primary without ceremony and restart from the same data
	// directory: same epoch, state intact, feed resumes.
	epochBefore := dur1.Epoch()
	dur2, server2 := openDurablePrimary(t, dir)
	defer dur2.Close()
	if dur2.Epoch() != epochBefore {
		t.Fatalf("epoch changed across restart: %s -> %s", epochBefore, dur2.Epoch())
	}
	current.Store(server2)

	// Post-restart policy still converges: revoking the deny flips the
	// embedded decision back to permit, again push-driven.
	if err := dur2.System().Revoke(core.Permission{
		Subject: "child", Object: "entertainment-devices",
		Environment: "weekday-free-time", Transaction: "use",
		Effect: core.Deny,
	}); err != nil {
		t.Fatal(err)
	}
	awaitFlip("post-restart revoke to propagate", true)

	post := c.Stats()
	if post.Replication.Epoch != epochBefore {
		t.Fatalf("SDK epoch drifted across restart: %s != %s", post.Replication.Epoch, epochBefore)
	}
	if post.Replication.AppliedGeneration != dur2.System().Generation() {
		t.Fatalf("SDK at generation %d, primary at %d",
			post.Replication.AppliedGeneration, dur2.System().Generation())
	}
	if post.RemoteFallbacks != 0 || post.FailSafeDenies != 0 {
		t.Fatalf("embedded mediation leaked to fallback paths: %+v", post)
	}
}
