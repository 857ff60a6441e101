package pdp

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/store"
)

var quietStore = store.WithDurableLogger(log.New(io.Discard, "", 0))

// openDurablePrimary boots a durable store in dir (seeding the server
// policy on first boot) and returns the store plus a PDP server wired as
// a durable primary: epoch-pinned source, delta provider, store stats.
func openDurablePrimary(t *testing.T, dir string) (*store.Durable, *Server) {
	t.Helper()
	compiled, err := policy.Compile(serverPolicy)
	if err != nil {
		t.Fatal(err)
	}
	seedSys := core.NewSystem()
	if err := compiled.Apply(seedSys, nil); err != nil {
		t.Fatal(err)
	}
	seed := seedSys.Export()
	dur, err := store.Open(dir, store.WithSeedState(&seed), quietStore)
	if err != nil {
		t.Fatal(err)
	}
	sys := dur.System()
	srv := NewServer(sys,
		WithAdmin(),
		WithReplicaSource(replica.NewSource(sys,
			replica.WithSourceEpoch(dur.Epoch()),
			replica.WithDeltaProvider(dur))),
		WithDurableStore(dur))
	return dur, srv
}

// TestReplicaDeltaEndpoint pins the delta feed's HTTP contract: 200 with
// the journaled tail for a coverable position, 410 Gone for anything the
// tail cannot answer (foreign epoch, evicted or future position, no
// durable store at all), 400 for a malformed position.
func TestReplicaDeltaEndpoint(t *testing.T) {
	dur, server := openDurablePrimary(t, t.TempDir())
	defer dur.Close()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)

	sys := dur.System()
	base := sys.Generation()
	if err := sys.AddSubject("bob"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSubject("carol"); err != nil {
		t.Fatal(err)
	}

	get := func(query string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + replica.DeltaPath + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}

	status, raw := get("?epoch=" + dur.Epoch() + "&after=" + itoa(base))
	if status != http.StatusOK {
		t.Fatalf("coverable delta status = %d, want 200 (%s)", status, raw)
	}
	var delta replica.Delta
	if err := json.Unmarshal(raw, &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Epoch != dur.Epoch() || len(delta.Mutations) != 2 {
		t.Fatalf("delta = %+v, want two mutations under epoch %s", delta, dur.Epoch())
	}
	if delta.Generation != sys.Generation() {
		t.Fatalf("delta generation %d != head %d", delta.Generation, sys.Generation())
	}

	if status, _ := get("?epoch=some-other-primary&after=" + itoa(base)); status != http.StatusGone {
		t.Fatalf("foreign epoch status = %d, want 410", status)
	}
	if status, _ := get("?epoch=" + dur.Epoch() + "&after=0"); status != http.StatusGone {
		t.Fatalf("pre-window position status = %d, want 410", status)
	}
	if status, _ := get("?epoch=" + dur.Epoch() + "&after=" + itoa(sys.Generation()+10)); status != http.StatusGone {
		t.Fatalf("future position status = %d, want 410", status)
	}
	if status, _ := get("?epoch=" + dur.Epoch() + "&after=banana"); status != http.StatusBadRequest {
		t.Fatalf("malformed position status = %d, want 400", status)
	}

	// A primary without a durable store mounts the path but can never
	// serve it: always 410, so followers fall back to full snapshots.
	plainSrv, plainSys := newTestServerWithSource(t)
	resp, err := plainSrv.Client().Get(plainSrv.URL + replica.DeltaPath +
		"?epoch=x&after=" + itoa(plainSys.Generation()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("delta without durable store status = %d, want 410", resp.StatusCode)
	}
}

// TestStatszStoreSection: a durable primary's /v1/statsz carries the
// store section (epoch, WAL position, replay report); a plain in-memory
// server omits it.
func TestStatszStoreSection(t *testing.T) {
	dur, server := openDurablePrimary(t, t.TempDir())
	defer dur.Close()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)

	if err := dur.System().AddSubject("bob"); err != nil {
		t.Fatal(err)
	}
	st, err := NewClient(ts.URL, ts.Client()).Statsz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Store == nil {
		t.Fatal("durable primary statsz missing store section")
	}
	if st.Store.Epoch != dur.Epoch() || st.Store.WALAppends == 0 {
		t.Fatalf("store section = %+v", st.Store)
	}
	if st.Store.Generation < st.Store.CheckpointGeneration {
		t.Fatalf("store generation %d below checkpoint %d",
			st.Store.Generation, st.Store.CheckpointGeneration)
	}

	plainSrv, _ := newTestServerWithSource(t)
	st, err = NewClient(plainSrv.URL, plainSrv.Client()).Statsz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Store != nil {
		t.Fatal("in-memory server statsz grew a store section")
	}
}

// TestDurableClusterPrimaryRestartDeltaSync is the cluster half of the
// durability story: a follower syncs once in full, then rides the delta
// feed; the primary dies without ceremony and comes back from its data
// directory under the same epoch; the follower keeps its state and
// catches up through deltas alone — same epoch, no second full snapshot,
// lag drained, post-restart mutations visible.
func TestDurableClusterPrimaryRestartDeltaSync(t *testing.T) {
	dir := t.TempDir()
	dur1, server1 := openDurablePrimary(t, dir)

	// The follower needs one stable primary URL across the restart, so the
	// test server proxies to whichever incarnation currently holds the
	// pointer.
	var current atomic.Pointer[Server]
	current.Store(server1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	// A short poll: the watch parked on the dead incarnation ends at its
	// next keepalive, not at the default cap.
	feed := replica.NewClient(ts.URL, ts.Client())
	feed.MaxWait = 100 * time.Millisecond
	f := replica.NewPuller(core.NewSystem(), ts.URL,
		replica.WithFetcher(feed),
		replica.WithBackoff(time.Millisecond, 10*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = f.Run(ctx) }()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; follower stats %+v", what, f.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Bootstrap: exactly one full snapshot.
	waitFor("initial full sync", func() bool { return f.Stats().Syncs == 1 })

	// Steady state: mutations flow as deltas, not snapshots.
	if err := dur1.System().AddSubject("pre-crash"); err != nil {
		t.Fatal(err)
	}
	waitFor("pre-crash delta", func() bool { return f.System().HasSubject("pre-crash") })
	preStats := f.Stats()
	if preStats.Syncs != 1 {
		t.Fatalf("steady-state catch-up used a full snapshot: %+v", preStats)
	}
	if preStats.DeltaSyncs == 0 {
		t.Fatalf("steady-state catch-up did not use the delta feed: %+v", preStats)
	}

	// Kill the primary: no Close, no checkpoint — the process just stops
	// answering. Its durable directory is all that survives.
	epochBefore := dur1.Epoch()
	genBefore := dur1.System().Generation()

	// Restart from the same directory. Same epoch, generation moved past
	// everything the dead incarnation could have acked.
	dur2, server2 := openDurablePrimary(t, dir)
	defer dur2.Close()
	if dur2.Epoch() != epochBefore {
		t.Fatalf("epoch changed across restart: %s -> %s", epochBefore, dur2.Epoch())
	}
	if dur2.System().Generation() < genBefore {
		t.Fatalf("generation regressed across restart: %d < %d", dur2.System().Generation(), genBefore)
	}
	if !dur2.System().HasSubject("pre-crash") {
		t.Fatal("restart lost an acked mutation")
	}
	current.Store(server2)

	// The follower re-converges through the delta feed alone: the restart
	// generation jump and the new mutation arrive without a snapshot.
	if err := dur2.System().AddSubject("post-restart"); err != nil {
		t.Fatal(err)
	}
	waitFor("post-restart delta", func() bool { return f.System().HasSubject("post-restart") })
	waitFor("lag drain", func() bool { return f.Stats().Lag == 0 })

	post := f.Stats()
	if post.Syncs != preStats.Syncs {
		t.Fatalf("restart forced a full resync: %d -> %d full snapshots", preStats.Syncs, post.Syncs)
	}
	if post.DeltaSyncs <= preStats.DeltaSyncs {
		t.Fatalf("no delta syncs across restart: %+v", post)
	}
	if post.Epoch != epochBefore {
		t.Fatalf("follower epoch drifted: %s != %s", post.Epoch, epochBefore)
	}
	if post.AppliedGeneration != dur2.System().Generation() {
		t.Fatalf("follower at generation %d, primary at %d", post.AppliedGeneration, dur2.System().Generation())
	}

	// And the replicated policy still decides.
	ok, err := f.System().CheckAccess(core.Request{Subject: "alice", Object: "tv",
		Transaction: "use", Environment: []core.RoleID{"weekday-free-time"}})
	if err != nil || !ok {
		t.Fatalf("follower decision after restart = %v, %v; want permit", ok, err)
	}
}

func itoa(n uint64) string { return strconv.FormatUint(n, 10) }
