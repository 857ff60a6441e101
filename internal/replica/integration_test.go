// End-to-end cluster test: a primary and a follower PDP wired over real
// TCP exactly as cmd/grbacd wires them. It lives in an external test
// package so it can pull in internal/pdp (which itself imports replica)
// without an import cycle.
package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/environment"
	"github.com/aware-home/grbac/internal/home"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/replica"
)

// startPrimary serves an admin-enabled primary PDP carrying the Aware Home
// policy on addr ("" picks a fresh loopback port). The returned stop
// function kills the server abruptly — this is the "primary dies" lever.
// homeSystem builds a core.System carrying the Aware Home policy. The
// engine satisfies the policy's environment-role conditions at compile
// time; decisions in these tests always pass explicit environment sets,
// so it is never consulted.
func homeSystem(t testing.TB) *core.System {
	t.Helper()
	compiled, err := policy.Compile(home.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem()
	engine := environment.NewEngine(environment.NewStore())
	if err := compiled.Apply(sys, engine); err != nil {
		t.Fatal(err)
	}
	return sys
}

func startPrimary(t testing.TB, addr string) (*core.System, string, func()) {
	t.Helper()
	sys := homeSystem(t)
	var err error
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	// A restart races the old listener's teardown, so retry briefly when
	// rebinding a specific port.
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv := &http.Server{Handler: pdp.NewServer(sys,
		pdp.WithAdmin(),
		pdp.WithReplicaSource(replica.NewSource(sys)))}
	go func() { _ = srv.Serve(ln) }()
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			_ = srv.Close()
		}
	}
	t.Cleanup(stop)
	return sys, ln.Addr().String(), stop
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rawDecide posts a decision request and returns the reply verbatim, so
// primary and follower answers can be compared byte for byte. The
// correlation ID is pinned (servers echo a caller-supplied one) so the
// replies stay comparable across nodes.
func rawDecide(t *testing.T, baseURL string, req pdp.DecideRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, baseURL+"/v1/decide", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(pdp.CorrelationHeader, "differential")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST /v1/decide: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestFollowerFreshAgainstQuietSlowCappedPrimary: a follower whose
// staleness bound is far below the primary's long-poll cap must still
// read as fresh while idle — its negotiated ?wait= keepalives, not the
// server's cap, set the contact cadence. (Regression: before the wait
// parameter, an idle primary with the default 25s cap starved any
// follower whose -max-staleness was tighter than that.)
func TestFollowerFreshAgainstQuietSlowCappedPrimary(t *testing.T) {
	sys := homeSystem(t)
	slow := httptest.NewServer(pdp.NewServer(sys,
		pdp.WithReplicaSource(replica.NewSource(sys))))
	defer slow.Close()

	followerSys := core.NewSystem()
	f := replica.NewPuller(followerSys, slow.URL,
		replica.WithBackoff(5*time.Millisecond, 100*time.Millisecond),
		replica.WithMaxStaleness(500*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()

	waitFor(t, "initial sync", func() bool { return f.Stats().Syncs > 0 })
	// Sit idle for several staleness bounds; keepalives must keep the
	// follower fresh the whole time.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if f.Stale() {
			t.Fatalf("follower went stale against a live idle primary: %+v", f.Stats())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestClusterReplicationEndToEnd is the acceptance scenario: mutations on
// the primary converge onto the follower with byte-identical decisions;
// killing the primary leaves the follower serving (marked stale); a
// restarted primary on the same address — a fresh epoch whose generation
// counter restarted — is re-synced automatically.
func TestClusterReplicationEndToEnd(t *testing.T) {
	primarySys, addr, stopPrimary := startPrimary(t, "")
	primaryURL := "http://" + addr

	followerSys := core.NewSystem()
	f := replica.NewPuller(followerSys, primaryURL,
		replica.WithBackoff(5*time.Millisecond, 100*time.Millisecond),
		replica.WithMaxStaleness(time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()

	fsrv := httptest.NewServer(pdp.NewServer(followerSys, pdp.WithFollower(f)))
	defer fsrv.Close()

	// --- Stage 1: mutations converge; decisions are byte-identical. ------
	const mutations = 20
	for i := 0; i < mutations; i++ {
		guest := core.SubjectID(fmt.Sprintf("guest-%d", i))
		if err := primarySys.AddSubject(guest); err != nil {
			t.Fatal(err)
		}
		if err := primarySys.AssignSubjectRole(guest, "authorized-guest"); err != nil {
			t.Fatal(err)
		}
	}
	if err := primarySys.Grant(core.Permission{
		Effect:      core.Permit,
		Subject:     "authorized-guest",
		Object:      "inventory",
		Transaction: "read",
		Environment: core.AnyEnvironment,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower convergence", func() bool {
		st := f.Stats()
		return st.AppliedGeneration == primarySys.Generation() && st.Lag == 0
	})

	subjects := []string{"mom", "dad", "alice", "bobby", "repair-tech", "guest-3", "guest-17", "stranger"}
	objects := []string{"tv", "oven", "dishwasher", "movie-g", "movie-r", "nursery-camera", "pantry-inventory", "videophone", "family-medical-records"}
	transactions := []string{"use", "view", "view-stream", "view-still", "read", "repair"}
	envSets := [][]string{
		{"weekdays"},
		{"free-time"},
		{"weekdays", "free-time", "weekday-free-time"},
		{"night"},
		{"in-kitchen"},
		{"in-kitchen", "repair-visit"},
		{"home-occupied"},
	}
	rng := rand.New(rand.NewSource(42))
	permits := 0
	for i := 0; i < 150; i++ {
		req := pdp.DecideRequest{
			Subject:     subjects[rng.Intn(len(subjects))],
			Object:      objects[rng.Intn(len(objects))],
			Transaction: transactions[rng.Intn(len(transactions))],
			Environment: envSets[rng.Intn(len(envSets))],
		}
		if rng.Intn(3) == 0 {
			req.Credentials = []pdp.Credential{{
				Subject:    req.Subject,
				Confidence: 0.5 + rng.Float64()/2,
				Source:     "test",
			}}
		}
		pStatus, pBody := rawDecide(t, primaryURL, req)
		fStatus, fBody := rawDecide(t, fsrv.URL, req)
		if pStatus != fStatus || !bytes.Equal(pBody, fBody) {
			t.Fatalf("request %d %+v diverged:\nprimary  %d %s\nfollower %d %s",
				i, req, pStatus, pBody, fStatus, fBody)
		}
		if pStatus == http.StatusOK && bytes.Contains(pBody, []byte(`"allowed":true`)) {
			permits++
		}
	}
	if permits == 0 {
		t.Fatal("randomized request set never permitted anything — comparison is vacuous")
	}

	// The replicated grant actually decides on the follower.
	status, body := rawDecide(t, fsrv.URL, pdp.DecideRequest{
		Subject: "guest-7", Object: "pantry-inventory", Transaction: "read",
		Environment: []string{},
	})
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"allowed":true`)) {
		t.Fatalf("replicated grant missing on follower: %d %s", status, body)
	}

	epochBefore := f.Stats().Epoch
	if epochBefore == "" {
		t.Fatal("follower never recorded an epoch")
	}

	// --- Stage 2: the primary dies; the follower degrades but serves. ----
	stopPrimary()
	waitFor(t, "staleness after primary death", f.Stale)

	resp, err := http.Get(fsrv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stale follower healthz = %d, want 503", resp.StatusCode)
	}
	status, body = rawDecide(t, fsrv.URL, pdp.DecideRequest{
		Subject: "alice", Object: "movie-g", Transaction: "view",
		Environment: []string{"night"},
	})
	if status != http.StatusOK {
		t.Fatalf("stale follower stopped serving: %d %s", status, body)
	}
	var d pdp.DecideResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Allowed || !d.Stale {
		t.Fatalf("stale follower decision = %+v, want allowed and stale", d)
	}

	// --- Stage 3: a reborn primary on the same address re-syncs. ---------
	// The new incarnation has a fresh epoch and a generation counter that
	// restarted from scratch; the follower must full-resync, not compare
	// generations across epochs.
	rebornSys, _, stopReborn := startPrimary(t, addr)
	defer stopReborn()
	if err := rebornSys.AddSubject("phoenix"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "re-sync with reborn primary", func() bool {
		return !f.Stale() && followerSys.HasSubject("phoenix")
	})
	if f.Stats().Epoch == epochBefore {
		t.Fatal("follower kept the dead primary's epoch after re-sync")
	}

	// The reborn primary never had the guests; the follower must not either.
	if followerSys.HasSubject("guest-3") {
		t.Fatal("re-sync failed to replace the old incarnation's policy")
	}
	status, body = rawDecide(t, fsrv.URL, pdp.DecideRequest{
		Subject: "alice", Object: "movie-g", Transaction: "view",
		Environment: []string{"night"},
	})
	if status != http.StatusOK {
		t.Fatalf("re-synced follower broke: %d %s", status, body)
	}
	// Fresh variable: "stale" is omitempty, so decoding into the stage-2
	// struct would leave its true value behind.
	var fresh pdp.DecideResponse
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	if !fresh.Allowed || fresh.Stale {
		t.Fatalf("re-synced follower decision = %+v, want allowed and fresh", fresh)
	}
}
