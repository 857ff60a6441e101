// E16 — replication benchmarks: what does following cost?
//
// Two questions an operator deploying follower PDPs asks:
//
//  1. Does a follower decide slower than the primary it mirrors? (It must
//     not: the whole point of snapshot replication is that the read path
//     is a plain local System.)
//  2. How long after a mutation burst on the primary does a follower
//     converge over real HTTP?
//
// Results are recorded in EXPERIMENTS.md §E16.
package replica_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/guardtest"
	"github.com/aware-home/grbac/internal/replica"
)

// startBenchFollower replicates a running primary into a fresh local
// system and waits for convergence.
func startBenchFollower(t testing.TB, primarySys *core.System, addr string) (*core.System, *replica.Puller) {
	t.Helper()
	followerSys := core.NewSystem()
	f := replica.NewPuller(followerSys, "http://"+addr,
		replica.WithBackoff(time.Millisecond, 50*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = f.Run(ctx) }()
	waitFor(t, "follower convergence", func() bool {
		st := f.Stats()
		return st.Syncs > 0 && st.AppliedGeneration == primarySys.Generation()
	})
	return followerSys, f
}

// e16Request is the warm request both E16 read-path measurements decide.
var e16Request = core.Request{
	Subject:     "alice",
	Object:      "tv",
	Transaction: "use",
	Environment: []core.RoleID{"weekday-free-time"},
}

// BenchmarkE16ReplicatedMediation compares the warm Decide path on a
// primary and on a follower replicated from it over real HTTP. The two
// sub-benchmarks report the same allocation counts, which
// TestGuardFollowerAllocs holds.
func BenchmarkE16ReplicatedMediation(b *testing.B) {
	primarySys, addr, _ := startPrimary(b, "")
	followerSys, _ := startBenchFollower(b, primarySys, addr)

	req := e16Request
	bench := func(sys *core.System) func(*testing.B) {
		return func(b *testing.B) {
			if _, err := sys.Decide(req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Decide(req); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("primary", bench(primarySys))
	b.Run("follower", bench(followerSys))
}

// TestGuardFollowerAllocs is guard 3: a follower's warm Decide must not
// allocate more than its primary's on the same request. The follower's
// System came out of Replace, not out of the policy compiler, and any
// divergence means replication changed the decision structures.
func TestGuardFollowerAllocs(t *testing.T) {
	guardtest.SkipUnderRace(t)
	primarySys, addr, _ := startPrimary(t, "")
	followerSys, _ := startBenchFollower(t, primarySys, addr)
	allocs := func(sys *core.System) float64 {
		if _, err := sys.Decide(e16Request); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := sys.Decide(e16Request); err != nil {
				t.Fatal(err)
			}
		})
	}
	primary, follower := allocs(primarySys), allocs(followerSys)
	t.Logf("warm Decide: primary %.0f allocs/op, follower %.0f allocs/op", primary, follower)
	if follower > primary {
		t.Fatalf("follower allocates more than its primary (%.0f > %.0f allocs/op)", follower, primary)
	}
}

// BenchmarkE16SyncLatency measures wall-clock convergence: each iteration
// applies a burst of mutations on the primary and waits until the
// follower's applied generation catches up over the live watch feed.
// ns/op is therefore "mutation burst → follower converged" latency,
// long-poll wakeup and full snapshot re-import included.
func BenchmarkE16SyncLatency(b *testing.B) {
	primarySys, addr, _ := startPrimary(b, "")
	_, f := startBenchFollower(b, primarySys, addr)

	const burst = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			id := core.SubjectID(fmt.Sprintf("bench-subject-%d-%d", i, j))
			if err := primarySys.AddSubject(id); err != nil {
				b.Fatal(err)
			}
		}
		target := primarySys.Generation()
		for f.Stats().AppliedGeneration < target {
			time.Sleep(50 * time.Microsecond)
		}
	}
}
