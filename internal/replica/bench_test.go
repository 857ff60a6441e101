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
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
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

// benchShapedState is the shape of the repository benchmark's policy
// (bench/gen.go) with n subjects: 32 subject roles in a depth-4
// hierarchy, 16 object roles, 64 objects, 8 transactions, 8 environment
// roles and 256 permissions, a tenth of them denials and an eighth for
// any environment. Each subject holds one or two roles.
func benchShapedState(n int) core.State {
	rng := rand.New(rand.NewSource(1))
	var st core.State
	name := func(prefix string, i int) core.RoleID { return core.RoleID(fmt.Sprintf("%s%02d", prefix, i)) }
	levels := []int{2, 4, 8, 8, 10}
	for level, start := 0, 0; level < len(levels); start, level = start+levels[level], level+1 {
		for k := 0; k < levels[level]; k++ {
			r := core.Role{ID: name("sr", start+k), Kind: core.SubjectRole}
			if level > 0 {
				r.Parents = []core.RoleID{name("sr", start-levels[level-1]+k%levels[level-1])}
			}
			st.SubjectRoles = append(st.SubjectRoles, r)
		}
	}
	for i := 0; i < 16; i++ {
		r := core.Role{ID: name("or", i), Kind: core.ObjectRole}
		if i >= 4 {
			r.Parents = []core.RoleID{name("or", i%4)}
		}
		st.ObjectRoles = append(st.ObjectRoles, r)
	}
	for i := 0; i < 8; i++ {
		st.EnvironmentRoles = append(st.EnvironmentRoles, core.Role{ID: name("env", i), Kind: core.EnvironmentRole})
		st.Transactions = append(st.Transactions, core.SimpleTransaction(fmt.Sprintf("tx%d", i)))
	}
	for i := 0; i < n; i++ {
		sub := core.SubjectState{ID: core.SubjectID(fmt.Sprintf("u%04d", i)), Roles: []core.RoleID{name("sr", rng.Intn(32))}}
		if r2 := name("sr", rng.Intn(32)); rng.Intn(10) < 3 && r2 != sub.Roles[0] {
			sub.Roles = append(sub.Roles, r2)
		}
		st.Subjects = append(st.Subjects, sub)
	}
	for i := 0; i < 64; i++ {
		st.Objects = append(st.Objects, core.ObjectState{ID: core.ObjectID(fmt.Sprintf("o%02d", i)), Roles: []core.RoleID{name("or", rng.Intn(16))}})
	}
	for i := 0; i < 256; i++ {
		p := core.Permission{
			Subject: name("sr", rng.Intn(32)), Object: name("or", rng.Intn(16)),
			Environment: name("env", rng.Intn(8)), Transaction: core.TransactionID(fmt.Sprintf("tx%d", i%8)),
			Effect: core.Permit,
		}
		if i%8 == 0 {
			p.Environment = core.AnyEnvironment
		}
		if i%10 == 0 {
			p.Effect = core.Deny
		}
		st.Permissions = append(st.Permissions, p)
	}
	return st
}

// bodyTransport answers every request with body, as a primary's
// /v1/replica/snapshot would, without a network.
type bodyTransport []byte

func (b bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: req,
		Body: io.NopCloser(bytes.NewReader(b))}, nil
}

// BenchmarkSnapshotInstall times the three layers of one full snapshot
// sync on the benchmark's policy shape, at 64 subjects and at the
// benchmark's 4096: the primary's export and encode (what
// /v1/replica/snapshot does), the follower's decode (replica.Client
// reading the body from an in-memory transport) and its Replace on a
// populated, journal-less System.
func BenchmarkSnapshotInstall(b *testing.B) {
	for _, n := range []int{64, 4096} {
		primary := core.NewSystem()
		if err := primary.Import(benchShapedState(n)); err != nil {
			b.Fatal(err)
		}
		src := replica.NewSource(primary)
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(src.Snapshot()); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("encode/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var w bytes.Buffer
				if err := json.NewEncoder(&w).Encode(src.Snapshot()); err != nil {
					b.Fatal(err)
				}
			}
		})
		cl := replica.NewClient("http://primary", &http.Client{Transport: bodyTransport(body.Bytes())})
		var snap replica.Snapshot
		b.Run(fmt.Sprintf("decode/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(body.Len()))
			for i := 0; i < b.N; i++ {
				var err error
				if snap, err = cl.Snapshot(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("replace/%d", n), func(b *testing.B) {
			follower := core.NewSystem()
			if err := follower.Import(snap.State); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := follower.Replace(snap.State); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
