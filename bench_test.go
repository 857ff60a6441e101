package grbac_test

// One testing.B benchmark per reproduction experiment (DESIGN.md §4,
// EXPERIMENTS.md). Each experiment's exact claims are tests beside the
// mechanism they exercise; these benches are the only source of its
// timings, quoted in EXPERIMENTS.md as the median of
// `go test -run '^$' -bench 'E…' -benchmem -count 5`.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	grbac "github.com/aware-home/grbac"
	"github.com/aware-home/grbac/internal/baseline/acl"
	"github.com/aware-home/grbac/internal/baseline/cbac"
	"github.com/aware-home/grbac/internal/baseline/gacl"
	"github.com/aware-home/grbac/internal/baseline/mls"
	"github.com/aware-home/grbac/internal/baseline/rbac"
	"github.com/aware-home/grbac/internal/baseline/tbac"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/experiments"
	"github.com/aware-home/grbac/internal/guardtest"
	"github.com/aware-home/grbac/internal/home"
	"github.com/aware-home/grbac/internal/temporal"
)

var benchStart = time.Date(2000, 1, 17, 20, 0, 0, 0, time.UTC) // Monday 8pm

func mustHousehold(b *testing.B) *home.Household {
	b.Helper()
	hh, err := home.NewHousehold(benchStart)
	if err != nil {
		b.Fatal(err)
	}
	return hh
}

// BenchmarkE1RBACMediation measures Figure 1's exec(s,t) rule on a random
// 200-subject policy.
func BenchmarkE1RBACMediation(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	s, subjects, txs := experiments.NewRandomRBAC(rng, 200, 40, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Exec(subjects[i%len(subjects)], txs[i%len(txs)])
	}
}

// BenchmarkE2HierarchyResolution measures effective-role closure over the
// Figure 2 hierarchy.
func BenchmarkE2HierarchyResolution(b *testing.B) {
	b.ReportAllocs()
	s, err := experiments.NewFigure2System()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EffectiveSubjectRoles("alice"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3EntertainmentPolicy measures the full-stack §5.1 decision:
// environment engine evaluation plus three-role mediation.
func BenchmarkE3EntertainmentPolicy(b *testing.B) {
	b.ReportAllocs()
	hh := mustHousehold(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := hh.Decide("alice", "tv", "use")
		if err != nil {
			b.Fatal(err)
		}
		if !d.Allowed {
			b.Fatal("expected permit at Monday 8pm")
		}
	}
}

// BenchmarkE4PartialAuth measures mediation with a fused credential set
// under the paper's 90% threshold.
func BenchmarkE4PartialAuth(b *testing.B) {
	b.ReportAllocs()
	hh := mustHousehold(b)
	if err := hh.System.SetMinConfidence(0.90); err != nil {
		b.Fatal(err)
	}
	if err := hh.Auth.Record(hh.Floor.Sense(94, benchStart)...); err != nil {
		b.Fatal(err)
	}
	creds := hh.Auth.Credentials(benchStart)
	env := hh.Engine.ActiveRolesAt(benchStart, "alice")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := hh.System.Decide(core.Request{
			Subject: "alice", Object: "tv", Transaction: "use",
			Credentials: creds, Environment: env,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !d.Allowed {
			b.Fatal("expected role-credential permit")
		}
	}
}

// BenchmarkE5RepairmanWindow measures the location+interval gated decision.
func BenchmarkE5RepairmanWindow(b *testing.B) {
	b.ReportAllocs()
	hh := mustHousehold(b)
	hh.Clock.Set(time.Date(2000, 1, 17, 10, 0, 0, 0, time.UTC))
	if err := hh.House.MoveTo("repair-tech", "kitchen"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := hh.Decide("repair-tech", "dishwasher", "repair")
		if err != nil {
			b.Fatal(err)
		}
		if !d.Allowed {
			b.Fatal("expected permit inside window")
		}
	}
}

// BenchmarkE6ContentAndNegative measures a deny-overrides conflict (child
// matches both the appliance permit and the dangerous-appliance deny).
func BenchmarkE6ContentAndNegative(b *testing.B) {
	b.ReportAllocs()
	hh := mustHousehold(b)
	env := hh.Engine.ActiveRolesAt(benchStart, "alice")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := hh.System.Decide(core.Request{
			Subject: "alice", Object: "oven", Transaction: "use", Environment: env,
		})
		if err != nil {
			b.Fatal(err)
		}
		if d.Allowed {
			b.Fatal("expected deny")
		}
	}
}

// BenchmarkE7RBACEncoding measures the GRBAC encoding of a random RBAC
// policy against the native Figure 1 engine.
func BenchmarkE7RBACEncoding(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(7))
	s, subjects, txs := experiments.NewRandomRBAC(rng, 20, 8, 12)
	g, universe, err := s.EncodeGRBAC()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("native", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Exec(subjects[i%len(subjects)], txs[i%len(txs)])
		}
	})
	b.Run("grbac", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = g.CheckAccess(core.Request{
				Subject: subjects[i%len(subjects)], Object: universe,
				Transaction: txs[i%len(txs)], Environment: []core.RoleID{},
			})
		}
	})
}

// BenchmarkE8TemporalEncoding measures periodic-authorization mediation in
// both engines.
func BenchmarkE8TemporalEncoding(b *testing.B) {
	b.ReportAllocs()
	s := tbac.NewSystem()
	if err := s.Add(tbac.Authorization{
		Subject: "bob", Object: "db", Action: "read",
		Period: temporal.MustParse("weekly mon-fri and daily 09:00-17:00"),
		Allow:  true,
	}); err != nil {
		b.Fatal(err)
	}
	enc, err := s.EncodeGRBAC()
	if err != nil {
		b.Fatal(err)
	}
	at := time.Date(2000, 1, 17, 10, 0, 0, 0, time.UTC)
	b.Run("native", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Allowed("bob", "db", "read", at)
		}
	})
	b.Run("grbac", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := enc.Allowed("bob", "db", "read", at); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9LoadEncoding measures load-conditioned mediation.
func BenchmarkE9LoadEncoding(b *testing.B) {
	b.ReportAllocs()
	s := gacl.NewSystem()
	if err := s.Add(gacl.Rule{Subject: "ops", Program: "report", MaxLoad: 0.5}); err != nil {
		b.Fatal(err)
	}
	enc, err := s.EncodeGRBAC()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("native", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.CanExec("ops", "report", 0.3)
		}
	})
	b.Run("grbac", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := enc.CanExec("ops", "report", 0.3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10ContentEncoding measures content-based mediation.
func BenchmarkE10ContentEncoding(b *testing.B) {
	b.ReportAllocs()
	s := cbac.NewSystem()
	if err := s.Index("q3", "finance", "microsoft"); err != nil {
		b.Fatal(err)
	}
	if err := s.Add(cbac.Rule{Subject: "analyst", Query: cbac.Query{"microsoft"}, Allow: true}); err != nil {
		b.Fatal(err)
	}
	g, err := s.EncodeGRBAC()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("native", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.CanRead("analyst", "q3")
		}
	})
	b.Run("grbac", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = g.CheckAccess(core.Request{
				Subject: "analyst", Object: "q3", Transaction: "read",
				Environment: []core.RoleID{},
			})
		}
	})
}

// BenchmarkE11MLSEncoding measures lattice mediation.
func BenchmarkE11MLSEncoding(b *testing.B) {
	b.ReportAllocs()
	s := mls.NewSystem()
	if err := s.Clear("officer", mls.Secret); err != nil {
		b.Fatal(err)
	}
	if err := s.Classify("warplan", mls.Secret); err != nil {
		b.Fatal(err)
	}
	g, err := s.EncodeGRBAC()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("native", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.CanRead("officer", "warplan")
		}
	})
	b.Run("grbac", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = g.CheckAccess(core.Request{
				Subject: "officer", Object: "warplan", Transaction: "read",
				Environment: []core.RoleID{},
			})
		}
	})
}

// BenchmarkE12DecisionLatency sweeps uncached GRBAC mediation along each
// scale axis and against the baselines, for experiment E12. Every GRBAC
// system is built WithoutDecisionCache, so each iteration mediates; the
// warm hit is BenchmarkE11CachedMediation/warm.
func BenchmarkE12DecisionLatency(b *testing.B) {
	b.ReportAllocs()
	b.Run("model/acl", func(b *testing.B) {
		b.ReportAllocs()
		a := acl.NewSystem()
		if err := a.Add(acl.Entry{Subject: "p", Action: "use", Object: "o", Allow: true}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Allowed("p", "use", "o")
		}
	})
	b.Run("model/rbac", func(b *testing.B) {
		b.ReportAllocs()
		r := rbac.NewSystem()
		if err := r.AuthorizeRole("p", "r"); err != nil {
			b.Fatal(err)
		}
		if err := r.AuthorizeTransaction("r", "use"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Exec("p", "use")
		}
	})
	uncached := func(name string, nRules, nRoles, depth, nEnvRoles int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			s, req, err := experiments.BuildScaledGRBAC(nRules, nRoles, depth, nEnvRoles, core.WithoutDecisionCache())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Decide(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	uncached("model/grbac", 1, 1, 0, 0)
	for _, n := range []int{10, 100, 1000, 5000} {
		uncached(fmt.Sprintf("rules/%d", n), n, 16, 0, 1)
	}
	for _, d := range []int{1, 16, 64} {
		uncached(fmt.Sprintf("depth/%d", d), 16, 4, d, 1)
	}
	for _, e := range []int{1, 64, 256} {
		uncached(fmt.Sprintf("envroles/%d", e), 16, 4, 0, e)
	}
}

// BenchmarkE13PolicySize measures the cost of *building* the §5.1 policy
// in each model for a 20-child, 50-device household — the administration
// burden the paper's usability claim is about.
func BenchmarkE13PolicySize(b *testing.B) {
	b.ReportAllocs()
	const children, devices = 20, 50
	b.Run("acl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := acl.NewSystem()
			for c := 0; c < children; c++ {
				for d := 0; d < devices; d++ {
					if err := a.Add(acl.Entry{
						Subject: core.SubjectID(fmt.Sprintf("c%d", c)),
						Action:  "use",
						Object:  core.ObjectID(fmt.Sprintf("d%d", d)),
						Allow:   true,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("grbac", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := core.NewSystem()
			if err := g.AddRole(core.Role{ID: "child", Kind: core.SubjectRole}); err != nil {
				b.Fatal(err)
			}
			if err := g.AddRole(core.Role{ID: "ent", Kind: core.ObjectRole}); err != nil {
				b.Fatal(err)
			}
			if err := g.AddTransaction(core.SimpleTransaction("use")); err != nil {
				b.Fatal(err)
			}
			for c := 0; c < children; c++ {
				id := core.SubjectID(fmt.Sprintf("c%d", c))
				if err := g.AddSubject(id); err != nil {
					b.Fatal(err)
				}
				if err := g.AssignSubjectRole(id, "child"); err != nil {
					b.Fatal(err)
				}
			}
			for d := 0; d < devices; d++ {
				id := core.ObjectID(fmt.Sprintf("d%d", d))
				if err := g.AddObject(id); err != nil {
					b.Fatal(err)
				}
				if err := g.AssignObjectRole(id, "ent"); err != nil {
					b.Fatal(err)
				}
			}
			if err := g.Grant(core.Permission{
				Subject: "child", Object: "ent",
				Environment: core.AnyEnvironment, Transaction: "use", Effect: core.Permit,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE14SodActivation measures role activation with a dynamic SoD
// constraint installed.
func BenchmarkE14SodActivation(b *testing.B) {
	b.ReportAllocs()
	s := grbac.NewSystem()
	for _, r := range []grbac.RoleID{"teller", "account-holder"} {
		if err := s.AddRole(grbac.Role{ID: r, Kind: grbac.SubjectRole}); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.AddSubject("joe"); err != nil {
		b.Fatal(err)
	}
	for _, r := range []grbac.RoleID{"teller", "account-holder"} {
		if err := s.AssignSubjectRole("joe", r); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.AddSoDConstraint(grbac.SoDConstraint{
		Name: "x", Kind: grbac.DynamicSoD,
		Roles: []grbac.RoleID{"teller", "account-holder"},
	}); err != nil {
		b.Fatal(err)
	}
	sid, err := s.CreateSession("joe")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ActivateRole(sid, "teller"); err != nil {
			b.Fatal(err)
		}
		if err := s.DeactivateRole(sid, "teller"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyCompile measures end-to-end compilation of the full Aware
// Home policy (lexer through reference checking).
func BenchmarkPolicyCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := grbac.CompilePolicy(grbac.DefaultHomePolicy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadReplay measures the simulator's full-stack event rate.
func BenchmarkWorkloadReplay(b *testing.B) {
	b.ReportAllocs()
	hh := mustHousehold(b)
	rng := rand.New(rand.NewSource(1))
	trace := home.GenerateWorkload(rng, hh, benchStart, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hh.Replay(trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11CachedMediation quantifies the decision cache (DESIGN.md §5):
// the same E1-style scaled mediation workload served warm from the cache,
// uncached, and under worst-case invalidation churn, plus the full-stack
// E3 household decision warm vs uncached. The warm/uncached ratio is the
// headline number recorded in EXPERIMENTS.md.
func BenchmarkE11CachedMediation(b *testing.B) {
	b.ReportAllocs()
	scaled := func(b *testing.B, opts ...grbac.Option) (*grbac.System, grbac.Request) {
		b.Helper()
		s, req, err := experiments.BuildScaledGRBAC(256, 16, 8, 4, opts...)
		if err != nil {
			b.Fatal(err)
		}
		return s, req
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		s, req := scaled(b)
		if _, err := s.Decide(req); err != nil { // prime the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Decide(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		s, req := scaled(b, core.WithoutDecisionCache())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Decide(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-churn", func(b *testing.B) {
		b.ReportAllocs()
		// Worst case: every iteration mutates the system first, so the
		// cache never hits and each decision also pays the put. The
		// threshold alternates between two values, since setting the one
		// a system has is no mutation; the request carries no
		// credentials, so its answer is the same at both.
		s, req := scaled(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.SetMinConfidence(float64(i%2) / 2); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Decide(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The household pair decides the same request, its environment
	// resolved once from the engine, so the two differ only in the cache.
	household := func(b *testing.B, opts ...core.Option) (*core.System, core.Request) {
		b.Helper()
		hh := mustHousehold(b)
		s := core.NewSystem(opts...)
		if err := s.Import(hh.System.Export()); err != nil {
			b.Fatal(err)
		}
		env := hh.Engine.ActiveRolesAt(benchStart, "alice")
		return s, core.Request{Subject: "alice", Object: "tv", Transaction: "use", Environment: env}
	}
	b.Run("e3-household-warm", func(b *testing.B) {
		b.ReportAllocs()
		s, req := household(b)
		if _, err := s.Decide(req); err != nil { // prime the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Decide(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("e3-household-uncached", func(b *testing.B) {
		b.ReportAllocs()
		s, req := household(b, core.WithoutDecisionCache())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Decide(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE17ParallelDecide measures mediation throughput under
// concurrent callers (EXPERIMENTS.md E17): the compiled-snapshot path
// driven by b.RunParallel across GOMAXPROCS goroutines (sweep with
// -cpu 1,2,4,8,16). The requests rotate through distinct cache keys so the
// run exercises the cache's table, not a single entry.
// TestGuardNoLockOnWarmDecide holds the same workload to no lock.
func BenchmarkE17ParallelDecide(b *testing.B) {
	b.Run("lockfree", func(b *testing.B) {
		b.ReportAllocs()
		s, req, err := experiments.BuildScaledGRBAC(256, 16, 8, 4)
		if err != nil {
			b.Fatal(err)
		}
		envs := [][]core.RoleID{req.Environment, {}, {req.Environment[0]}}
		if _, err := s.Decide(req); err != nil { // compile the snapshot, prime the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			r := req
			i := 0
			for pb.Next() {
				r.Environment = envs[i%len(envs)]
				i++
				if _, err := s.Decide(r); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkE17CheckAccessWarm measures the boolean fast path: a warm
// cache hit answered from the shared cache entry without cloning the decision.
// core.TestGuardCheckAccessWarmHitZeroAllocs holds it to 0 allocs/op.
func BenchmarkE17CheckAccessWarm(b *testing.B) {
	b.ReportAllocs()
	s, req, err := experiments.BuildScaledGRBAC(256, 16, 8, 4)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.CheckAccess(req); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.CheckAccess(req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGuardWarmDecideAllocs is guards 1 and 2, on the scaled policy of
// BenchmarkE11CachedMediation: a warm cached Decide must allocate strictly
// less than an uncached one, and at most maxWarmAllocs, so a key- or
// clone-heavy change cannot hide behind the comparison.
func TestGuardWarmDecideAllocs(t *testing.T) {
	guardtest.SkipUnderRace(t)
	const maxWarmAllocs = 64
	allocs := func(opts ...grbac.Option) float64 {
		s, req, err := experiments.BuildScaledGRBAC(256, 16, 8, 4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Decide(req); err != nil { // prime the cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := s.Decide(req); err != nil {
				t.Fatal(err)
			}
		})
	}
	warm, uncached := allocs(), allocs(core.WithoutDecisionCache())
	t.Logf("warm Decide %.0f allocs/op, uncached %.0f allocs/op", warm, uncached)
	if warm >= uncached {
		t.Errorf("warm cached Decide allocates as much as uncached (%.0f >= %.0f)", warm, uncached)
	}
	if warm > maxWarmAllocs {
		t.Errorf("warm cached Decide allocates %.0f objects/op, over the budget of %d", warm, maxWarmAllocs)
	}
}

// TestGuardNoLockOnWarmDecide is guard 6 for the core: the warm workload
// of BenchmarkE17ParallelDecide, run under the mutex profiler at 2 and at
// 8 goroutines, must show no sync.Mutex or sync.RWMutex contention below
// System.Decide or System.CheckAccess.
// sdk.TestGuardNoLockOnEmbeddedCheckAccess extends it through the
// embedded SDK.
func TestGuardNoLockOnWarmDecide(t *testing.T) {
	s, req, err := experiments.BuildScaledGRBAC(256, 16, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	envs := [][]core.RoleID{req.Environment, {}, {req.Environment[0]}}
	if _, err := s.Decide(req); err != nil { // compile the snapshot
		t.Fatal(err)
	}
	guardtest.NoLockContention(t, `core\.\(\*System\)\.(CheckAccess|Decide)$`, func() {
		for _, env := range envs {
			r := req
			r.Environment = env
			if _, err := s.Decide(r); err != nil {
				t.Error(err)
			}
			if _, err := s.CheckAccess(r); err != nil {
				t.Error(err)
			}
		}
	})
}
