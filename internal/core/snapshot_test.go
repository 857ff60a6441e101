package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"github.com/aware-home/grbac/internal/guardtest"
)

// walk decides req against sn with no cache in the way: the steps of a
// Decide miss, without the memo.
func walk(sn *snapshot, req Request) (Decision, error) {
	req.Environment = sn.activeEnv(req.Environment)
	bucket, rs, err := sn.roles(req, nil)
	if err != nil {
		return Decision{}, err
	}
	v, matches := sn.judge(&req, bucket, &rs)
	return sn.decision(v, matches, &rs), nil
}

// expandProbes widens the base probe set with the request shapes the
// snapshot path special-cases: identity and role credentials (including
// unknown and wildcard asserted roles), subjectless credential-only
// requests, sessions with and without their subject, wildcard/unknown/
// duplicate environment roles, and
// every validation-error branch.
func expandProbes(probes []Request, sid SessionID) []Request {
	out := append([]Request(nil), probes...)
	for _, p := range probes {
		ident := p
		ident.Credentials = CredentialSet{IdentityCredential(p.Subject, 0.8, "sensor")}
		out = append(out, ident)

		role := p
		role.Credentials = CredentialSet{
			IdentityCredential(p.Subject, 0.4, "sensor"),
			RoleCredential("sr0", 0.9, "floor"),
			RoleCredential("no-such-role", 0.9, "floor"),
			RoleCredential(AnySubject, 0.9, "floor"),
		}
		out = append(out, role)

		empty := p
		empty.Credentials = CredentialSet{}
		out = append(out, empty)

		anon := p
		anon.Subject = ""
		anon.Credentials = CredentialSet{RoleCredential("sr1", 0.7, "floor")}
		out = append(out, anon)

		env := p
		env.Environment = []RoleID{"er0", AnyEnvironment, "ghost-env", "er0", AnyObject}
		out = append(out, env)

		sess := p
		sess.Session = sid
		out = append(out, sess)

		sessOnly := sess
		sessOnly.Subject = ""
		out = append(out, sessOnly)
	}
	return append(out,
		Request{Subject: "ghost", Object: "o0", Transaction: "use", Environment: []RoleID{}},
		Request{Subject: "u0", Object: "ghost", Transaction: "use", Environment: []RoleID{}},
		Request{Subject: "u0", Object: "o0", Transaction: "ghost", Environment: []RoleID{}},
		Request{Subject: "u0", Object: "o0", Transaction: "", Environment: []RoleID{}},
		Request{Subject: "u0", Object: "", Transaction: "use", Environment: []RoleID{}},
		Request{Subject: "", Object: "o0", Transaction: "use", Environment: []RoleID{}},
		Request{Subject: "", Session: "s", Object: "o0", Transaction: "use",
			Credentials: CredentialSet{RoleCredential("sr0", 1, "x")}, Environment: []RoleID{}},
		Request{Subject: "u0", Session: "no-such-session", Object: "o0", Transaction: "use", Environment: []RoleID{}},
		Request{Session: "no-such-session", Object: "o0", Transaction: "use", Environment: []RoleID{}},
		Request{Session: sid, Object: "o0", Transaction: "use",
			Credentials: CredentialSet{IdentityCredential("u0", 0.6, "sensor")}, Environment: []RoleID{}},
		Request{Subject: "u0", Object: "o0", Transaction: "use",
			Credentials: CredentialSet{{Subject: "u0", Role: "sr0", Confidence: 1}}, Environment: []RoleID{}},
	)
}

// TestSnapshotDecideMatchesSerializedOracle is the differential harness for
// the one production evaluator: across randomized policies, strategies, and
// request shapes, the compiled snapshot's decisions — raw, through a cache
// miss, and through a cache hit — must be byte-identical (reflect.DeepEqual)
// to decideLocked, the reference interpreter of interp_test.go, including
// error identity and text.
func TestSnapshotDecideMatchesSerializedOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, probes := buildRandomPolicy(rng)
		switch rng.Intn(3) {
		case 1:
			s.SetConflictStrategy(PermitOverrides{})
		case 2:
			s.SetConflictStrategy(MostSpecificWins{})
		}
		if rng.Intn(2) == 0 {
			mustOK(s.SetMinConfidence(float64(rng.Intn(100)) / 100))
		}
		sid, err := s.CreateSession("u0")
		mustOK(err)
		ar, err := s.AuthorizedRoles("u0")
		mustOK(err)
		mustOK(s.ActivateRole(sid, ar[0]))

		// The session probe for subjects other than u0 exercises the
		// ownership-mismatch error; the u0 probes exercise active-set
		// restriction.
		all := expandProbes(probes, sid)

		oracle := func(req Request) (Decision, error) {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return s.decideLocked(req)
		}
		sameErr := func(a, b error) bool {
			if (a == nil) != (b == nil) {
				return false
			}
			return a == nil || a.Error() == b.Error()
		}

		sn := s.currentSnapshot()
		for _, req := range all {
			want, werr := oracle(req)
			raw, rerr := walk(sn, req)
			if !sameErr(werr, rerr) || !reflect.DeepEqual(want, raw) {
				t.Logf("seed %d: raw snapshot diverged on %+v:\n oracle: %+v (%v)\n snap:   %+v (%v)",
					seed, req, want, werr, raw, rerr)
				return false
			}
			miss, merr := s.Decide(req)
			hit, herr := s.Decide(req)
			if !sameErr(werr, merr) || !sameErr(werr, herr) ||
				!reflect.DeepEqual(want, miss) || !reflect.DeepEqual(want, hit) {
				t.Logf("seed %d: cached snapshot path diverged on %+v", seed, req)
				return false
			}
			okAllowed, aerr := s.CheckAccess(req)
			if !sameErr(werr, aerr) || (aerr == nil && okAllowed != want.Allowed) {
				t.Logf("seed %d: CheckAccess diverged on %+v", seed, req)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDecideBatchMatchesDecide checks index alignment and per-request
// error reporting.
func TestDecideBatchMatchesDecide(t *testing.T) {
	s, probes := buildRandomPolicy(rand.New(rand.NewSource(11)))
	probes = expandProbes(probes, "no-such-session")
	results := s.DecideBatch(probes)
	if len(results) != len(probes) {
		t.Fatalf("DecideBatch returned %d results for %d requests", len(results), len(probes))
	}
	for i, req := range probes {
		want, werr := s.Decide(req)
		got := results[i]
		if (werr == nil) != (got.Err == nil) {
			t.Fatalf("probe %d: error mismatch: %v vs %v", i, werr, got.Err)
		}
		if werr != nil {
			if werr.Error() != got.Err.Error() {
				t.Fatalf("probe %d: error text mismatch: %v vs %v", i, werr, got.Err)
			}
			continue
		}
		if !reflect.DeepEqual(want, got.Decision) {
			t.Fatalf("probe %d: decision mismatch:\n %+v\n %+v", i, want, got.Decision)
		}
	}
}

// TestDecideBatchIsSnapshotConsistent drives Replace churn that flips the
// policy between permit-all and deny-all while batches of identical
// requests run concurrently: because a batch is decided against one loaded
// snapshot, every decision inside a batch must be identical, even though
// decisions across batches flip.
func TestDecideBatchIsSnapshotConsistent(t *testing.T) {
	s := NewSystem()
	mustOK(s.AddRole(Role{ID: "r", Kind: SubjectRole}))
	mustOK(s.AddRole(Role{ID: "things", Kind: ObjectRole}))
	mustOK(s.AddSubject("u"))
	mustOK(s.AssignSubjectRole("u", "r"))
	mustOK(s.AddObject("o"))
	mustOK(s.AssignObjectRole("o", "things"))
	mustOK(s.AddTransaction(SimpleTransaction("use")))
	grant := func(e Effect) Permission {
		return Permission{Subject: "r", Object: "things",
			Environment: AnyEnvironment, Transaction: "use", Effect: e}
	}
	mustOK(s.Grant(grant(Permit)))
	permitState := s.Export()
	mustOK(s.Revoke(grant(Permit)))
	mustOK(s.Grant(grant(Deny)))
	denyState := s.Export()

	req := Request{Subject: "u", Object: "o", Transaction: "use", Environment: []RoleID{}}
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = req
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				results := s.DecideBatch(reqs)
				for i, r := range results {
					if r.Err != nil {
						t.Errorf("batch item %d errored: %v", i, r.Err)
						return
					}
					if r.Decision.Allowed != results[0].Decision.Allowed {
						t.Errorf("batch mixed two policy versions: item %d=%v, item 0=%v",
							i, r.Decision.Allowed, results[0].Decision.Allowed)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 150; i++ {
		if i%2 == 0 {
			mustOK(s.Replace(permitState))
		} else {
			mustOK(s.Replace(denyState))
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentMutationsWithLockFreeDecide is the -race stress for the
// tentpole: administration (grants, revocations, sessions, thresholds,
// Replace) interleaved with lock-free Decide, DecideBatch, and CheckAccess
// callers. It fails under the race detector if the snapshot publish
// protocol is wrong, and checks that readers only ever observe well-formed
// outcomes or the documented sentinel errors.
func TestConcurrentMutationsWithLockFreeDecide(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s, probes := buildRandomPolicy(rng)
	state := s.Export()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	reader := func(i int) {
		defer wg.Done()
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			req := probes[(i+j)%len(probes)]
			switch j % 3 {
			case 0:
				if _, err := s.Decide(req); err != nil {
					t.Errorf("Decide: %v", err)
					return
				}
			case 1:
				if _, err := s.CheckAccess(req); err != nil {
					t.Errorf("CheckAccess: %v", err)
					return
				}
			default:
				for _, r := range s.DecideBatch(probes[:4]) {
					if r.Err != nil {
						t.Errorf("DecideBatch: %v", r.Err)
						return
					}
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go reader(i)
	}

	deny := Permission{Subject: AnySubject, Object: AnyObject,
		Environment: AnyEnvironment, Transaction: AnyTransaction, Effect: Deny}
	for i := 0; i < 400; i++ {
		switch i % 5 {
		case 0:
			mustOK(s.Grant(deny))
		case 1:
			mustOK(s.Revoke(deny))
		case 2:
			mustOK(s.SetMinConfidence(float64(i%2) / 2))
		case 3:
			sid, err := s.CreateSession("u1")
			mustOK(err)
			mustOK(s.CloseSession(sid))
		default:
			mustOK(s.Replace(state))
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotRecompileIsLazy pins the copy-on-write economics: mutations
// only retire the snapshot (no compile work), and a burst of mutations
// costs one recompile at the next Decide, not one per mutation.
func TestSnapshotRecompileIsLazy(t *testing.T) {
	s, probes := buildRandomPolicy(rand.New(rand.NewSource(5)))
	if s.snap.Load() != nil {
		t.Fatal("snapshot compiled before any Decide")
	}
	if _, err := s.Decide(probes[0]); err != nil {
		t.Fatal(err)
	}
	first := s.snap.Load()
	if first == nil {
		t.Fatal("Decide did not publish a snapshot")
	}
	for i := 0; i < 10; i++ {
		mustOK(s.SetMinConfidence(float64(1+i%2) / 2))
		if s.snap.Load() != nil {
			t.Fatal("mutation left a stale snapshot published")
		}
	}
	if _, err := s.Decide(probes[0]); err != nil {
		t.Fatal(err)
	}
	second := s.snap.Load()
	if second == nil || second == first {
		t.Fatal("post-mutation Decide did not publish a fresh snapshot")
	}
	if second.gen != s.Generation() {
		t.Fatalf("snapshot generation %d != system generation %d", second.gen, s.Generation())
	}
	if _, err := s.Decide(probes[0]); err != nil {
		t.Fatal(err)
	}
	if s.snap.Load() != second {
		t.Fatal("read-only Decide recompiled the snapshot")
	}
}

// TestGuardCheckAccessWarmHitZeroAllocs is guard 5: a warm boolean cache
// hit answers from the shared cache entry without cloning the decision,
// so it allocates nothing.
func TestGuardCheckAccessWarmHitZeroAllocs(t *testing.T) {
	guardtest.SkipUnderRace(t)
	s, probes := buildRandomPolicy(rand.New(rand.NewSource(9)))
	reqs := []Request{
		probes[0],
		{Subject: "u1", Object: "o1", Transaction: "read",
			Credentials: CredentialSet{IdentityCredential("u1", 0.9, "cam"), RoleCredential("sr0", 0.5, "floor")},
			Environment: []RoleID{"er1", "er0"}},
	}
	for _, req := range reqs {
		if _, err := s.CheckAccess(req); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := s.CheckAccess(req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm CheckAccess hit allocated %.1f objects/op, want 0 (req %+v)", allocs, req)
		}
	}
}

// TestShardedCacheStaysBounded inserts far more distinct requests than the
// configured capacity and checks the bound holds in aggregate.
func TestShardedCacheStaysBounded(t *testing.T) {
	s := NewSystem(WithDecisionCacheSize(16))
	mustOK(s.AddRole(Role{ID: "things", Kind: ObjectRole}))
	mustOK(s.AddSubject("u"))
	mustOK(s.AddTransaction(SimpleTransaction("use")))
	mustOK(s.Grant(Permission{Subject: AnySubject, Object: "things",
		Environment: AnyEnvironment, Transaction: "use", Effect: Permit}))
	for i := 0; i < 100; i++ {
		obj := ObjectID(fmt.Sprintf("o%d", i))
		mustOK(s.AddObject(obj))
	}
	for i := 0; i < 100; i++ {
		req := Request{Subject: "u", Object: ObjectID(fmt.Sprintf("o%d", i)),
			Transaction: "use", Environment: []RoleID{}}
		if _, err := s.Decide(req); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DecisionEntries > 16 {
		t.Fatalf("cache holds %d entries, capacity 16", st.DecisionEntries)
	}
	if st.DecisionEvictions == 0 {
		t.Fatal("expected evictions past the capacity bound")
	}
}

// TestHashRequestEnvOrderInsensitive pins the commutative environment
// digest: permuted environments must land on the same hash (and therefore
// the same cache entry), while different multisets must not be equal under
// the verification comparison. Entries store the environment in the order
// their caller listed it, so the stored side may be unsorted too.
func TestHashRequestEnvOrderInsensitive(t *testing.T) {
	a := Request{Subject: "u", Object: "o", Transaction: "t",
		Environment: []RoleID{"x", "y", "z"}}
	b := a
	b.Environment = []RoleID{"z", "x", "y"}
	if hashRequest(&a) != hashRequest(&b) {
		t.Fatal("permuted environments hash differently")
	}
	if !envEqual(b.Environment, a.Environment) {
		t.Fatal("permuted environments compare unequal")
	}
	if !envEqual(a.Environment, b.Environment) || !envEqual([]RoleID{"y", "z", "x"}, b.Environment) {
		t.Fatal("permuted environments compare unequal against an unsorted stored side")
	}
	if envEqual([]RoleID{"x", "x", "y"}, []RoleID{"x", "y", "y"}) {
		t.Fatal("different multisets compared equal")
	}
	if envEqual([]RoleID{"y", "x", "x"}, []RoleID{"y", "y", "x"}) {
		t.Fatal("different multisets compared equal against an unsorted stored side")
	}
	if envEqual([]RoleID{"x"}, []RoleID{"x", "x"}) {
		t.Fatal("different lengths compared equal")
	}
}

// TestSnapshotSessionLifecycle covers snapshot recompilation across the
// session lifecycle end to end: activation narrows, closure invalidates.
func TestSnapshotSessionLifecycle(t *testing.T) {
	s := NewSystem()
	mustOK(s.AddRole(Role{ID: "parent", Kind: SubjectRole}))
	mustOK(s.AddRole(Role{ID: "child", Kind: SubjectRole, Parents: []RoleID{"parent"}}))
	mustOK(s.AddRole(Role{ID: "things", Kind: ObjectRole}))
	mustOK(s.AddSubject("u"))
	mustOK(s.AssignSubjectRole("u", "child"))
	mustOK(s.AddObject("o"))
	mustOK(s.AssignObjectRole("o", "things"))
	mustOK(s.AddTransaction(SimpleTransaction("use")))
	mustOK(s.Grant(Permission{Subject: "parent", Object: "things",
		Environment: AnyEnvironment, Transaction: "use", Effect: Permit}))

	sid, err := s.CreateSession("u")
	mustOK(err)
	req := Request{Subject: "u", Session: sid, Object: "o", Transaction: "use", Environment: []RoleID{}}

	if ok, err := s.CheckAccess(req); err != nil || ok {
		t.Fatalf("empty session granted access (ok=%v err=%v)", ok, err)
	}
	mustOK(s.ActivateRole(sid, "child"))
	if ok, err := s.CheckAccess(req); err != nil || !ok {
		t.Fatalf("activated session denied access (ok=%v err=%v)", ok, err)
	}
	mustOK(s.DeactivateRole(sid, "child"))
	if ok, err := s.CheckAccess(req); err != nil || ok {
		t.Fatalf("deactivated session kept access (ok=%v err=%v)", ok, err)
	}
	mustOK(s.CloseSession(sid))
	if _, err := s.Decide(req); !errors.Is(err, ErrNoSession) {
		t.Fatalf("closed session: got %v, want ErrNoSession", err)
	}
}
