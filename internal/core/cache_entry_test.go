package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/aware-home/grbac/internal/guardtest"
)

// buildEntryPolicy generates a policy shaped like the benchmark's (a depth-5
// subject-role hierarchy, specialised object roles, environment-bound and
// any-environment rules, some denials) and n distinct requests against it,
// each naming one or two environment roles.
func buildEntryPolicy(t *testing.T, seed int64, n int) (*System, []Request) {
	t.Helper()
	const subjRoles, objRoles, envRoles, subjects, objects, txs, perms = 32, 16, 8, 512, 64, 8, 256
	rng := rand.New(rand.NewSource(seed))
	s := NewSystem()
	name := func(prefix string, i int) string { return fmt.Sprintf("%s%02d", prefix, i) }
	for i := 0; i < subjRoles; i++ {
		r := Role{ID: RoleID(name("sr", i)), Kind: SubjectRole}
		if i > 0 {
			r.Parents = []RoleID{RoleID(name("sr", (i-1)/2))}
		}
		mustOK(s.AddRole(r))
	}
	for i := 0; i < objRoles; i++ {
		r := Role{ID: RoleID(name("or", i)), Kind: ObjectRole}
		if i >= 4 {
			r.Parents = []RoleID{RoleID(name("or", i%4))}
		}
		mustOK(s.AddRole(r))
	}
	for i := 0; i < envRoles; i++ {
		mustOK(s.AddRole(Role{ID: RoleID(name("env", i)), Kind: EnvironmentRole}))
	}
	for i := 0; i < subjects; i++ {
		mustOK(s.AddSubject(SubjectID(name("u", i))))
		mustOK(s.AssignSubjectRole(SubjectID(name("u", i)), RoleID(name("sr", rng.Intn(subjRoles)))))
	}
	for i := 0; i < objects; i++ {
		mustOK(s.AddObject(ObjectID(name("o", i))))
		mustOK(s.AssignObjectRole(ObjectID(name("o", i)), RoleID(name("or", rng.Intn(objRoles)))))
	}
	for i := 0; i < txs; i++ {
		mustOK(s.AddTransaction(SimpleTransaction(name("tx", i))))
	}
	for i := 0; i < perms; i++ {
		p := Permission{
			Subject:     RoleID(name("sr", rng.Intn(subjRoles/2))),
			Object:      RoleID(name("or", rng.Intn(objRoles))),
			Environment: RoleID(name("env", rng.Intn(envRoles))),
			Transaction: TransactionID(name("tx", rng.Intn(txs))),
			Effect:      Permit,
		}
		if i%4 == 0 {
			p.Environment = AnyEnvironment
		}
		if i%8 == 0 {
			p.Effect = Deny
		}
		mustOK(s.Grant(p))
	}
	seen := make(map[string]bool, n)
	reqs := make([]Request, 0, n)
	for len(reqs) < n {
		req := Request{
			Subject:     SubjectID(name("u", rng.Intn(subjects))),
			Object:      ObjectID(name("o", rng.Intn(objects))),
			Transaction: TransactionID(name("tx", rng.Intn(txs))),
			Environment: []RoleID{RoleID(name("env", rng.Intn(envRoles)))},
		}
		if rng.Intn(2) == 0 {
			req.Environment = append(req.Environment, RoleID(name("env", rng.Intn(envRoles))))
		}
		if key := fmt.Sprint(req); !seen[key] {
			seen[key] = true
			reqs = append(reqs, req)
		}
	}
	return s, reqs
}

// TestGuardCacheEntryBytes is guard 14: it bounds what one decision cache
// entry retains, the heap a full cache holds after GC per cached entry. An
// entry keeps its key and the verdict (outcome, reason, matched positions),
// not a Decision, whose role sets and matches the snapshot gives back; a
// deep copy of the Decision cost about 780 B here.
func TestGuardCacheEntryBytes(t *testing.T) {
	guardtest.SkipUnderRace(t)
	const maxEntryBytes = 384
	s, reqs := buildEntryPolicy(t, 12, 2*defaultDecisionCacheSize)
	if _, err := s.CheckAccess(reqs[0]); err != nil { // compile the snapshot
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	entries0 := s.Stats().DecisionEntries
	for _, req := range reqs {
		if _, err := s.CheckAccess(req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	entries := s.Stats().DecisionEntries - entries0
	runtime.KeepAlive(reqs)
	if entries < defaultDecisionCacheSize/2 {
		t.Fatalf("only %d requests cached", entries)
	}
	perEntry := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(entries)
	t.Logf("%d entries, %.0f B retained per entry", entries, perEntry)
	if perEntry > maxEntryBytes {
		t.Errorf("a cache entry retains %.0f B, over the budget of %d B", perEntry, maxEntryBytes)
	}
}

// decideTwice decides req on a cached system twice and on an uncached twin
// once, failing unless the second call was a hit equal to the cold answer.
func decideTwice(t *testing.T, s, cold *System, req Request) Decision {
	t.Helper()
	if _, err := s.Decide(req); err != nil {
		t.Fatal(err)
	}
	hits := s.Stats().DecisionHits
	hit, err := s.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().DecisionHits != hits+1 {
		t.Fatalf("second Decide of %+v was not a cache hit", req)
	}
	want, err := cold.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hit, want) {
		t.Fatalf("hit differs from a cold decision for %+v:\nhit  %+v\ncold %+v", req, hit, want)
	}
	return hit
}

// TestCacheHitMaterializesColdDecision rebuilds hits for the request shapes
// whose role sets a hit reads back differently: a session's active set,
// matches that are all wildcard rules, and credentials on either side of a
// permission's confidence threshold.
func TestCacheHitMaterializesColdDecision(t *testing.T) {
	build := func(opts ...Option) *System {
		s := NewSystem(opts...)
		for _, step := range []error{
			s.AddRole(Role{ID: "resident", Kind: SubjectRole}),
			s.AddRole(Role{ID: "parent", Kind: SubjectRole, Parents: []RoleID{"resident"}}),
			s.AddRole(Role{ID: "appliance", Kind: ObjectRole}),
			s.AddRole(Role{ID: "daytime", Kind: EnvironmentRole}),
			s.AddSubject("alice"),
			s.AssignSubjectRole("alice", "parent"),
			s.AddObject("tv"),
			s.AssignObjectRole("tv", "appliance"),
			s.AddTransaction(SimpleTransaction("use")),
			s.AddTransaction(SimpleTransaction("view")),
			s.Grant(Permission{Subject: "parent", Object: "appliance", Environment: "daytime",
				Transaction: "use", Effect: Permit, MinConfidence: 0.8}),
			s.Grant(Permission{Subject: "resident", Object: "appliance", Environment: AnyEnvironment,
				Transaction: "use", Effect: Permit}),
			s.Grant(Permission{Subject: AnySubject, Object: AnyObject, Environment: AnyEnvironment,
				Transaction: "view", Effect: Permit}),
		} {
			mustOK(step)
		}
		return s
	}
	s, cold := build(), build(WithoutDecisionCache())
	var sid SessionID
	for _, sys := range []*System{s, cold} {
		id, err := sys.CreateSession("alice")
		mustOK(err)
		if sid != "" && id != sid {
			t.Fatalf("twin systems named the session %q and %q", sid, id)
		}
		sid = id
		mustOK(sys.ActivateRole(sid, "resident"))
	}
	env := []RoleID{"daytime"}
	cases := []struct {
		name    string
		req     Request
		matches int
	}{
		{"session restricts to resident",
			Request{Subject: "alice", Session: sid, Object: "tv", Transaction: "use", Environment: env}, 1},
		{"wildcard-only matches",
			Request{Subject: "alice", Object: "tv", Transaction: "view", Environment: env}, 1},
		{"credential above threshold",
			Request{Subject: "alice", Object: "tv", Transaction: "use", Environment: env,
				Credentials: CredentialSet{IdentityCredential("alice", 0.9, "cam")}}, 2},
		{"credential below threshold",
			Request{Subject: "alice", Object: "tv", Transaction: "use", Environment: env,
				Credentials: CredentialSet{IdentityCredential("alice", 0.7, "cam")}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if d := decideTwice(t, s, cold, tc.req); len(d.Matches) != tc.matches {
				t.Fatalf("%d matches, want %d: %+v", len(d.Matches), tc.matches, d.Matches)
			}
		})
	}
}

// TestDecideBatchHitsMaterializeColdDecisions: a batch answered wholly from
// the cache equals the same batch decided cold, request by request.
func TestDecideBatchHitsMaterializeColdDecisions(t *testing.T) {
	s, reqs := buildEntryPolicy(t, 31, 64)
	cold, _ := buildEntryPolicy(t, 31, 0)
	reqs = append(reqs, Request{Subject: "u00", Object: "ghost", Transaction: "tx00", Environment: []RoleID{}})
	s.DecideBatch(reqs)
	hits := s.Stats().DecisionHits
	warm := s.DecideBatch(reqs)
	if got := s.Stats().DecisionHits - hits; got != uint64(len(reqs)-1) {
		t.Fatalf("second batch hit %d times, want %d", got, len(reqs)-1)
	}
	for i, req := range reqs {
		want, err := cold.Decide(req)
		if (err == nil) != (warm[i].Err == nil) || !reflect.DeepEqual(warm[i].Decision, want) {
			t.Fatalf("batch[%d] %+v: hit %+v (%v), cold %+v (%v)", i, req, warm[i].Decision, warm[i].Err, want, err)
		}
	}
}

// TestCacheHitOwnsItsDecision: writing through every slice and map of a
// returned hit leaves the next hit as it was.
func TestCacheHitOwnsItsDecision(t *testing.T) {
	s, reqs := buildEntryPolicy(t, 12, 64)
	var req Request
	var want Decision
	for _, r := range reqs {
		d, err := s.Decide(r)
		mustOK(err)
		if len(d.Matches) > 0 {
			req, want = r, d
			break
		}
	}
	if want.Matches == nil {
		t.Fatal("no request matched a permission")
	}
	hit, err := s.Decide(req)
	mustOK(err)
	hit.Matches[0].Permission.Effect, hit.Matches[0].Confidence = 0, -1
	hit.ObjectRoles[0], hit.EnvironmentRoles[0] = "tampered", "tampered"
	for r := range hit.SubjectRoles {
		hit.SubjectRoles[r] = -1
	}
	hit.SubjectRoles["tampered"] = 1
	again, err := s.Decide(req)
	mustOK(err)
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("next hit changed after mutating the last one:\ngot  %+v\nwant %+v", again, want)
	}
}
