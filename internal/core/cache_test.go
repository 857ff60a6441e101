package core

import (
	"fmt"
	"reflect"
	"testing"
)

// TestDecisionCacheHitIsByteIdentical proves a warm Decide is answered from
// the cache and is indistinguishable from the cold computation.
func TestDecisionCacheHitIsByteIdentical(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)

	req := Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{"weekday-free-time"},
	}
	cold, err := s.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached decision differs from cold one:\ncold %+v\nwarm %+v", cold, warm)
	}
	st := s.Stats()
	if st.DecisionMisses != 1 || st.DecisionHits != 1 {
		t.Fatalf("Stats() = %+v, want 1 miss and 1 hit", st)
	}
	if st.DecisionEntries != 1 {
		t.Fatalf("DecisionEntries = %d, want 1", st.DecisionEntries)
	}
	if st.DecisionCapacity != defaultDecisionCacheSize {
		t.Fatalf("DecisionCapacity = %d, want default %d", st.DecisionCapacity, defaultDecisionCacheSize)
	}
}

// TestEnvironmentOrderInsensitiveKey checks that listing the same active
// environment roles in a different order hits the same cache entry: a
// request cached as [b, a] and asked as [a, b] is a hit, and the hit is
// byte-identical to what a cold system decides for [a, b].
func TestEnvironmentOrderInsensitiveKey(t *testing.T) {
	s, cold := newHomeSystem(t), newHomeSystem(t)
	grantEntertainment(t, s)
	grantEntertainment(t, cold)

	req := Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{"weekdays", "weekday-free-time"},
	}
	if _, err := s.Decide(req); err != nil {
		t.Fatal(err)
	}
	req.Environment = []RoleID{"weekday-free-time", "weekdays"}
	warm, err := s.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DecisionHits != 1 {
		t.Fatalf("Stats() = %+v, want a hit for the permuted environment", st)
	}
	want, err := cold.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Fatalf("permuted hit differs from a cold decision:\nhit  %+v\ncold %+v", warm, want)
	}
}

// TestEveryMutatorBumpsGeneration walks through every mutating System call
// and asserts each one advances the generation, i.e. invalidates the
// decision cache. A mutator missing from the invalidation set would serve
// stale decisions.
func TestEveryMutatorBumpsGeneration(t *testing.T) {
	s := NewSystem()
	var sid SessionID
	steps := []struct {
		name string
		run  func() error
	}{
		{"AddRole", func() error { return s.AddRole(Role{ID: "sr", Kind: SubjectRole}) }},
		{"AddRole2", func() error { return s.AddRole(Role{ID: "sr2", Kind: SubjectRole}) }},
		{"AddRoleParent", func() error { return s.AddRoleParent(SubjectRole, "sr2", "sr") }},
		{"RemoveRoleParent", func() error { return s.RemoveRoleParent(SubjectRole, "sr2", "sr") }},
		{"AddObjectRole", func() error { return s.AddRole(Role{ID: "or", Kind: ObjectRole}) }},
		{"AddEnvRole", func() error { return s.AddRole(Role{ID: "er", Kind: EnvironmentRole}) }},
		{"AddSubject", func() error { return s.AddSubject("u") }},
		{"AssignSubjectRole", func() error { return s.AssignSubjectRole("u", "sr") }},
		{"AddObject", func() error { return s.AddObject("o") }},
		{"AssignObjectRole", func() error { return s.AssignObjectRole("o", "or") }},
		{"AddTransaction", func() error { return s.AddTransaction(SimpleTransaction("use")) }},
		{"Grant", func() error {
			return s.Grant(Permission{Subject: "sr", Object: "or", Environment: AnyEnvironment,
				Transaction: "use", Effect: Permit})
		}},
		{"Revoke", func() error {
			return s.Revoke(Permission{Subject: "sr", Object: "or", Environment: AnyEnvironment,
				Transaction: "use", Effect: Permit})
		}},
		{"AddSoDConstraint", func() error {
			return s.AddSoDConstraint(SoDConstraint{Name: "x", Kind: DynamicSoD,
				Roles: []RoleID{"sr", "sr2"}})
		}},
		{"RemoveSoDConstraint", func() error { return s.RemoveSoDConstraint("x") }},
		{"SetConflictStrategy", func() error { s.SetConflictStrategy(PermitOverrides{}); return nil }},
		{"SetMinConfidence", func() error { return s.SetMinConfidence(0.5) }},
		{"SetEnvironmentSource", func() error { s.SetEnvironmentSource(nil); return nil }},
		{"CreateSession", func() error { var err error; sid, err = s.CreateSession("u"); return err }},
		{"ActivateRole", func() error { return s.ActivateRole(sid, "sr") }},
		{"DeactivateRole", func() error { return s.DeactivateRole(sid, "sr") }},
		{"CloseSession", func() error { return s.CloseSession(sid) }},
		{"RevokeSubjectRole", func() error { return s.RevokeSubjectRole("u", "sr") }},
		{"RevokeObjectRole", func() error { return s.RevokeObjectRole("o", "or") }},
		{"RemoveSubject", func() error { return s.RemoveSubject("u") }},
		{"RemoveObject", func() error { return s.RemoveObject("o") }},
		{"RemoveRole", func() error { return s.RemoveRole(SubjectRole, "sr2") }},
	}
	prev := s.Stats().Generation
	for _, step := range steps {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		cur := s.Stats().Generation
		if cur <= prev {
			t.Fatalf("%s did not bump the generation (%d -> %d): stale decisions would survive",
				step.name, prev, cur)
		}
		prev = cur
	}

	// Import into a fresh system must bump too.
	fresh := NewSystem()
	before := fresh.Stats().Generation
	if err := fresh.Import(NewSystem().Export()); err != nil {
		t.Fatal(err)
	}
	if fresh.Stats().Generation <= before {
		t.Fatal("Import did not bump the generation")
	}
}

// TestMutationInvalidatesCachedDecision exercises the end-to-end staleness
// guarantee: a cached permit must flip to deny immediately after the grant
// behind it is revoked.
func TestMutationInvalidatesCachedDecision(t *testing.T) {
	s := newHomeSystem(t)
	p := grantEntertainment(t, s)
	req := Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{"weekday-free-time"},
	}
	for i := 0; i < 2; i++ { // second call is served from the cache
		d, err := s.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Allowed {
			t.Fatalf("call %d: want permit before revocation", i)
		}
	}
	if err := s.Revoke(p); err != nil {
		t.Fatal(err)
	}
	d, err := s.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Fatal("stale cached permit survived Revoke")
	}
}

// TestDecisionCacheBounded proves the capacity bound holds for small and
// non-power-of-two capacities (the table rounds its slot count down, never
// up) and that every displaced live entry is counted: with distinct
// requests at one generation an insert either fills a slot or evicts.
func TestDecisionCacheBounded(t *testing.T) {
	const subjects, objects = 128, 128
	for _, capacity := range []int{1, 2, 3, 5, 16, 8191} {
		s := NewSystem(WithDecisionCacheSize(capacity))
		mustOK(s.AddTransaction(SimpleTransaction("use")))
		for i := 0; i < subjects; i++ {
			mustOK(s.AddSubject(SubjectID(fmt.Sprintf("u%d", i))))
		}
		for i := 0; i < objects; i++ {
			mustOK(s.AddObject(ObjectID(fmt.Sprintf("o%d", i))))
		}
		inserts := min(2*capacity+2, subjects*objects)
		for i := 0; i < inserts; i++ {
			if _, err := s.Decide(Request{
				Subject:     SubjectID(fmt.Sprintf("u%d", i/objects)),
				Object:      ObjectID(fmt.Sprintf("o%d", i%objects)),
				Transaction: "use", Environment: []RoleID{},
			}); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.DecisionCapacity != capacity {
			t.Fatalf("capacity %d: DecisionCapacity = %d", capacity, st.DecisionCapacity)
		}
		if st.DecisionEntries < 1 || st.DecisionEntries > capacity {
			t.Fatalf("capacity %d: DecisionEntries = %d, want 1..%d", capacity, st.DecisionEntries, capacity)
		}
		if want := uint64(inserts - st.DecisionEntries); st.DecisionEvictions != want {
			t.Fatalf("capacity %d: DecisionEvictions = %d after %d inserts leaving %d entries, want %d",
				capacity, st.DecisionEvictions, inserts, st.DecisionEntries, want)
		}
		if st.DecisionMisses != uint64(inserts) || st.DecisionHits != 0 {
			t.Fatalf("capacity %d: hits/misses = %d/%d, want 0/%d",
				capacity, st.DecisionHits, st.DecisionMisses, inserts)
		}
	}
}

// TestWithoutDecisionCache verifies the opt-out: no entries, no hits, and a
// zero capacity reported by Stats.
func TestWithoutDecisionCache(t *testing.T) {
	for _, opt := range []Option{WithoutDecisionCache(), WithDecisionCacheSize(0), WithDecisionCacheSize(-1)} {
		s := NewSystem(opt)
		mustOK(s.AddRole(Role{ID: "sr", Kind: SubjectRole}))
		mustOK(s.AddSubject("u"))
		mustOK(s.AddObject("o"))
		mustOK(s.AddTransaction(SimpleTransaction("use")))
		req := Request{Subject: "u", Object: "o", Transaction: "use", Environment: []RoleID{}}
		for i := 0; i < 3; i++ {
			if _, err := s.Decide(req); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.DecisionCapacity != 0 || st.DecisionEntries != 0 || st.DecisionHits != 0 {
			t.Fatalf("Stats() = %+v, want caching fully disabled", st)
		}
	}
}

// TestNilAndEmptyCredentialsKeyedSeparately guards the subtlest key
// distinction: a nil CredentialSet means "identity fully trusted" while an
// empty non-nil one means "no evidence at all" (confidence 0). The two must
// never share a cache entry.
func TestNilAndEmptyCredentialsKeyedSeparately(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	base := Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{"weekday-free-time"},
	}

	trusted := base // nil credentials
	d, err := s.Decide(trusted)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatal("trusted request should be permitted")
	}

	unproven := base
	unproven.Credentials = CredentialSet{} // non-nil, empty: confidence 0
	d, err = s.Decide(unproven)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Fatal("empty credential set shared a cache entry with the trusted request")
	}
}

// switchEnv is an EnvironmentSource whose answer can be changed between
// calls without any System mutation, modelling a live sensor feed.
type switchEnv struct{ roles []RoleID }

func (e *switchEnv) ActiveEnvironmentRoles() []RoleID { return e.roles }

// TestLiveEnvironmentSourceNeverServedStale proves the cache cannot go
// stale through the EnvironmentSource side door: the source sits outside
// the generation counter, so Decide keys on the resolved snapshot instead.
func TestLiveEnvironmentSourceNeverServedStale(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	src := &switchEnv{roles: nil}
	s.SetEnvironmentSource(src)

	req := Request{Subject: "alice", Object: "tv", Transaction: "use"} // Environment nil: ask the source
	d, err := s.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Fatal("no active environment roles: want deny")
	}

	src.roles = []RoleID{"weekday-free-time"} // sensor update, no System mutation
	d, err = s.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatal("environment became active but Decide served the stale cached deny")
	}
}

// TestDecideErrorsAreNotCached checks invalid requests always recompute, so
// a later fix (e.g. adding the missing transaction) is visible even without
// a generation bump in between.
func TestDecideErrorsAreNotCached(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	bad := Request{Subject: "alice", Object: "tv", Transaction: "nonexistent"}
	for i := 0; i < 2; i++ {
		if _, err := s.Decide(bad); err == nil {
			t.Fatal("want error for unknown transaction")
		}
	}
	if st := s.Stats(); st.DecisionEntries != 0 {
		t.Fatalf("errored decision was cached: %+v", st)
	}
}

// TestHashCollisionFallsBackToMiss forces two different requests onto one
// FNV digest and proves the full-field confirmation (matches, via
// credsEqual/envEqual) turns the collision into a cache miss — never into
// the other request's answer. The cache API takes the digest explicitly,
// so the test stores request A under digest h and then probes h with
// request B: every field comparison must reject the aliased entry.
func TestHashCollisionFallsBackToMiss(t *testing.T) {
	c := newDecisionCache(64)
	const h, gen = uint64(0xdecade), uint64(7)

	reqA := Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{"weekdays"},
	}
	dA := verdict{allowed: true, effect: Permit, reason: "A's decision"}
	c.put(h, stamps{gen, gen}, &reqA, dA)

	// Same digest, different request fields — each variant differs from
	// reqA in exactly one key component.
	variants := []Request{
		{Subject: "bob", Object: "tv", Transaction: "use",
			Environment: []RoleID{"weekdays"}},
		{Subject: "alice", Object: "stereo", Transaction: "use",
			Environment: []RoleID{"weekdays"}},
		{Subject: "alice", Object: "tv", Transaction: "program",
			Environment: []RoleID{"weekdays"}},
		{Subject: "alice", Session: "sess-1", Object: "tv", Transaction: "use",
			Environment: []RoleID{"weekdays"}},
		// envEqual must reject a different environment snapshot.
		{Subject: "alice", Object: "tv", Transaction: "use",
			Environment: []RoleID{"weekend"}},
		{Subject: "alice", Object: "tv", Transaction: "use",
			Environment: []RoleID{"weekdays", "night"}},
		{Subject: "alice", Object: "tv", Transaction: "use",
			Environment: []RoleID{}},
		// credsEqual must reject differing evidence: an extra credential,
		// a different confidence, and nil-vs-empty (fully trusted vs none).
		{Subject: "alice", Object: "tv", Transaction: "use",
			Credentials: CredentialSet{{Subject: "alice", Confidence: 0.9}},
			Environment: []RoleID{"weekdays"}},
		{Subject: "alice", Object: "tv", Transaction: "use",
			Credentials: CredentialSet{},
			Environment: []RoleID{"weekdays"}},
	}
	for i := range variants {
		if e := c.find(h, gen, &variants[i]); e != nil {
			t.Fatalf("variant %d: collision served request A's decision %+v", i, e.v)
		}
	}

	// A itself still hits — under the same digest and generation.
	if e := c.find(h, gen, &reqA); e == nil || e.v.reason != "A's decision" {
		t.Fatalf("request A no longer hits its own entry: %+v", e)
	}
	// ... but not at a different generation.
	if c.find(h, gen+1, &reqA) != nil {
		t.Fatal("stale-generation entry served")
	}

	// After the collision miss, the colliding request's own put displaces
	// the aliased entry (one digest, one slot) and B then hits correctly.
	reqB := variants[0]
	dB := verdict{allowed: false, effect: Deny, reason: "B's decision"}
	c.put(h, stamps{gen, gen}, &reqB, dB)
	if e := c.find(h, gen, &reqB); e == nil || e.v.reason != "B's decision" {
		t.Fatalf("request B after put: %+v", e)
	}
	if c.find(h, gen, &reqA) != nil {
		t.Fatal("displaced entry A still served after B overwrote the slot")
	}
	if n := c.size(); n != 1 {
		t.Fatalf("size() = %d after two puts under one digest, want 1", n)
	}
}

// TestSnapshotCompileCounter proves Stats.SnapshotCompiles counts exactly
// the lazy recompiles: one per first-decide-after-mutation, none on warm
// calls.
func TestSnapshotCompileCounter(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	base := s.Stats().SnapshotCompiles

	req := Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{"weekday-free-time"},
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Decide(req); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().SnapshotCompiles; got != base+1 {
		t.Fatalf("SnapshotCompiles = %d, want %d (one compile for three warm decides)", got, base+1)
	}
	if err := s.AddSubject("carol"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Decide(req); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().SnapshotCompiles; got != base+2 {
		t.Fatalf("SnapshotCompiles = %d, want %d after one mutation", got, base+2)
	}
}

// TestSetMinConfidenceUnchangedIsNoOp: setting the threshold a system
// already has bumps no generation, forces no recompile and journals
// nothing, so a durable primary writes no WAL record for it.
func TestSetMinConfidenceUnchangedIsNoOp(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	j := &recordingJournal{}
	s.SetJournal(j)
	req := Request{Subject: "alice", Object: "tv", Transaction: "use", Environment: []RoleID{"weekday-free-time"}}
	for _, threshold := range []float64{0, 0.5} {
		if threshold != 0 {
			mustOK(s.SetMinConfidence(threshold))
		}
		if _, err := s.Decide(req); err != nil {
			t.Fatal(err)
		}
		gen, compiles, records := s.Generation(), s.Stats().SnapshotCompiles, len(j.records)
		mustOK(s.SetMinConfidence(threshold))
		if _, err := s.Decide(req); err != nil {
			t.Fatal(err)
		}
		if g := s.Generation(); g != gen {
			t.Errorf("SetMinConfidence(%v) at %v moved the generation %d -> %d", threshold, threshold, gen, g)
		}
		if c := s.Stats().SnapshotCompiles; c != compiles {
			t.Errorf("SetMinConfidence(%v) at %v forced a recompile (%d -> %d)", threshold, threshold, compiles, c)
		}
		if len(j.records) != records || len(j.observed) != 0 {
			t.Errorf("SetMinConfidence(%v) at %v reached the journal: %+v %v", threshold, threshold, j.records[records:], j.observed)
		}
	}
}

// TestPutReclaimsOnlyEntriesDeadAtTheSnapshot fills the one set of a
// capacity-4 cache and checks which way a put takes under two stamps: an
// entry is reclaimable exactly when it is stamped below what a lookup of
// its own kind uses at the caller's snapshot. A sessionless entry below gen
// but at policyGen is live, and a session entry above policyGen but below
// gen is dead.
func TestPutReclaimsOnlyEntriesDeadAtTheSnapshot(t *testing.T) {
	req := func(sub SubjectID, session SessionID) *Request {
		return &Request{Subject: sub, Session: session, Object: "tv", Transaction: "use",
			Environment: []RoleID{}}
	}
	type slot struct {
		h   uint64
		req *Request
		at  stamps
	}
	for _, tc := range []struct {
		name    string
		fill    []slot
		put     slot
		now     stamps
		dead    int // index into fill of the one dead entry, or -1
		evicted bool
	}{
		{
			name: "sessionless entries below gen stay, session entries below gen go",
			fill: []slot{
				{1, req("a", ""), stamps{1, 1}},
				{2, req("b", "s-b"), stamps{2, 1}},
				{3, req("c", ""), stamps{3, 1}},
				{4, req("d", "s-d"), stamps{4, 1}},
			},
			put:  slot{5, req("e", "s-e"), stamps{6, 1}},
			dead: 1, // the first dead way is taken; the entry at 4 is dead too
		},
		{
			name: "a session entry above policyGen is dead to a sessionless put",
			fill: []slot{
				{1, req("a", ""), stamps{1, 2}},
				{2, req("b", ""), stamps{3, 2}},
				{3, req("c", "s-c"), stamps{4, 2}},
				{4, req("d", ""), stamps{4, 2}},
			},
			put:  slot{5, req("e", ""), stamps{6, 2}},
			dead: 2,
		},
		{
			name: "every way live: one is displaced and put reports it",
			fill: []slot{
				{1, req("a", ""), stamps{1, 1}},
				{2, req("b", "s-b"), stamps{4, 1}},
				{3, req("c", ""), stamps{2, 1}},
				{4, req("d", "s-d"), stamps{4, 1}},
			},
			put:     slot{5, req("e", ""), stamps{4, 1}},
			dead:    -1,
			evicted: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newDecisionCache(4)
			if len(c.slots) != 4 || c.mask != 0 {
				t.Fatalf("capacity 4 built %d slots with mask %d, want one set of four", len(c.slots), c.mask)
			}
			for _, f := range tc.fill {
				if c.put(f.h, f.at, f.req, verdict{}) {
					t.Fatalf("filling an empty way reported an eviction")
				}
			}
			if got := c.put(tc.put.h, tc.put.at, tc.put.req, verdict{allowed: true}); got != tc.evicted {
				t.Fatalf("put reported eviction %v, want %v", got, tc.evicted)
			}
			if e := c.find(tc.put.h, tc.put.at.stamp(tc.put.req.Session), tc.put.req); e == nil || !e.v.allowed {
				t.Fatal("the new entry is not found")
			}
			if tc.dead < 0 {
				return
			}
			for i, f := range tc.fill {
				found := c.find(f.h, f.at.stamp(f.req.Session), f.req) != nil
				if i == tc.dead && found {
					t.Errorf("dead entry %d survived while live ones were displaceable", i)
				}
				if i != tc.dead && f.at.stamp(f.req.Session) == tc.put.at.stamp(f.req.Session) && !found {
					t.Errorf("live entry %d was displaced instead of dead entry %d", i, tc.dead)
				}
			}
		})
	}
}

// TestGuardSessionChurnKeepsSessionlessWarm is guard 15: a session change
// retires only the cached decisions of requests that name a session. After
// every session create, activate, deactivate and close, a warm sessionless
// Decide and CheckAccess are still hits, while a request naming a session
// misses once and is then a hit with the session's new answer. Every bump
// is still counted in Generation and Invalidations, and a policy mutation
// still retires the sessionless entries too.
func TestGuardSessionChurnKeepsSessionlessWarm(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	plain := Request{Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{"weekday-free-time"}}

	// decide answers req through Decide or CheckAccess and reports whether
	// the answer was a cache hit.
	decide := func(req Request, check bool) (allowed, hit bool) {
		t.Helper()
		before := s.Stats().DecisionHits
		var err error
		if check {
			allowed, err = s.CheckAccess(req)
		} else {
			var d Decision
			d, err = s.Decide(req)
			allowed = d.Allowed
		}
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		return allowed, s.Stats().DecisionHits > before
	}
	warm := func(step string) {
		t.Helper()
		for _, check := range []bool{false, true} {
			if allowed, hit := decide(plain, check); !hit || !allowed {
				t.Errorf("after %s: sessionless (CheckAccess %v) hit %v allowed %v, want a permitting hit",
					step, check, hit, allowed)
			}
		}
	}
	decide(plain, false)
	warm("warming")

	st0 := s.Stats()
	inSession := plain
	var bumps uint64
	for _, step := range []struct {
		name   string
		change func() error
		want   bool
	}{
		{"create", func() (err error) { inSession.Session, err = s.CreateSession("alice"); return err }, false},
		{"activate", func() error { return s.ActivateRole(inSession.Session, "child") }, true},
		{"create another", func() error { _, err := s.CreateSession("bobby"); return err }, true},
		{"deactivate", func() error { return s.DeactivateRole(inSession.Session, "child") }, false},
	} {
		if err := step.change(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		bumps++
		warm(step.name)
		if allowed, hit := decide(inSession, false); hit || allowed != step.want {
			t.Errorf("after %s: session-naming request hit %v allowed %v, want a miss allowing %v",
				step.name, hit, allowed, step.want)
		}
		if allowed, hit := decide(inSession, true); !hit || allowed != step.want {
			t.Errorf("after %s: repeated session-naming request hit %v allowed %v, want a hit allowing %v",
				step.name, hit, allowed, step.want)
		}
	}
	if err := s.CloseSession(inSession.Session); err != nil {
		t.Fatal(err)
	}
	bumps++
	warm("close")

	st := s.Stats()
	if st.Generation != st0.Generation+bumps || st.Invalidations != st0.Invalidations+bumps {
		t.Errorf("%d session changes moved Generation %d → %d and Invalidations %d → %d",
			bumps, st0.Generation, st.Generation, st0.Invalidations, st.Invalidations)
	}
	if st.SnapshotCompiles <= st0.SnapshotCompiles {
		t.Error("session changes did not recompile the snapshot")
	}

	mustOK(s.AddRole(Role{ID: "unrelated", Kind: ObjectRole}))
	if _, hit := decide(plain, false); hit {
		t.Error("a policy mutation left the sessionless entry live")
	}
}
