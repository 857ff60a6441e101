package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentDecideAndAdminister hammers a system with parallel
// decisions, session churn, and policy mutation. Run with -race; the test
// asserts only freedom from panics, deadlocks, and invariant violations
// (decisions must never error on entities that are guaranteed present).
func TestConcurrentDecideAndAdminister(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)

	const (
		deciders  = 8
		mutators  = 4
		sessions  = 4
		perWorker = 300
	)
	var wg sync.WaitGroup

	// Deciders: the stable entities (alice, tv, use) are never removed.
	for i := 0; i < deciders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				d, err := s.Decide(Request{
					Subject: "alice", Object: "tv", Transaction: "use",
					Environment: []RoleID{"weekday-free-time"},
				})
				if err != nil {
					t.Errorf("Decide: %v", err)
					return
				}
				_ = d.Allowed
			}
		}()
	}

	// Mutators: grant/revoke churn on a dedicated permission.
	for i := 0; i < mutators; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := Permission{
				Subject: "parent", Object: "medical-records",
				Environment: AnyEnvironment, Transaction: "read", Effect: Permit,
				Description: fmt.Sprintf("churn-%d", id),
			}
			for j := 0; j < perWorker; j++ {
				if err := s.Grant(p); err != nil {
					t.Errorf("Grant: %v", err)
					return
				}
				if err := s.Revoke(p); err != nil {
					t.Errorf("Revoke: %v", err)
					return
				}
			}
		}(i)
	}

	// Role churn on a disposable role namespace.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < perWorker; j++ {
			id := RoleID(fmt.Sprintf("temp-role-%d", j))
			if err := s.AddRole(Role{ID: id, Kind: SubjectRole, Parents: []RoleID{"home-user"}}); err != nil {
				t.Errorf("AddRole: %v", err)
				return
			}
			if err := s.RemoveRole(SubjectRole, id); err != nil {
				t.Errorf("RemoveRole: %v", err)
				return
			}
		}
	}()

	// Session churn.
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				sid, err := s.CreateSession("bobby")
				if err != nil {
					t.Errorf("CreateSession: %v", err)
					return
				}
				if err := s.ActivateRole(sid, "child"); err != nil {
					t.Errorf("ActivateRole: %v", err)
					return
				}
				if _, err := s.Decide(Request{
					Subject: "bobby", Session: sid, Object: "tv", Transaction: "use",
					Environment: []RoleID{"weekday-free-time"},
				}); err != nil {
					t.Errorf("session Decide: %v", err)
					return
				}
				if err := s.CloseSession(sid); err != nil {
					t.Errorf("CloseSession: %v", err)
					return
				}
			}
		}()
	}

	wg.Wait()

	// Invariants after the storm: the stable policy still decides right.
	ok, err := s.CheckAccess(Request{Subject: "alice", Object: "tv",
		Transaction: "use", Environment: []RoleID{"weekday-free-time"}})
	if err != nil || !ok {
		t.Fatalf("post-storm decision = %v, %v", ok, err)
	}
	if got := len(s.Sessions()); got != 0 {
		t.Fatalf("leaked %d sessions", got)
	}
}

// TestConcurrentExportClone checks snapshot consistency under mutation:
// every exported state must import cleanly (no torn snapshots).
func TestConcurrentExportClone(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := RoleID(fmt.Sprintf("r-%d", i))
			if err := s.AddRole(Role{ID: id, Kind: ObjectRole}); err != nil {
				t.Errorf("AddRole: %v", err)
				return
			}
			if err := s.RemoveRole(ObjectRole, id); err != nil {
				t.Errorf("RemoveRole: %v", err)
				return
			}
			i++
		}
	}()

	for i := 0; i < 50; i++ {
		st := s.Export()
		fresh := NewSystem()
		if err := fresh.Import(st); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("torn snapshot at iteration %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentCacheInvalidationStress is the writers-vs-readers hammer
// for the decision cache: readers spin on Decide for a request whose
// outcome the writers never change, while the writers churn grants,
// assignments, and role add/remove — each of which bumps the generation
// and invalidates the cache mid-read. Run with -race. After the storm the
// cached system must still agree with an uncached twin, and the stats must
// show the cache both served hits and was invalidated.
func TestConcurrentCacheInvalidationStress(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)

	const (
		readers   = 8
		perReader = 500
		perWriter = 200
	)
	req := Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{"weekday-free-time"},
	}
	var wg sync.WaitGroup

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perReader; j++ {
				d, err := s.Decide(req)
				if err != nil {
					t.Errorf("Decide: %v", err)
					return
				}
				// The writers never touch the entitlement behind this
				// request, so a flipped answer means a stale or torn cache
				// entry was served.
				if !d.Allowed {
					t.Errorf("iteration %d: cached decision flipped to deny", j)
					return
				}
			}
		}()
	}

	// Writer 1: grant/revoke churn on an unrelated permission.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := Permission{
			Subject: "parent", Object: "medical-records",
			Environment: AnyEnvironment, Transaction: "use", Effect: Permit,
		}
		for i := 0; i < perWriter; i++ {
			if err := s.Grant(p); err != nil {
				t.Errorf("Grant: %v", err)
				return
			}
			if err := s.Revoke(p); err != nil {
				t.Errorf("Revoke: %v", err)
				return
			}
		}
	}()

	// Writer 2: assignment churn on a subject the readers don't probe.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWriter; i++ {
			if err := s.AssignSubjectRole("dad", "child"); err != nil {
				t.Errorf("AssignSubjectRole: %v", err)
				return
			}
			if err := s.RevokeSubjectRole("dad", "child"); err != nil {
				t.Errorf("RevokeSubjectRole: %v", err)
				return
			}
		}
	}()

	// Writer 3: role add/remove churn, forcing closure-cache rebuilds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWriter; i++ {
			id := RoleID(fmt.Sprintf("stress-role-%d", i))
			if err := s.AddRole(Role{ID: id, Kind: SubjectRole,
				Parents: []RoleID{"family-member"}}); err != nil {
				t.Errorf("AddRole: %v", err)
				return
			}
			if err := s.RemoveRole(SubjectRole, id); err != nil {
				t.Errorf("RemoveRole: %v", err)
				return
			}
		}
	}()

	wg.Wait()

	// The storm is over: the cached system must agree with an uncached twin
	// rebuilt from its final state.
	twin := NewSystem(WithoutDecisionCache())
	if err := twin.Import(s.Export()); err != nil {
		t.Fatalf("Import: %v", err)
	}
	got, err := s.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Allowed != want.Allowed || got.Effect != want.Effect {
		t.Fatalf("post-storm divergence: cached %+v, uncached %+v", got, want)
	}

	st := s.Stats()
	if st.DecisionHits == 0 {
		t.Error("stress run never hit the cache; the test exercised nothing")
	}
	if st.Invalidations == 0 {
		t.Error("writers ran but Invalidations is zero")
	}
}

// TestConcurrentCacheCollisionStress races lookups and stores on the slot
// table under forced digest collisions (the cache API takes the digest
// explicitly, as in TestHashCollisionFallsBackToMiss): every goroutine
// works a request of its own, but all of them share three digests that
// select one set, so they fight over the same slots while the generation
// moves. Run with -race. A lookup may miss at any time; what it may never
// do is return a decision stored for another request or another generation.
func TestConcurrentCacheCollisionStress(t *testing.T) {
	const (
		workers = 6
		rounds  = 4000
	)
	c := newDecisionCache(8) // two sets of four ways
	digests := []uint64{0xdecade, 0xdecade | 1<<40, 0xdecade | 2<<40}
	var gen atomic.Uint64
	gen.Store(1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			req := Request{
				Subject: SubjectID(fmt.Sprintf("u%d", w)), Object: "tv", Transaction: "use",
				Environment: []RoleID{"weekdays"},
			}
			hits := 0
			for i := 0; i < rounds; i++ {
				h, g := digests[(w+i)%len(digests)], gen.Load()
				want := fmt.Sprintf("u%d@%d", w, g)
				if e := c.find(h, g, &req); e != nil {
					hits++
					if e.v.reason != want || e.v.allowed != (w%2 == 0) {
						t.Errorf("worker %d: lookup at generation %d returned %q (allowed %v), want %q",
							w, g, e.v.reason, e.v.allowed, want)
						return
					}
					continue
				}
				c.put(h, stamps{g, g}, &req, verdict{allowed: w%2 == 0, reason: want})
				if i%64 == 0 {
					gen.Add(1)
				}
			}
			if hits == 0 {
				t.Errorf("worker %d never hit its own entries; the test exercised nothing", w)
			}
		}(w)
	}
	wg.Wait()
	if n := c.size(); n > 8 {
		t.Fatalf("size() = %d, capacity 8", n)
	}
}

// TestConcurrentDecideMatchesUncachedTwin runs Decide and CheckAccess from
// several goroutines while a writer flips the role behind some of the
// answers and, between flips, bumps the generation and opens, activates
// and closes a session. No answer here names a session, so the session
// changes leave the sessionless entries live: every answer taken in a
// window no flip overlapped, served across session bumps or not, must
// equal what an uncached twin answers in that policy state. It runs once
// with a one-set cache, where every store displaces a neighbour, and once
// with the default table. Run with -race.
func TestConcurrentDecideMatchesUncachedTwin(t *testing.T) {
	home := newHomeSystem(t)
	grantEntertainment(t, home)

	var reqs []Request
	for _, sub := range []SubjectID{"alice", "bobby", "mom", "dad"} {
		for _, obj := range []ObjectID{"tv", "vcr", "stereo", "oven"} {
			for _, env := range [][]RoleID{{"weekday-free-time"}, {}} {
				reqs = append(reqs, Request{Subject: sub, Object: obj, Transaction: "use", Environment: env})
			}
		}
	}
	// want[state][i]: the twin's answer to reqs[i] with alice a child
	// (state 0) and with the assignment revoked (state 1).
	twin := NewSystem(WithoutDecisionCache())
	mustOK(twin.Import(home.Export()))
	var want [2][]bool
	for state := range want {
		for _, req := range reqs {
			ok, err := twin.CheckAccess(req)
			if err != nil {
				t.Fatal(err)
			}
			want[state] = append(want[state], ok)
		}
		if state == 0 {
			mustOK(twin.RevokeSubjectRole("alice", "child"))
		}
	}

	for _, capacity := range []int{4, defaultDecisionCacheSize} {
		s := NewSystem(WithDecisionCacheSize(capacity))
		mustOK(s.Import(home.Export()))

		// seq is odd while a flip is in flight; seq/2 counts finished flips.
		var seq atomic.Uint64
		var checked atomic.Uint64
		stop := make(chan struct{})
		var readers, writer sync.WaitGroup
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for i := r; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := i % len(reqs)
					before := seq.Load()
					var got bool
					var err error
					if r%2 == 0 {
						got, err = s.CheckAccess(reqs[k])
					} else {
						var d Decision
						d, err = s.Decide(reqs[k])
						got = d.Allowed
						if err == nil && d.Allowed != (d.Effect == Permit) {
							t.Errorf("torn decision %+v", d)
							return
						}
					}
					if err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
					if seq.Load() != before || before%2 != 0 {
						continue // a flip overlapped: either state's answer is right
					}
					checked.Add(1)
					if state := before / 2 % 2; got != want[state][k] {
						t.Errorf("capacity %d, state %d: %+v answered %v, uncached twin says %v",
							capacity, state, reqs[k], got, want[state][k])
						return
					}
				}
			}(r)
		}
		// refill lets the readers check a few more answers.
		refill := func() {
			for before := checked.Load(); checked.Load() < before+32 && !t.Failed(); {
				runtime.Gosched()
			}
		}
		writer.Add(1)
		go func() {
			defer writer.Done()
			defer close(stop)
			for i := 0; i < 200; i++ {
				seq.Add(1)
				var err error
				if i%2 == 0 {
					err = s.RevokeSubjectRole("alice", "child")
				} else {
					err = s.AssignSubjectRole("alice", "child")
				}
				seq.Add(1)
				if err != nil {
					t.Errorf("flip %d: %v", i, err)
					return
				}
				// Bump the generation with no answer changing, then open a
				// session and close it again while the readers refill the
				// cache before the next flip.
				id := RoleID(fmt.Sprintf("bump-%d", i))
				if err := s.AddRole(Role{ID: id, Kind: ObjectRole}); err != nil {
					t.Errorf("AddRole: %v", err)
					return
				}
				sid, err := s.CreateSession("bobby")
				if err == nil {
					err = s.ActivateRole(sid, "child")
				}
				if err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
				refill()
				if err := s.CloseSession(sid); err != nil {
					t.Errorf("CloseSession: %v", err)
					return
				}
				refill()
			}
		}()
		writer.Wait()
		readers.Wait()

		st := s.Stats()
		if checked.Load() == 0 || st.DecisionHits == 0 {
			t.Errorf("capacity %d: %d answers checked, %d hits; the test exercised nothing",
				capacity, checked.Load(), st.DecisionHits)
		}
		if st.DecisionEntries > capacity {
			t.Errorf("capacity %d: DecisionEntries = %d", capacity, st.DecisionEntries)
		}
	}
}
