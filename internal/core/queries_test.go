package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestWhoCan(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	got, err := s.WhoCan("use", "tv", []RoleID{"weekday-free-time"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []SubjectID{"alice", "bobby"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("WhoCan = %v, want %v", got, want)
	}
	// Outside the window: nobody.
	got, err = s.WhoCan("use", "tv", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("WhoCan outside window = %v", got)
	}
	// Unknown object propagates the decide error.
	if _, err := s.WhoCan("use", "ghost", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("WhoCan(ghost) error = %v", err)
	}
}

func TestWhoCanRespectsDenies(t *testing.T) {
	s := newHomeSystem(t)
	if err := s.Grant(Permission{
		Subject: "family-member", Object: "appliances", Environment: AnyEnvironment,
		Transaction: "use", Effect: Permit,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant(Permission{
		Subject: "child", Object: "dangerous-appliances", Environment: AnyEnvironment,
		Transaction: "use", Effect: Deny,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := s.WhoCan("use", "oven", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Adults only: the child deny removes alice and bobby.
	if want := []SubjectID{"dad", "mom"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("WhoCan(oven) = %v, want %v", got, want)
	}
}

func TestWhatCan(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	got, err := s.WhatCan("alice", []RoleID{"weekday-free-time"})
	if err != nil {
		t.Fatal(err)
	}
	want := []Entitlement{
		{Object: "stereo", Transaction: "use"},
		{Object: "tv", Transaction: "use"},
		{Object: "vcr", Transaction: "use"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WhatCan = %v, want %v", got, want)
	}
	if _, err := s.WhatCan("ghost", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("WhatCan(ghost) error = %v", err)
	}
	// Empty environment: nothing (the only grant needs the env role).
	got, err = s.WhatCan("alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("WhatCan outside window = %v", got)
	}
}

// TestReviewQueryErrorsAreDeterministic: an unknown or unnamed transaction,
// object or subject is rejected once, up front, with an error that names it
// and not whichever candidate the scan would have reached first — so the
// text is the same on a system with no subjects at all, where a
// per-candidate check would never have run.
func TestReviewQueryErrorsAreDeterministic(t *testing.T) {
	populated := newHomeSystem(t)
	empty := NewSystem()
	mustOK(empty.AddObject("tv"))
	mustOK(empty.AddTransaction(SimpleTransaction("use")))
	for _, tt := range []struct {
		tx   TransactionID
		obj  ObjectID
		is   error
		text string
	}{
		{"ghost", "tv", ErrNotFound, `grbac: WhoCan: grbac: not found: transaction "ghost"`},
		{"use", "ghost", ErrNotFound, `grbac: WhoCan: grbac: not found: object "ghost"`},
		{"", "tv", ErrInvalid, ""},
		{"use", "", ErrInvalid, ""},
	} {
		for name, s := range map[string]*System{"populated": populated, "empty": empty} {
			got, err := s.WhoCan(tt.tx, tt.obj, nil)
			if got != nil || !errors.Is(err, tt.is) {
				t.Fatalf("%s: WhoCan(%q, %q) = %v, %v; want %v", name, tt.tx, tt.obj, got, err, tt.is)
			}
			if tt.text != "" && err.Error() != tt.text {
				t.Fatalf("%s: WhoCan(%q, %q) error %q, want %q", name, tt.tx, tt.obj, err, tt.text)
			}
		}
	}
	if got, err := empty.WhoCan("use", "tv", nil); got != nil || err != nil {
		t.Fatalf("WhoCan on a system with no subjects = %v, %v", got, err)
	}
	if _, err := empty.WhatCan("ghost", nil); !errors.Is(err, ErrNotFound) ||
		err.Error() != `grbac: not found: subject "ghost"` {
		t.Fatalf("WhatCan(ghost) on an empty system: %v", err)
	}
}

// TestReviewQueriesMatchDecide holds WhoCan and WhatCan to the public
// Decide on random policies under every conflict strategy and a random
// system-wide confidence threshold: a review query lists exactly the
// candidates Decide allows, in sorted order.
func TestReviewQueriesMatchDecide(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, _ := buildRandomPolicy(rng)
		s.SetConflictStrategy([]ConflictStrategy{
			DenyOverrides{}, PermitOverrides{}, MostSpecificWins{},
		}[rng.Intn(3)])
		if rng.Intn(2) == 0 {
			mustOK(s.SetMinConfidence(float64(rng.Intn(100)) / 100))
		}
		allowed := func(sub SubjectID, obj ObjectID, tx TransactionID, env []RoleID) bool {
			if env == nil {
				env = []RoleID{} // a review query's nil means "none active"
			}
			d, err := s.Decide(Request{Subject: sub, Object: obj, Transaction: tx, Environment: env})
			mustOK(err)
			return d.Allowed
		}
		for _, env := range [][]RoleID{nil, {"er0"}, {"er1"}, {"er1", "er0", "ghost-env"}} {
			for _, obj := range s.Objects() {
				for _, tx := range s.Transactions() {
					var want []SubjectID
					for _, sub := range s.Subjects() {
						if allowed(sub, obj, tx.ID, env) {
							want = append(want, sub)
						}
					}
					got, err := s.WhoCan(tx.ID, obj, env)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Logf("seed %d: WhoCan(%q, %q, %v) = %v, %v; Decide allows %v",
							seed, tx.ID, obj, env, got, err, want)
						return false
					}
				}
			}
			for _, sub := range s.Subjects() {
				var want []Entitlement
				for _, obj := range s.Objects() {
					for _, tx := range s.Transactions() {
						if allowed(sub, obj, tx.ID, env) {
							want = append(want, Entitlement{Object: obj, Transaction: tx.ID})
						}
					}
				}
				got, err := s.WhatCan(sub, env)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Logf("seed %d: WhatCan(%q, %v) = %v, %v; Decide allows %v",
						seed, sub, env, got, err, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestWhoCanAnswersFromOneGeneration races WhoCan against a writer that
// keeps swapping which of two subjects holds the permitted role (one
// atomic Replace per swap). Each policy answers with exactly one of them;
// a scan that read some candidates from one policy and the rest from the
// other would report both or neither.
func TestWhoCanAnswersFromOneGeneration(t *testing.T) {
	build := func(holder, other SubjectID) State {
		s := NewSystem()
		mustOK(s.AddRole(Role{ID: "in", Kind: SubjectRole}))
		mustOK(s.AddRole(Role{ID: "out", Kind: SubjectRole}))
		mustOK(s.AddRole(Role{ID: "things", Kind: ObjectRole}))
		mustOK(s.AddTransaction(SimpleTransaction("use")))
		mustOK(s.AddObject("o"))
		mustOK(s.AssignObjectRole("o", "things"))
		// Fillers lengthen the scan between the two candidates that matter.
		for i := 0; i < 64; i++ {
			id := SubjectID(fmt.Sprintf("m%02d", i))
			mustOK(s.AddSubject(id))
			mustOK(s.AssignSubjectRole(id, "out"))
		}
		for sub, role := range map[SubjectID]RoleID{holder: "in", other: "out"} {
			mustOK(s.AddSubject(sub))
			mustOK(s.AssignSubjectRole(sub, role))
		}
		mustOK(s.Grant(Permission{Subject: "in", Object: "things",
			Environment: AnyEnvironment, Transaction: "use", Effect: Permit}))
		return s.Export()
	}
	states := []State{build("a", "z"), build("z", "a")}
	s := NewSystem()
	mustOK(s.Import(states[0]))

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= 300; i++ {
			if err := s.Replace(states[i%2]); err != nil {
				t.Errorf("Replace: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				got, err := s.WhoCan("use", "o", nil)
				if err != nil || len(got) != 1 || (got[0] != "a" && got[0] != "z") {
					t.Errorf("WhoCan under role swaps = %v, %v; want [a] or [z]", got, err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
}

func TestPermissionsMentioning(t *testing.T) {
	s := newHomeSystem(t)
	p := grantEntertainment(t, s)
	if got := s.PermissionsMentioning(SubjectRole, "child"); len(got) != 1 || got[0] != p {
		t.Fatalf("PermissionsMentioning(subject child) = %v", got)
	}
	if got := s.PermissionsMentioning(ObjectRole, "entertainment-devices"); len(got) != 1 {
		t.Fatalf("PermissionsMentioning(object) = %v", got)
	}
	if got := s.PermissionsMentioning(EnvironmentRole, "weekday-free-time"); len(got) != 1 {
		t.Fatalf("PermissionsMentioning(env) = %v", got)
	}
	if got := s.PermissionsMentioning(SubjectRole, "parent"); got != nil {
		t.Fatalf("PermissionsMentioning(parent) = %v", got)
	}
	if got := s.PermissionsMentioning(RoleKind(9), "child"); got != nil {
		t.Fatalf("PermissionsMentioning(bad kind) = %v", got)
	}
}

func TestSubjectsAndObjectsInRole(t *testing.T) {
	s := newHomeSystem(t)
	// Through the hierarchy: all four family members possess
	// family-member though none is assigned it directly.
	got := s.SubjectsInRole("family-member")
	want := []SubjectID{"alice", "bobby", "dad", "mom"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SubjectsInRole(family-member) = %v, want %v", got, want)
	}
	if got := s.SubjectsInRole("home-user"); len(got) != 5 {
		t.Fatalf("SubjectsInRole(home-user) = %v", got)
	}
	if got := s.SubjectsInRole("nonexistent"); len(got) != 0 {
		t.Fatalf("SubjectsInRole(nonexistent) = %v", got)
	}
	objs := s.ObjectsInRole("appliances")
	if !reflect.DeepEqual(objs, []ObjectID{"oven"}) {
		t.Fatalf("ObjectsInRole(appliances) = %v", objs)
	}
	ent := s.ObjectsInRole("entertainment-devices")
	if !reflect.DeepEqual(ent, []ObjectID{"stereo", "tv", "vcr"}) {
		t.Fatalf("ObjectsInRole(entertainment-devices) = %v", ent)
	}
}
