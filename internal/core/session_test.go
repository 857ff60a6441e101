package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func TestSessionLifecycle(t *testing.T) {
	s := newHomeSystem(t)
	if _, err := s.CreateSession("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("CreateSession(ghost) error = %v, want ErrNotFound", err)
	}
	sid, err := s.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Session(sid)
	if err != nil {
		t.Fatal(err)
	}
	if info.Subject != "alice" || len(info.Active) != 0 {
		t.Fatalf("fresh session = %+v", info)
	}
	all := s.Sessions()
	if len(all) != 1 || all[0].ID != sid {
		t.Fatalf("Sessions() = %v", all)
	}
	if err := s.CloseSession(sid); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseSession(sid); !errors.Is(err, ErrNoSession) {
		t.Fatalf("double close error = %v, want ErrNoSession", err)
	}
	if _, err := s.Session(sid); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Session(closed) error = %v, want ErrNoSession", err)
	}
}

// TestSessionOnlyRequestMediatesAsOwner pins that a request naming a
// session but no subject decides as the session's owner: the same
// Decision, CheckAccess answer and error as the request that also names
// the owner, for a session with an active role, an empty one and an
// unknown one.
func TestSessionOnlyRequestMediatesAsOwner(t *testing.T) {
	s := populatedSystem(t)
	active, err := s.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateRole(active, "child"); err != nil {
		t.Fatal(err)
	}
	empty, err := s.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name    string
		session SessionID
		allowed bool
		err     error
	}{
		{"active", active, true, nil},
		{"empty", empty, false, nil},
		{"unknown", "sess-99-alice", false, ErrNoSession},
	} {
		t.Run(tt.name, func(t *testing.T) {
			alone := Request{Session: tt.session, Object: "tv", Transaction: "use",
				Environment: []RoleID{"weekday-free-time"}}
			named := alone
			named.Subject = "alice"
			want, wantErr := s.Decide(named)
			got, gotErr := s.Decide(alone)
			if !errors.Is(gotErr, tt.err) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("Decide error = %v, want %v (as with the subject named)", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) || got.Allowed != tt.allowed {
				t.Fatalf("session-only Decide = %+v, want %+v (allowed %v)", got, want, tt.allowed)
			}
			ok, err := s.CheckAccess(alone)
			if ok != tt.allowed || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("session-only CheckAccess = %v, %v, want %v, %v", ok, err, tt.allowed, wantErr)
			}
		})
	}
}

func TestActivateRequiresAuthorization(t *testing.T) {
	s := newHomeSystem(t)
	sid, err := s.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Alice holds child; she may activate child or any ancestor.
	for _, r := range []RoleID{"child", "family-member", "home-user"} {
		if err := s.ActivateRole(sid, r); err != nil {
			t.Fatalf("ActivateRole(%q): %v", r, err)
		}
	}
	// But not parent, a sibling role.
	if err := s.ActivateRole(sid, "parent"); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("ActivateRole(parent) error = %v, want ErrNotAuthorized", err)
	}
	if err := s.ActivateRole("nope", "child"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("ActivateRole on bad session error = %v, want ErrNoSession", err)
	}
	info, _ := s.Session(sid)
	want := []RoleID{"child", "family-member", "home-user"}
	if !reflect.DeepEqual(info.Active, want) {
		t.Fatalf("Active = %v, want %v", info.Active, want)
	}
}

func TestActivateIdempotent(t *testing.T) {
	s := newHomeSystem(t)
	sid, _ := s.CreateSession("alice")
	if err := s.ActivateRole(sid, "child"); err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateRole(sid, "child"); err != nil {
		t.Fatalf("re-activation: %v", err)
	}
	info, _ := s.Session(sid)
	if len(info.Active) != 1 {
		t.Fatalf("Active = %v", info.Active)
	}
}

func TestDeactivateValidation(t *testing.T) {
	s := newHomeSystem(t)
	sid, _ := s.CreateSession("alice")
	if err := s.DeactivateRole(sid, "child"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deactivate inactive error = %v, want ErrNotFound", err)
	}
	if err := s.DeactivateRole("nope", "child"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("deactivate bad session error = %v, want ErrNoSession", err)
	}
}

// TestDynamicSoDTellerScenario reproduces §4.1.2: a bank employee may hold
// both teller and account-holder, but may not have both active at once.
func TestDynamicSoDTellerScenario(t *testing.T) {
	s := NewSystem()
	for _, r := range []RoleID{"teller", "account-holder"} {
		if err := s.AddRole(Role{ID: r, Kind: SubjectRole}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddSubject("joe"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []RoleID{"teller", "account-holder"} {
		if err := s.AssignSubjectRole("joe", r); err != nil {
			t.Fatalf("holding both roles must be legal under dynamic SoD: %v", err)
		}
	}
	if err := s.AddSoDConstraint(SoDConstraint{
		Name: "teller-vs-holder", Kind: DynamicSoD,
		Roles: []RoleID{"teller", "account-holder"},
	}); err != nil {
		t.Fatal(err)
	}

	sid, err := s.CreateSession("joe")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateRole(sid, "teller"); err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateRole(sid, "account-holder"); !errors.Is(err, ErrDynamicSoD) {
		t.Fatalf("simultaneous activation error = %v, want ErrDynamicSoD", err)
	}
	// "No conflict if he acts as a teller during one interval and an
	// account holder during another."
	if err := s.DeactivateRole(sid, "teller"); err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateRole(sid, "account-holder"); err != nil {
		t.Fatalf("sequential activation rejected: %v", err)
	}
}

func TestDynamicSoDThroughHierarchy(t *testing.T) {
	s := NewSystem()
	for _, r := range []Role{
		{ID: "staff", Kind: SubjectRole},
		{ID: "teller", Kind: SubjectRole, Parents: []RoleID{"staff"}},
		{ID: "account-holder", Kind: SubjectRole},
	} {
		if err := s.AddRole(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddSubject("joe"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []RoleID{"teller", "account-holder"} {
		if err := s.AssignSubjectRole("joe", r); err != nil {
			t.Fatal(err)
		}
	}
	// Constraint on the ancestor: activating teller implies staff active.
	if err := s.AddSoDConstraint(SoDConstraint{
		Name: "x", Kind: DynamicSoD, Roles: []RoleID{"staff", "account-holder"},
	}); err != nil {
		t.Fatal(err)
	}
	sid, _ := s.CreateSession("joe")
	if err := s.ActivateRole(sid, "teller"); err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateRole(sid, "account-holder"); !errors.Is(err, ErrDynamicSoD) {
		t.Fatalf("hierarchical dynamic SoD error = %v, want ErrDynamicSoD", err)
	}
}

func TestRemoveSubjectClosesSessions(t *testing.T) {
	s := newHomeSystem(t)
	sid, _ := s.CreateSession("alice")
	if err := s.RemoveSubject("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Session(sid); !errors.Is(err, ErrNoSession) {
		t.Fatalf("session survived subject removal: %v", err)
	}
}

func TestSessionIDsAreUnique(t *testing.T) {
	s := newHomeSystem(t)
	seen := make(map[SessionID]bool)
	for i := 0; i < 100; i++ {
		sid, err := s.CreateSession("alice")
		if err != nil {
			t.Fatal(err)
		}
		if seen[sid] {
			t.Fatalf("duplicate session ID %q", sid)
		}
		seen[sid] = true
	}
}
