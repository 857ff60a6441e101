package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/clock"
)

// newHomeSystem builds the paper's running example: the Figure 2 subject
// hierarchy, the §5.1 object and environment roles, and the household.
func newHomeSystem(t *testing.T) *System {
	t.Helper()
	s := NewSystem()
	subjectRoles := []Role{
		{ID: "home-user", Kind: SubjectRole},
		{ID: "family-member", Kind: SubjectRole, Parents: []RoleID{"home-user"}},
		{ID: "authorized-guest", Kind: SubjectRole, Parents: []RoleID{"home-user"}},
		{ID: "parent", Kind: SubjectRole, Parents: []RoleID{"family-member"}},
		{ID: "child", Kind: SubjectRole, Parents: []RoleID{"family-member"}},
		{ID: "service-agent", Kind: SubjectRole, Parents: []RoleID{"authorized-guest"}},
		{ID: "dishwasher-repair-tech", Kind: SubjectRole, Parents: []RoleID{"service-agent"}},
	}
	for _, r := range subjectRoles {
		if err := s.AddRole(r); err != nil {
			t.Fatalf("AddRole(%q): %v", r.ID, err)
		}
	}
	for _, r := range []Role{
		{ID: "entertainment-devices", Kind: ObjectRole},
		{ID: "appliances", Kind: ObjectRole},
		{ID: "dangerous-appliances", Kind: ObjectRole, Parents: []RoleID{"appliances"}},
		{ID: "medical-records", Kind: ObjectRole},
	} {
		if err := s.AddRole(r); err != nil {
			t.Fatalf("AddRole(%q): %v", r.ID, err)
		}
	}
	for _, r := range []Role{
		{ID: "weekdays", Kind: EnvironmentRole},
		{ID: "free-time", Kind: EnvironmentRole},
	} {
		if err := s.AddRole(r); err != nil {
			t.Fatalf("AddRole(%q): %v", r.ID, err)
		}
	}
	for _, sub := range []struct {
		id   SubjectID
		role RoleID
	}{
		{"mom", "parent"}, {"dad", "parent"},
		{"alice", "child"}, {"bobby", "child"},
		{"repair-tech", "dishwasher-repair-tech"},
	} {
		if err := s.AddSubject(sub.id); err != nil {
			t.Fatalf("AddSubject(%q): %v", sub.id, err)
		}
		if err := s.AssignSubjectRole(sub.id, sub.role); err != nil {
			t.Fatalf("AssignSubjectRole(%q,%q): %v", sub.id, sub.role, err)
		}
	}
	for _, obj := range []struct {
		id   ObjectID
		role RoleID
	}{
		{"tv", "entertainment-devices"},
		{"vcr", "entertainment-devices"},
		{"stereo", "entertainment-devices"},
		{"oven", "dangerous-appliances"},
		{"family-medical-records", "medical-records"},
	} {
		if err := s.AddObject(obj.id); err != nil {
			t.Fatalf("AddObject(%q): %v", obj.id, err)
		}
		if err := s.AssignObjectRole(obj.id, obj.role); err != nil {
			t.Fatalf("AssignObjectRole(%q,%q): %v", obj.id, obj.role, err)
		}
	}
	if err := s.AddTransaction(SimpleTransaction("use")); err != nil {
		t.Fatalf("AddTransaction(use): %v", err)
	}
	if err := s.AddTransaction(SimpleTransaction("read")); err != nil {
		t.Fatalf("AddTransaction(read): %v", err)
	}
	return s
}

func TestSubjectLifecycle(t *testing.T) {
	s := NewSystem()
	if err := s.AddSubject(""); !errors.Is(err, ErrInvalid) {
		t.Fatalf("AddSubject(empty) error = %v, want ErrInvalid", err)
	}
	if err := s.AddSubject("alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSubject("alice"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate AddSubject error = %v, want ErrExists", err)
	}
	if !s.HasSubject("alice") || s.HasSubject("bob") {
		t.Fatal("HasSubject wrong")
	}
	if got := s.Subjects(); !reflect.DeepEqual(got, []SubjectID{"alice"}) {
		t.Fatalf("Subjects() = %v", got)
	}
	if err := s.RemoveSubject("bob"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("RemoveSubject(bob) error = %v, want ErrNotFound", err)
	}
	if err := s.RemoveSubject("alice"); err != nil {
		t.Fatal(err)
	}
	if s.HasSubject("alice") {
		t.Fatal("subject survived removal")
	}
}

func TestObjectLifecycle(t *testing.T) {
	s := NewSystem()
	if err := s.AddObject(""); !errors.Is(err, ErrInvalid) {
		t.Fatalf("AddObject(empty) error = %v, want ErrInvalid", err)
	}
	if err := s.AddObject("tv"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddObject("tv"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate AddObject error = %v, want ErrExists", err)
	}
	if !s.HasObject("tv") {
		t.Fatal("HasObject wrong")
	}
	if err := s.RemoveObject("tv"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveObject("tv"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double RemoveObject error = %v, want ErrNotFound", err)
	}
}

func TestAddRoleValidation(t *testing.T) {
	s := NewSystem()
	tests := []struct {
		name    string
		role    Role
		wantErr error
	}{
		{"invalid kind", Role{ID: "x", Kind: RoleKind(9)}, ErrInvalid},
		{"reserved subject wildcard", Role{ID: AnySubject, Kind: SubjectRole}, ErrInvalid},
		{"reserved object wildcard", Role{ID: AnyObject, Kind: ObjectRole}, ErrInvalid},
		{"reserved env wildcard", Role{ID: AnyEnvironment, Kind: EnvironmentRole}, ErrInvalid},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := s.AddRole(tt.role); !errors.Is(err, tt.wantErr) {
				t.Fatalf("AddRole error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestRoleKindsAreSeparateNamespaces(t *testing.T) {
	s := NewSystem()
	for _, k := range []RoleKind{SubjectRole, ObjectRole, EnvironmentRole} {
		if err := s.AddRole(Role{ID: "kitchen", Kind: k}); err != nil {
			t.Fatalf("AddRole(kitchen, %s): %v", k, err)
		}
	}
	for _, k := range []RoleKind{SubjectRole, ObjectRole, EnvironmentRole} {
		if _, err := s.Role(k, "kitchen"); err != nil {
			t.Fatalf("Role(%s, kitchen): %v", k, err)
		}
	}
}

func TestAssignSubjectRole(t *testing.T) {
	s := newHomeSystem(t)
	if err := s.AssignSubjectRole("ghost", "child"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("assign to ghost error = %v, want ErrNotFound", err)
	}
	if err := s.AssignSubjectRole("alice", "ghost-role"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("assign ghost role error = %v, want ErrNotFound", err)
	}
	// Idempotent re-assignment.
	if err := s.AssignSubjectRole("alice", "child"); err != nil {
		t.Fatalf("re-assign: %v", err)
	}
	got, err := s.AuthorizedRoles("alice")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []RoleID{"child"}) {
		t.Fatalf("AuthorizedRoles(alice) = %v", got)
	}
	eff, err := s.EffectiveSubjectRoles("alice")
	if err != nil {
		t.Fatal(err)
	}
	want := []RoleID{"child", "family-member", "home-user"}
	if !reflect.DeepEqual(eff, want) {
		t.Fatalf("EffectiveSubjectRoles(alice) = %v, want %v", eff, want)
	}
}

func TestRevokeSubjectRole(t *testing.T) {
	s := newHomeSystem(t)
	if err := s.RevokeSubjectRole("alice", "parent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("revoke unheld error = %v, want ErrNotFound", err)
	}
	if err := s.RevokeSubjectRole("alice", "child"); err != nil {
		t.Fatal(err)
	}
	got, _ := s.AuthorizedRoles("alice")
	if len(got) != 0 {
		t.Fatalf("roles after revoke = %v", got)
	}
}

func TestRevokeSubjectRoleDeactivatesSessions(t *testing.T) {
	s := newHomeSystem(t)
	sid, err := s.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateRole(sid, "family-member"); err != nil {
		t.Fatal(err)
	}
	if err := s.RevokeSubjectRole("alice", "child"); err != nil {
		t.Fatal(err)
	}
	info, err := s.Session(sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Active) != 0 {
		t.Fatalf("active roles after revoke = %v, want none", info.Active)
	}
}

func TestObjectRoleAssignment(t *testing.T) {
	s := newHomeSystem(t)
	if err := s.AssignObjectRole("ghost", "appliances"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("assign to ghost object error = %v, want ErrNotFound", err)
	}
	if err := s.AssignObjectRole("tv", "ghost-role"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("assign ghost object role error = %v, want ErrNotFound", err)
	}
	roles, err := s.EffectiveObjectRoles("oven")
	if err != nil {
		t.Fatal(err)
	}
	want := []RoleID{"appliances", "dangerous-appliances"}
	if !reflect.DeepEqual(roles, want) {
		t.Fatalf("EffectiveObjectRoles(oven) = %v, want %v", roles, want)
	}
	if err := s.RevokeObjectRole("oven", "dangerous-appliances"); err != nil {
		t.Fatal(err)
	}
	if err := s.RevokeObjectRole("oven", "dangerous-appliances"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double revoke error = %v, want ErrNotFound", err)
	}
}

func TestTransactionValidation(t *testing.T) {
	s := NewSystem()
	tests := []struct {
		name    string
		tx      Transaction
		wantErr error
	}{
		{"ok", SimpleTransaction("use"), nil},
		{"empty ID", Transaction{}, ErrInvalid},
		{"reserved ID", Transaction{ID: AnyTransaction}, ErrInvalid},
		{"empty step action", Transaction{ID: "x", Steps: []Access{{}}}, ErrInvalid},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := s.AddTransaction(tt.tx); !errors.Is(err, tt.wantErr) {
				t.Fatalf("AddTransaction error = %v, want %v", err, tt.wantErr)
			}
		})
	}
	if err := s.AddTransaction(SimpleTransaction("use")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate transaction error = %v, want ErrExists", err)
	}
}

func TestTransactionsForAction(t *testing.T) {
	s := NewSystem()
	compound := Transaction{
		ID: "reorder-milk",
		Steps: []Access{
			{Action: "read", ObjectRole: "inventory"},
			{Action: "order"},
		},
	}
	if err := s.AddTransaction(compound); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransaction(SimpleTransaction("read")); err != nil {
		t.Fatal(err)
	}
	got := s.TransactionsForAction("read")
	want := []TransactionID{"read", "reorder-milk"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TransactionsForAction(read) = %v, want %v", got, want)
	}
	if got := s.TransactionsForAction("launch"); got != nil {
		t.Fatalf("TransactionsForAction(launch) = %v, want nil", got)
	}
}

func TestGrantValidation(t *testing.T) {
	s := newHomeSystem(t)
	base := Permission{
		Subject:     "child",
		Object:      "entertainment-devices",
		Environment: "weekdays",
		Transaction: "use",
		Effect:      Permit,
	}
	if err := s.Grant(base); err != nil {
		t.Fatalf("valid grant: %v", err)
	}
	tests := []struct {
		name    string
		mutate  func(Permission) Permission
		wantErr error
	}{
		{"unknown subject role", func(p Permission) Permission { p.Subject = "nope"; return p }, ErrNotFound},
		{"unknown object role", func(p Permission) Permission { p.Object = "nope"; return p }, ErrNotFound},
		{"unknown env role", func(p Permission) Permission { p.Environment = "nope"; return p }, ErrNotFound},
		{"unknown transaction", func(p Permission) Permission { p.Transaction = "nope"; return p }, ErrNotFound},
		{"empty subject", func(p Permission) Permission { p.Subject = ""; return p }, ErrInvalid},
		{"empty transaction", func(p Permission) Permission { p.Transaction = ""; return p }, ErrInvalid},
		{"bad effect", func(p Permission) Permission { p.Effect = Effect(0); return p }, ErrInvalid},
		{"bad confidence", func(p Permission) Permission { p.MinConfidence = 1.5; return p }, ErrInvalid},
		{"negative confidence", func(p Permission) Permission { p.MinConfidence = -0.1; return p }, ErrInvalid},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := s.Grant(tt.mutate(base)); !errors.Is(err, tt.wantErr) {
				t.Fatalf("Grant error = %v, want %v", err, tt.wantErr)
			}
		})
	}
	// Wildcards are accepted on every leg.
	wild := Permission{
		Subject: AnySubject, Object: AnyObject, Environment: AnyEnvironment,
		Transaction: AnyTransaction, Effect: Deny,
	}
	if err := s.Grant(wild); err != nil {
		t.Fatalf("wildcard grant: %v", err)
	}
	if got := len(s.Permissions()); got != 2 {
		t.Fatalf("Permissions() length = %d, want 2", got)
	}
}

func TestRevokePermission(t *testing.T) {
	s := newHomeSystem(t)
	p := Permission{
		Subject: "child", Object: "entertainment-devices",
		Environment: "weekdays", Transaction: "use", Effect: Permit,
	}
	if err := s.Revoke(p); !errors.Is(err, ErrNotFound) {
		t.Fatalf("revoke missing error = %v, want ErrNotFound", err)
	}
	if err := s.Grant(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Revoke(p); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Permissions()); got != 0 {
		t.Fatalf("permissions after revoke = %d", got)
	}
}

func TestRemoveRoleCascades(t *testing.T) {
	s := newHomeSystem(t)
	p := Permission{
		Subject: "child", Object: "entertainment-devices",
		Environment: "weekdays", Transaction: "use", Effect: Permit,
	}
	if err := s.Grant(p); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveRole(SubjectRole, "child"); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Permissions()); got != 0 {
		t.Fatalf("permission referencing removed role survived: %d", got)
	}
	roles, _ := s.AuthorizedRoles("alice")
	if len(roles) != 0 {
		t.Fatalf("alice still holds removed role: %v", roles)
	}
	if _, err := s.Role(SubjectRole, "child"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Role(child) after removal error = %v, want ErrNotFound", err)
	}
}

func TestStaticSoDOnAssignment(t *testing.T) {
	s := NewSystem()
	for _, r := range []RoleID{"teller", "account-holder", "auditor"} {
		if err := s.AddRole(Role{ID: r, Kind: SubjectRole}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddSubject("joe"); err != nil {
		t.Fatal(err)
	}
	c := SoDConstraint{Name: "bank", Kind: StaticSoD, Roles: []RoleID{"teller", "auditor"}}
	if err := s.AddSoDConstraint(c); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignSubjectRole("joe", "teller"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignSubjectRole("joe", "auditor"); !errors.Is(err, ErrStaticSoD) {
		t.Fatalf("conflicting assignment error = %v, want ErrStaticSoD", err)
	}
	// account-holder is unconstrained.
	if err := s.AssignSubjectRole("joe", "account-holder"); err != nil {
		t.Fatal(err)
	}
}

func TestStaticSoDThroughHierarchy(t *testing.T) {
	s := NewSystem()
	for _, r := range []Role{
		{ID: "staff", Kind: SubjectRole},
		{ID: "teller", Kind: SubjectRole, Parents: []RoleID{"staff"}},
		{ID: "auditor", Kind: SubjectRole},
	} {
		if err := s.AddRole(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddSubject("joe"); err != nil {
		t.Fatal(err)
	}
	// Constraint names the *ancestor* role; holding teller implies staff.
	c := SoDConstraint{Name: "x", Kind: StaticSoD, Roles: []RoleID{"staff", "auditor"}}
	if err := s.AddSoDConstraint(c); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignSubjectRole("joe", "teller"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignSubjectRole("joe", "auditor"); !errors.Is(err, ErrStaticSoD) {
		t.Fatalf("hierarchical SoD error = %v, want ErrStaticSoD", err)
	}
}

func TestAddSoDConstraintValidation(t *testing.T) {
	s := NewSystem()
	if err := s.AddRole(Role{ID: "a", Kind: SubjectRole}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRole(Role{ID: "b", Kind: SubjectRole}); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		c       SoDConstraint
		wantErr error
	}{
		{"unnamed", SoDConstraint{Kind: StaticSoD, Roles: []RoleID{"a", "b"}}, ErrInvalid},
		{"bad kind", SoDConstraint{Name: "x", Kind: SoDKind(9), Roles: []RoleID{"a", "b"}}, ErrInvalid},
		{"one role", SoDConstraint{Name: "x", Kind: StaticSoD, Roles: []RoleID{"a"}}, ErrInvalid},
		{"dup role", SoDConstraint{Name: "x", Kind: StaticSoD, Roles: []RoleID{"a", "a"}}, ErrInvalid},
		{"empty role", SoDConstraint{Name: "x", Kind: StaticSoD, Roles: []RoleID{"a", ""}}, ErrInvalid},
		{"unknown role", SoDConstraint{Name: "x", Kind: StaticSoD, Roles: []RoleID{"a", "zz"}}, ErrNotFound},
		{"ok", SoDConstraint{Name: "x", Kind: StaticSoD, Roles: []RoleID{"a", "b"}}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := s.AddSoDConstraint(tt.c); !errors.Is(err, tt.wantErr) {
				t.Fatalf("AddSoDConstraint error = %v, want %v", err, tt.wantErr)
			}
		})
	}
	if err := s.AddSoDConstraint(SoDConstraint{Name: "x", Kind: DynamicSoD, Roles: []RoleID{"a", "b"}}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate name error = %v, want ErrExists", err)
	}
	if err := s.RemoveSoDConstraint("x"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveSoDConstraint("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove error = %v, want ErrNotFound", err)
	}
}

func TestRetroactiveStaticSoDRejected(t *testing.T) {
	s := NewSystem()
	for _, r := range []RoleID{"teller", "auditor"} {
		if err := s.AddRole(Role{ID: r, Kind: SubjectRole}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddSubject("joe"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignSubjectRole("joe", "teller"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignSubjectRole("joe", "auditor"); err != nil {
		t.Fatal(err)
	}
	c := SoDConstraint{Name: "late", Kind: StaticSoD, Roles: []RoleID{"teller", "auditor"}}
	if err := s.AddSoDConstraint(c); !errors.Is(err, ErrStaticSoD) {
		t.Fatalf("retroactive constraint error = %v, want ErrStaticSoD", err)
	}
}

func TestSetMinConfidence(t *testing.T) {
	s := NewSystem()
	if err := s.SetMinConfidence(1.5); !errors.Is(err, ErrInvalid) {
		t.Fatalf("SetMinConfidence(1.5) error = %v, want ErrInvalid", err)
	}
	if err := s.SetMinConfidence(0.9); err != nil {
		t.Fatal(err)
	}
	if got := s.MinConfidence(); got != 0.9 {
		t.Fatalf("MinConfidence() = %v", got)
	}
}

func TestWithClock(t *testing.T) {
	fixed := time.Date(2000, 1, 17, 8, 0, 0, 0, time.UTC)
	s := NewSystem(WithClock(clock.NewFake(fixed)))
	if err := s.AddSubject("alice"); err != nil {
		t.Fatal(err)
	}
	sid, err := s.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Session(sid)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Created.Equal(fixed) {
		t.Fatalf("session created = %v, want %v", info.Created, fixed)
	}
}

func TestPermissionsReturnsCopy(t *testing.T) {
	s := newHomeSystem(t)
	p := Permission{
		Subject: "child", Object: "entertainment-devices",
		Environment: "weekdays", Transaction: "use", Effect: Permit,
	}
	if err := s.Grant(p); err != nil {
		t.Fatal(err)
	}
	got := s.Permissions()
	got[0].Effect = Deny
	if s.Permissions()[0].Effect != Permit {
		t.Fatal("Permissions() exposed internal slice")
	}
}
