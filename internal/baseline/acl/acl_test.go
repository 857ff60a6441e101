package acl

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/aware-home/grbac/internal/baseline/rbac"
	"github.com/aware-home/grbac/internal/core"
)

func TestDefaultDeny(t *testing.T) {
	s := NewSystem()
	if s.Allowed("alice", "use", "tv") {
		t.Fatal("empty ACL allowed")
	}
}

func TestAllowDenyPrecedence(t *testing.T) {
	s := NewSystem()
	if err := s.Add(Entry{Subject: "alice", Action: "use", Object: "tv", Allow: true}); err != nil {
		t.Fatal(err)
	}
	if !s.Allowed("alice", "use", "tv") {
		t.Fatal("explicit allow denied")
	}
	if s.Allowed("alice", "use", "vcr") || s.Allowed("bobby", "use", "tv") {
		t.Fatal("ACL generalized beyond its entries")
	}
	// An explicit deny overrides the allow.
	if err := s.Add(Entry{Subject: "alice", Action: "use", Object: "tv", Allow: false}); err != nil {
		t.Fatal(err)
	}
	if s.Allowed("alice", "use", "tv") {
		t.Fatal("deny did not override allow")
	}
}

func TestValidationAndRemoval(t *testing.T) {
	s := NewSystem()
	if err := s.Add(Entry{}); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("empty entry error = %v", err)
	}
	e := Entry{Subject: "a", Action: "use", Object: "o", Allow: true}
	if err := s.Remove(e); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("remove missing error = %v", err)
	}
	if err := s.Add(e); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(e); err != nil { // idempotent
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if err := s.Remove(e); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatal("entry survived removal")
	}
}

func TestEntriesSorted(t *testing.T) {
	s := NewSystem()
	for _, e := range []Entry{
		{Subject: "b", Action: "use", Object: "o", Allow: true},
		{Subject: "a", Action: "use", Object: "o", Allow: true},
		{Subject: "a", Action: "read", Object: "o", Allow: true},
		{Subject: "a", Action: "read", Object: "o", Allow: false},
	} {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Entries()
	if len(got) != 4 {
		t.Fatalf("entries = %d", len(got))
	}
	if got[0].Subject != "a" || got[0].Action != "read" || got[0].Allow {
		t.Fatalf("first entry = %+v", got[0])
	}
	if got[3].Subject != "b" {
		t.Fatalf("last entry = %+v", got[3])
	}
}

// TestPolicySizeVersusGRBAC is experiment E13, §5.1's usability argument:
// as the household grows, the entertainment policy takes children × devices
// ACL entries and one traditional-RBAC transaction grant per device (RBAC
// has no object grouping), but always one GRBAC rule. The ACL and GRBAC
// policies decide alike everywhere.
func TestPolicySizeVersusGRBAC(t *testing.T) {
	for _, tt := range []struct {
		children, devices             int
		aclEntries, rbacGrants, rules int
	}{
		{2, 4, 8, 4, 1},
		{3, 4, 12, 4, 1},
		{10, 20, 200, 20, 1},
		{50, 100, 5000, 100, 1},
	} {
		children := make([]core.SubjectID, tt.children)
		for i := range children {
			children[i] = core.SubjectID(fmt.Sprintf("child%d", i))
		}
		devices := make([]core.ObjectID, tt.devices)
		for i := range devices {
			devices[i] = core.ObjectID(fmt.Sprintf("dev%d", i))
		}

		s := NewSystem()
		for _, c := range children {
			for _, d := range devices {
				if err := s.Add(Entry{Subject: c, Action: "use", Object: d, Allow: true}); err != nil {
					t.Fatal(err)
				}
			}
		}

		r := rbac.NewSystem()
		for _, c := range children {
			if err := r.AuthorizeRole(c, "child"); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range devices {
			if err := r.AuthorizeTransaction("child", core.TransactionID("use-"+d)); err != nil {
				t.Fatal(err)
			}
		}

		g := core.NewSystem()
		for _, role := range []core.Role{
			{ID: "child", Kind: core.SubjectRole},
			{ID: "entertainment-devices", Kind: core.ObjectRole},
		} {
			if err := g.AddRole(role); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.AddTransaction(core.SimpleTransaction("use")); err != nil {
			t.Fatal(err)
		}
		for _, c := range children {
			if err := g.AddSubject(c); err != nil {
				t.Fatal(err)
			}
			if err := g.AssignSubjectRole(c, "child"); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range devices {
			if err := g.AddObject(d); err != nil {
				t.Fatal(err)
			}
			if err := g.AssignObjectRole(d, "entertainment-devices"); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Grant(core.Permission{
			Subject: "child", Object: "entertainment-devices",
			Environment: core.AnyEnvironment, Transaction: "use", Effect: core.Permit,
		}); err != nil {
			t.Fatal(err)
		}

		got := []int{s.Len(), len(r.AuthorizedTransactions("child")), len(g.Permissions())}
		if want := []int{tt.aclEntries, tt.rbacGrants, tt.rules}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%d children, %d devices: ACL entries, RBAC grants, GRBAC rules = %v, want %v",
				tt.children, tt.devices, got, want)
		}
		for _, c := range children {
			for _, d := range devices {
				aclOK := s.Allowed(c, "use", d)
				grbacOK, err := g.CheckAccess(core.Request{
					Subject: c, Object: d, Transaction: "use", Environment: []core.RoleID{},
				})
				if err != nil {
					t.Fatal(err)
				}
				if aclOK != grbacOK {
					t.Fatalf("divergence at (%s, %s): acl %v, grbac %v", c, d, aclOK, grbacOK)
				}
			}
		}
	}
}
