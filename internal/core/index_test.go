package core

import "testing"

func mustOK(err error) {
	if err != nil {
		panic(err)
	}
}

// TestIndexMaintainedAcrossMutations: revoking and role removal recompile
// the snapshot's per-transaction buckets correctly.
func TestIndexMaintainedAcrossMutations(t *testing.T) {
	s := newHomeSystem(t)
	p1 := grantEntertainment(t, s)
	p2 := Permission{Subject: "parent", Object: "medical-records",
		Environment: AnyEnvironment, Transaction: "read", Effect: Permit}
	if err := s.Grant(p2); err != nil {
		t.Fatal(err)
	}
	// Revoke the first permission: the second must still match via the
	// recompiled buckets.
	if err := s.Revoke(p1); err != nil {
		t.Fatal(err)
	}
	ok, err := s.CheckAccess(Request{Subject: "mom", Object: "family-medical-records",
		Transaction: "read", Environment: []RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("index stale after Revoke")
	}
	// Removing the subject role drops its permission from the buckets too.
	if err := s.RemoveRole(SubjectRole, "parent"); err != nil {
		t.Fatal(err)
	}
	d, err := s.Decide(Request{Subject: "mom", Object: "family-medical-records",
		Transaction: "read", Environment: []RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Matches) != 0 {
		t.Fatalf("index references removed permission: %v", d.Matches)
	}
}
