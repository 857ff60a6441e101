package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"
)

// migrateSystem builds a system with the subject-role vocabulary the
// migration tests share.
func migrateSystem(t *testing.T) *System {
	t.Helper()
	s := NewSystem()
	for _, r := range []RoleID{"resident", "guest", "admin", "auditor"} {
		if err := s.AddRole(Role{ID: r, Kind: SubjectRole}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestExportSubject(t *testing.T) {
	s := migrateSystem(t)
	if err := s.AddSubject("alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignSubjectRole("alice", "resident"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignSubjectRole("alice", "admin"); err != nil {
		t.Fatal(err)
	}
	sid, err := s.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateRole(sid, "resident"); err != nil {
		t.Fatal(err)
	}
	// A second subject's state must not leak into the bundle.
	if err := s.AddSubject("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSession("bob"); err != nil {
		t.Fatal(err)
	}

	b, err := s.ExportSubject("alice")
	if err != nil {
		t.Fatal(err)
	}
	if b.Subject.ID != "alice" {
		t.Fatalf("bundle subject = %q", b.Subject.ID)
	}
	if want := []RoleID{"admin", "resident"}; !reflect.DeepEqual(b.Subject.Roles, want) {
		t.Fatalf("bundle roles = %v, want %v", b.Subject.Roles, want)
	}
	if len(b.Sessions) != 1 || b.Sessions[0].ID != sid {
		t.Fatalf("bundle sessions = %+v, want exactly %q", b.Sessions, sid)
	}
	if want := []RoleID{"resident"}; !reflect.DeepEqual(b.Sessions[0].Active, want) {
		t.Fatalf("bundle session active = %v, want %v", b.Sessions[0].Active, want)
	}

	if _, err := s.ExportSubject("nobody"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ExportSubject(nobody) = %v, want ErrNotFound", err)
	}
}

func TestRestoreSubjectRoundTrip(t *testing.T) {
	src := migrateSystem(t)
	if err := src.AddSubject("alice"); err != nil {
		t.Fatal(err)
	}
	if err := src.AssignSubjectRole("alice", "resident"); err != nil {
		t.Fatal(err)
	}
	sid, err := src.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.ActivateRole(sid, "resident"); err != nil {
		t.Fatal(err)
	}
	b, err := src.ExportSubject("alice")
	if err != nil {
		t.Fatal(err)
	}

	dst := migrateSystem(t)
	if err := dst.RestoreSubject(b); err != nil {
		t.Fatal(err)
	}
	got, err := dst.ExportSubject("alice")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, b)
	}

	// Restore is idempotent: a second import of the same bundle changes
	// nothing and a re-export still matches.
	if err := dst.RestoreSubject(b); err != nil {
		t.Fatal(err)
	}
	again, err := dst.ExportSubject("alice")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, b) {
		t.Fatalf("second restore diverged:\n got %+v\nwant %+v", again, b)
	}
}

func TestRestoreSubjectConvergesToNewerBundle(t *testing.T) {
	dst := migrateSystem(t)
	if err := dst.RestoreSubject(SubjectBundle{
		Subject: SubjectState{ID: "alice", Roles: []RoleID{"resident", "auditor"}},
		Sessions: []SessionInfo{
			{ID: "sess-3-alice", Subject: "alice", Active: []RoleID{"resident"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// A newer bundle: auditor revoked, admin added, old session closed,
	// a different one open.
	if err := dst.RestoreSubject(SubjectBundle{
		Subject: SubjectState{ID: "alice", Roles: []RoleID{"resident", "admin"}},
		Sessions: []SessionInfo{
			{ID: "sess-5-alice", Subject: "alice", Active: []RoleID{"admin"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := dst.ExportSubject("alice")
	if err != nil {
		t.Fatal(err)
	}
	if want := []RoleID{"admin", "resident"}; !reflect.DeepEqual(got.Subject.Roles, want) {
		t.Fatalf("roles after newer bundle = %v, want %v", got.Subject.Roles, want)
	}
	if len(got.Sessions) != 1 || got.Sessions[0].ID != "sess-5-alice" {
		t.Fatalf("sessions after newer bundle = %+v, want only sess-5-alice", got.Sessions)
	}
}

func TestRestoreSubjectAdvancesSessionSeq(t *testing.T) {
	dst := migrateSystem(t)
	if err := dst.RestoreSubject(SubjectBundle{
		Subject: SubjectState{ID: "alice"},
		Sessions: []SessionInfo{
			{ID: "sess-7-alice", Subject: "alice"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// The next locally-minted session must not collide with the restored
	// "sess-7-alice": the sequence jumped past 7.
	sid, err := dst.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if sid != "sess-8-alice" {
		t.Fatalf("post-restore session ID = %q, want sess-8-alice", sid)
	}
	if _, err := dst.Session("sess-7-alice"); err != nil {
		t.Fatalf("restored session lost: %v", err)
	}
}

func TestRestoreSubjectJournalsReplayableDelta(t *testing.T) {
	dst := migrateSystem(t)
	if err := dst.AddSubject("alice"); err != nil {
		t.Fatal(err)
	}
	if err := dst.AssignSubjectRole("alice", "auditor"); err != nil {
		t.Fatal(err)
	}
	j := &recordingJournal{}
	dst.SetJournal(j)

	if err := dst.RestoreSubject(SubjectBundle{
		Subject: SubjectState{ID: "alice", Roles: []RoleID{"resident"}},
		Sessions: []SessionInfo{
			{ID: "sess-2-alice", Subject: "alice"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// The journaled delta is exactly the assign+revoke pair; sessions
	// are observed, never recorded.
	var ops []MutationOp
	for _, m := range j.records {
		ops = append(ops, m.Op)
	}
	if want := []MutationOp{OpAssignSubjectRole, OpRevokeSubjectRole}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("journaled ops = %v, want %v", ops, want)
	}
	if len(j.observed) != 1 {
		t.Fatalf("observed bumps = %v, want exactly one (session churn)", j.observed)
	}

	// Replaying the records on a fresh system reproduces the role set —
	// the replay-language consistency the migration journal depends on.
	replay := migrateSystem(t)
	if err := replay.AddSubject("alice"); err != nil {
		t.Fatal(err)
	}
	if err := replay.AssignSubjectRole("alice", "auditor"); err != nil {
		t.Fatal(err)
	}
	for _, m := range j.records {
		if err := replay.Apply(m); err != nil {
			t.Fatalf("replaying %s: %v", m.Op, err)
		}
	}
	roles, err := replay.AuthorizedRoles("alice")
	if err != nil {
		t.Fatal(err)
	}
	if want := []RoleID{"resident"}; !reflect.DeepEqual(roles, want) {
		t.Fatalf("replayed roles = %v, want %v", roles, want)
	}
}

func TestRestoreSubjectValidation(t *testing.T) {
	dst := migrateSystem(t)
	cases := []struct {
		name string
		b    SubjectBundle
		want error
	}{
		{"empty subject", SubjectBundle{}, ErrInvalid},
		{"unknown role", SubjectBundle{Subject: SubjectState{ID: "x", Roles: []RoleID{"ghost"}}}, ErrNotFound},
		{"empty session ID", SubjectBundle{
			Subject:  SubjectState{ID: "x"},
			Sessions: []SessionInfo{{Subject: "x"}},
		}, ErrInvalid},
		{"foreign session subject", SubjectBundle{
			Subject:  SubjectState{ID: "x"},
			Sessions: []SessionInfo{{ID: "sess-1-y", Subject: "y"}},
		}, ErrInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := dst.RestoreSubject(tc.b); !errors.Is(err, tc.want) {
				t.Fatalf("RestoreSubject = %v, want %v", err, tc.want)
			}
		})
	}
	// A failed restore must not leave a half-created subject behind.
	if dst.HasSubject("x") {
		t.Fatal("failed restore left subject behind")
	}
}

func TestRestoreSubjectDropsUnauthorizedActiveRoles(t *testing.T) {
	dst := migrateSystem(t)
	if err := dst.RestoreSubject(SubjectBundle{
		Subject: SubjectState{ID: "alice", Roles: []RoleID{"resident"}},
		Sessions: []SessionInfo{
			{ID: "sess-1-alice", Subject: "alice", Active: []RoleID{"resident", "admin"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	si, err := dst.Session("sess-1-alice")
	if err != nil {
		t.Fatal(err)
	}
	if want := []RoleID{"resident"}; !reflect.DeepEqual(si.Active, want) {
		t.Fatalf("active roles = %v, want %v (admin not authorized)", si.Active, want)
	}
}

func TestParseSessionSeq(t *testing.T) {
	cases := []struct {
		id  SessionID
		seq uint64
		ok  bool
	}{
		{"sess-12-alice", 12, true},
		{"sess-1-a-b", 1, true},
		{"sess--alice", 0, false},
		{"sess-xx-alice", 0, false},
		{"other-3-alice", 0, false},
		{"sess-3", 0, false},
		{"", 0, false},
	}
	for _, tc := range cases {
		seq, ok := parseSessionSeq(tc.id)
		if seq != tc.seq || ok != tc.ok {
			t.Errorf("parseSessionSeq(%q) = (%d, %v), want (%d, %v)", tc.id, seq, ok, tc.seq, tc.ok)
		}
	}
}

// TestSessionSubject pins the subject a session ID names: the whole rest
// after the sequence number, so subjects containing '-' or '/' come back
// whole, and every ID CreateSession cannot mint names no subject.
func TestSessionSubject(t *testing.T) {
	cases := []struct {
		id  SessionID
		sub SubjectID
		ok  bool
	}{
		{"sess-12-alice", "alice", true},
		{"sess-1-a-b", "a-b", true},
		{"sess-7-home/alice", "home/alice", true},
		{"sess-3-subject-008", "subject-008", true},
		{"sess-1-", "", false},
		{"sess-x-a", "", false},
		{"sess--a", "", false},
		{"s2/sess-1-alice", "", false},
		{"other-3-alice", "", false},
		{"sess-3", "", false},
		{"", "", false},
	}
	for _, tc := range cases {
		sub, ok := SessionSubject(tc.id)
		if sub != tc.sub || ok != tc.ok {
			t.Errorf("SessionSubject(%q) = (%q, %v), want (%q, %v)", tc.id, sub, ok, tc.sub, tc.ok)
		}
	}
	// Every ID the system mints names the subject it was opened for.
	s := NewSystem()
	for _, sub := range []SubjectID{"alice", "a-b", "home/alice"} {
		if err := s.AddSubject(sub); err != nil {
			t.Fatal(err)
		}
		id, err := s.CreateSession(sub)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := SessionSubject(id); !ok || got != sub {
			t.Errorf("SessionSubject(%q) = (%q, %v), want (%q, true)", id, got, ok, sub)
		}
	}
}

// TestSubjectSessionIndex drives every call that opens, closes, moves or
// prunes sessions and checks after each that every subject's session list
// names exactly the open sessions whose subject it is.
func TestSubjectSessionIndex(t *testing.T) {
	s := migrateSystem(t)
	check := func(step string) {
		t.Helper()
		want := make(map[SubjectID][]SessionID)
		for _, si := range s.Sessions() {
			want[si.Subject] = append(want[si.Subject], si.ID)
		}
		for id, rec := range s.subjects {
			got := slices.Clone(rec.sessions)
			slices.Sort(got)
			if !slices.Equal(got, want[id]) {
				t.Fatalf("%s: %s lists sessions %v, want %v", step, id, got, want[id])
			}
			delete(want, id)
		}
		if len(want) != 0 {
			t.Fatalf("%s: sessions of unknown subjects: %v", step, want)
		}
	}
	for _, sub := range []SubjectID{"alice", "bob"} {
		if err := s.AddSubject(sub); err != nil {
			t.Fatal(err)
		}
		if err := s.AssignSubjectRole(sub, "resident"); err != nil {
			t.Fatal(err)
		}
	}
	a1, _ := s.CreateSession("alice")
	a2, _ := s.CreateSession("alice")
	b1, _ := s.CreateSession("bob")
	check("create")
	if err := s.CloseSession(a1); err != nil {
		t.Fatal(err)
	}
	check("close")
	b, err := s.ExportSubject("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sessions) != 1 || b.Sessions[0].ID != a2 {
		t.Fatalf("export after close = %+v, want only %s", b.Sessions, a2)
	}
	b.Sessions = append(b.Sessions, SessionInfo{ID: "sess-90-alice", Subject: "alice"})
	if err := s.RestoreSubject(b); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreSubject(b); err != nil {
		t.Fatal(err)
	}
	check("restore")
	st := s.Export()
	st.Subjects = slices.DeleteFunc(st.Subjects, func(sub SubjectState) bool { return sub.ID == "bob" })
	if err := s.Replace(st); err != nil {
		t.Fatal(err)
	}
	check("replace")
	if _, err := s.Session(b1); !errors.Is(err, ErrNoSession) {
		t.Fatalf("bob's session after bob left = %v, want ErrNoSession", err)
	}
	if err := s.RemoveSubject("alice"); err != nil {
		t.Fatal(err)
	}
	check("remove")
	if n := len(s.Sessions()); n != 0 {
		t.Fatalf("%d sessions left after the last subject went", n)
	}
}
