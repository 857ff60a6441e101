package experiments

// Each test here checks one experiment's claim on the workload that its
// BenchmarkE… in the root bench_test.go times, with the same builders,
// seeds and parameters, so every timing EXPERIMENTS.md quotes is a timing
// of a workload that decides as its section says. The general checks of
// each claim, over random or swept inputs, are tests beside the mechanism
// they exercise.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/baseline/acl"
	"github.com/aware-home/grbac/internal/baseline/cbac"
	"github.com/aware-home/grbac/internal/baseline/gacl"
	"github.com/aware-home/grbac/internal/baseline/mls"
	"github.com/aware-home/grbac/internal/baseline/rbac"
	"github.com/aware-home/grbac/internal/baseline/tbac"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/home"
	"github.com/aware-home/grbac/internal/temporal"
)

// benchStart is the instant the household benchmarks decide at.
var benchStart = time.Date(2000, 1, 17, 20, 0, 0, 0, time.UTC) // Monday 8pm

func newHousehold(t *testing.T, at time.Time) *home.Household {
	t.Helper()
	hh, err := home.NewHousehold(at)
	if err != nil {
		t.Fatal(err)
	}
	return hh
}

// newMLS is BenchmarkE11MLSEncoding's system with the officer cleared to
// clearance and the warplan classified at class.
func newMLS(t *testing.T, clearance, class mls.Level) *mls.System {
	t.Helper()
	m := mls.NewSystem()
	if err := m.Clear("officer", clearance); err != nil {
		t.Fatal(err)
	}
	if err := m.Classify("warplan", class); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestE1ReportsFullAgreement: on BenchmarkE1RBACMediation's policy, Figure
// 1's exec(s,t) agrees with ∃r ∈ AR(s): t ∈ AT(r) on all 200 × 60 pairs.
func TestE1ReportsFullAgreement(t *testing.T) {
	s, subjects, txs := NewRandomRBAC(rand.New(rand.NewSource(1)), 200, 40, 60)
	agree, total := 0, 0
	for _, sub := range subjects {
		for _, tx := range txs {
			want := false
			for _, r := range s.AuthorizedRoles(sub) {
				for _, authTx := range s.AuthorizedTransactions(r) {
					want = want || authTx == tx
				}
			}
			if s.Exec(sub, tx) == want {
				agree++
			}
			total++
		}
	}
	if agree != 12000 || total != 12000 {
		t.Fatalf("oracle agreement %d/%d, want 12000/12000", agree, total)
	}
}

// TestE4CrossoverRows: on BenchmarkE4PartialAuth's request (alice at the
// TV on Monday at 20:00 after the Smart Floor's 94 lb reading), the
// highest threshold the identity credential alone passes is 0.75 and the
// highest the fused child-role credential passes is 0.98, so the
// benchmark's 0.90 threshold denies the one and grants the other.
func TestE4CrossoverRows(t *testing.T) {
	hh := newHousehold(t, benchStart)
	if err := hh.Auth.Record(hh.Floor.Sense(94, benchStart)...); err != nil {
		t.Fatal(err)
	}
	env := hh.Engine.ActiveRolesAt(benchStart, "alice")
	decide := func(creds core.CredentialSet) bool {
		d, err := hh.System.Decide(core.Request{
			Subject: "alice", Object: "tv", Transaction: "use",
			Credentials: creds, Environment: env,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d.Allowed
	}
	identity := core.CredentialSet{core.IdentityCredential("alice", 0.75, "smart-floor")}
	fused := hh.Auth.Credentials(benchStart)
	lastIdentity, lastRole := 0, 0
	for pct := 50; pct <= 100; pct++ {
		if err := hh.System.SetMinConfidence(float64(pct) / 100); err != nil {
			t.Fatal(err)
		}
		if decide(identity) {
			lastIdentity = pct
		}
		if decide(fused) {
			lastRole = pct
		}
	}
	if lastIdentity != 75 || lastRole != 98 {
		t.Fatalf("highest passing threshold: identity 0.%d, role 0.%d; want 0.75, 0.98", lastIdentity, lastRole)
	}
}

// TestE5WindowRows: the repairman reaches the dishwasher only inside both
// the 08:00–13:00 window of 2000-01-17 and the kitchen; the 10:00 kitchen
// row is BenchmarkE5RepairmanWindow's request.
func TestE5WindowRows(t *testing.T) {
	hh := newHousehold(t, time.Date(2000, 1, 17, 7, 0, 0, 0, time.UTC))
	for _, p := range []struct {
		day, hour, min int
		room           home.Room
		want           bool
	}{
		{17, 7, 30, home.Outside, false},
		{17, 8, 30, home.Outside, false},
		{17, 8, 30, "kitchen", true},
		{17, 10, 0, "kitchen", true},
		{17, 12, 59, "kitchen", true},
		{17, 13, 1, "kitchen", false},
		{18, 10, 0, "kitchen", false},
	} {
		hh.Clock.Set(time.Date(2000, 1, p.day, p.hour, p.min, 0, 0, time.UTC))
		if err := hh.House.MoveTo("repair-tech", p.room); err != nil {
			t.Fatal(err)
		}
		d, err := hh.Decide("repair-tech", "dishwasher", "repair")
		if err != nil {
			t.Fatal(err)
		}
		if d.Allowed != p.want {
			t.Errorf("Jan %d %02d:%02d in %s: allowed %v, want %v", p.day, p.hour, p.min, p.room, d.Allowed, p.want)
		}
	}
}

// TestE6Matrix: at BenchmarkE6ContentAndNegative's instant the children
// view G and PG but not R media and are denied the oven (deny-overrides
// beats their appliance permit); the parents are granted all four.
func TestE6Matrix(t *testing.T) {
	hh := newHousehold(t, benchStart)
	cols := []struct {
		object core.ObjectID
		tx     core.TransactionID
	}{{"movie-g", "view"}, {"movie-pg", "view"}, {"movie-r", "view"}, {"oven", "use"}}
	child, parent := []bool{true, true, false, false}, []bool{true, true, true, true}
	for sub, want := range map[core.SubjectID][]bool{"alice": child, "bobby": child, "mom": parent, "dad": parent} {
		for i, c := range cols {
			d, err := hh.Decide(sub, c.object, c.tx)
			if err != nil {
				t.Fatal(err)
			}
			if d.Allowed != want[i] {
				t.Errorf("%s %s %s: allowed %v, want %v", sub, c.tx, c.object, d.Allowed, want[i])
			}
		}
	}
}

// TestEncodingExperimentsReportFullAgreement: the GRBAC encoding of each
// policy BenchmarkE7 to BenchmarkE11 time decides like its native engine
// on every probe of that policy's universe.
func TestEncodingExperimentsReportFullAgreement(t *testing.T) {
	agree := func(id string, native, encoded bool, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if native != encoded {
			t.Fatalf("%s: native %v, encoded %v", id, native, encoded)
		}
	}
	empty := []core.RoleID{}

	r, subjects, txs := NewRandomRBAC(rand.New(rand.NewSource(7)), 20, 8, 12)
	g, universe, err := r.EncodeGRBAC()
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subjects {
		for _, tx := range txs {
			got, err := g.CheckAccess(core.Request{Subject: sub, Object: universe, Transaction: tx, Environment: empty})
			if errors.Is(err, core.ErrNotFound) {
				// A transaction no role is authorized for is absent
				// from the encoding; Figure 1 denies it.
				got, err = false, nil
			}
			agree(fmt.Sprintf("E7 exec(%s,%s)", sub, tx), r.Exec(sub, tx), got, err)
		}
	}

	tb := tbac.NewSystem()
	if err := tb.Add(tbac.Authorization{
		Subject: "bob", Object: "db", Action: "read",
		Period: temporal.MustParse("weekly mon-fri and daily 09:00-17:00"), Allow: true,
	}); err != nil {
		t.Fatal(err)
	}
	tenc, err := tb.EncodeGRBAC()
	if err != nil {
		t.Fatal(err)
	}
	for at := time.Date(2000, 1, 17, 0, 0, 0, 0, time.UTC); at.Before(time.Date(2000, 1, 24, 0, 0, 0, 0, time.UTC)); at = at.Add(15 * time.Minute) {
		got, err := tenc.Allowed("bob", "db", "read", at)
		agree("E8 at "+at.Format(time.RFC3339), tb.Allowed("bob", "db", "read", at), got, err)
	}

	ga := gacl.NewSystem()
	if err := ga.Add(gacl.Rule{Subject: "ops", Program: "report", MaxLoad: 0.5}); err != nil {
		t.Fatal(err)
	}
	genc, err := ga.EncodeGRBAC()
	if err != nil {
		t.Fatal(err)
	}
	for pct := 0; pct <= 100; pct += 5 {
		load := float64(pct) / 100
		got, err := genc.CanExec("ops", "report", load)
		agree(fmt.Sprintf("E9 at load %.2f", load), ga.CanExec("ops", "report", load), got, err)
	}

	cb := cbac.NewSystem()
	if err := cb.Index("q3", "finance", "microsoft"); err != nil {
		t.Fatal(err)
	}
	if err := cb.Add(cbac.Rule{Subject: "analyst", Query: cbac.Query{"microsoft"}, Allow: true}); err != nil {
		t.Fatal(err)
	}
	cenc, err := cb.EncodeGRBAC()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cenc.CheckAccess(core.Request{Subject: "analyst", Object: "q3", Transaction: "read", Environment: empty})
	agree("E10 read(analyst, q3)", cb.CanRead("analyst", "q3"), got, err)

	for _, clearance := range mls.Levels() {
		for _, class := range mls.Levels() {
			m := newMLS(t, clearance, class)
			menc, err := m.EncodeGRBAC()
			if err != nil {
				t.Fatal(err)
			}
			for verb, native := range map[core.TransactionID]bool{
				"read": m.CanRead("officer", "warplan"), "write": m.CanWrite("officer", "warplan"),
			} {
				got, err := menc.CheckAccess(core.Request{Subject: "officer", Object: "warplan", Transaction: verb, Environment: empty})
				agree(fmt.Sprintf("E11 %s at clearance %v, class %v", verb, clearance, class), native, got, err)
			}
		}
	}
}

// TestE11StrictnessWitness: a daytime-only GRBAC rule grants the same
// subject and object by day and denies them by night, and none of the
// 4 × 4 lattice assignments of BenchmarkE11MLSEncoding's officer and
// warplan reproduces that table, since an MLS decision depends on the two
// levels alone.
func TestE11StrictnessWitness(t *testing.T) {
	g := core.NewSystem()
	for _, err := range []error{
		g.AddRole(core.Role{ID: "resident", Kind: core.SubjectRole}),
		g.AddRole(core.Role{ID: "docs", Kind: core.ObjectRole}),
		g.AddRole(core.Role{ID: "daytime", Kind: core.EnvironmentRole}),
		g.AddSubject("officer"),
		g.AssignSubjectRole("officer", "resident"),
		g.AddObject("warplan"),
		g.AssignObjectRole("warplan", "docs"),
		g.AddTransaction(core.SimpleTransaction("read")),
		g.Grant(core.Permission{Subject: "resident", Object: "docs",
			Environment: "daytime", Transaction: "read", Effect: core.Permit}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	read := func(env ...core.RoleID) bool {
		ok, err := g.CheckAccess(core.Request{Subject: "officer", Object: "warplan", Transaction: "read", Environment: env})
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	day, night := read("daytime"), read()
	if !day || night {
		t.Fatalf("GRBAC table: day %v, night %v; want true, false", day, night)
	}
	reproduced, assignments := 0, 0
	for _, clearance := range mls.Levels() {
		for _, class := range mls.Levels() {
			m := newMLS(t, clearance, class)
			assignments++
			if m.CanRead("officer", "warplan") == day && m.CanRead("officer", "warplan") == night {
				reproduced++
			}
		}
	}
	if reproduced != 0 || assignments != 16 {
		t.Fatalf("%d/%d lattice assignments reproduce the day/night table, want 0/16", reproduced, assignments)
	}
}

// TestE13Table: BenchmarkE13PolicySize's household, 20 children and 50
// devices, takes 1000 ACL entries and 50 traditional-RBAC transaction
// grants for the entertainment policy, and one GRBAC rule; the ACL and
// GRBAC policies decide alike on every pair.
func TestE13Table(t *testing.T) {
	const children, devices = 20, 50
	a, r, g := acl.NewSystem(), rbac.NewSystem(), core.NewSystem()
	for _, err := range []error{
		g.AddRole(core.Role{ID: "child", Kind: core.SubjectRole}),
		g.AddRole(core.Role{ID: "ent", Kind: core.ObjectRole}),
		g.AddTransaction(core.SimpleTransaction("use")),
		g.Grant(core.Permission{Subject: "child", Object: "ent",
			Environment: core.AnyEnvironment, Transaction: "use", Effect: core.Permit}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < children; c++ {
		sub := core.SubjectID(fmt.Sprintf("c%d", c))
		for _, err := range []error{g.AddSubject(sub), g.AssignSubjectRole(sub, "child"), r.AuthorizeRole(sub, "child")} {
			if err != nil {
				t.Fatal(err)
			}
		}
		for d := 0; d < devices; d++ {
			if err := a.Add(acl.Entry{Subject: sub, Action: "use", Object: core.ObjectID(fmt.Sprintf("d%d", d)), Allow: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for d := 0; d < devices; d++ {
		obj := core.ObjectID(fmt.Sprintf("d%d", d))
		for _, err := range []error{g.AddObject(obj), g.AssignObjectRole(obj, "ent"), r.AuthorizeTransaction("child", core.TransactionID("use-"+obj))} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := [3]int{a.Len(), len(r.AuthorizedTransactions("child")), len(g.Permissions())}; got != [3]int{1000, 50, 1} {
		t.Fatalf("ACL entries, RBAC grants, GRBAC rules = %v, want [1000 50 1]", got)
	}
	for c := 0; c < children; c++ {
		for d := 0; d < devices; d++ {
			sub, obj := core.SubjectID(fmt.Sprintf("c%d", c)), core.ObjectID(fmt.Sprintf("d%d", d))
			ok, err := g.CheckAccess(core.Request{Subject: sub, Object: obj, Transaction: "use", Environment: []core.RoleID{}})
			if err != nil {
				t.Fatal(err)
			}
			if ok != a.Allowed(sub, "use", obj) {
				t.Fatalf("(%s, %s): grbac %v, acl %v", sub, obj, ok, !ok)
			}
		}
	}
}

// TestE14Outcomes: in BenchmarkE14SodActivation's system, joe holds teller
// and account-holder under a dynamic SoD constraint; the benchmark's
// activate/deactivate cycle succeeds, activating both at once is rejected,
// and activating them one after the other is allowed.
func TestE14Outcomes(t *testing.T) {
	s := core.NewSystem()
	roles := []core.RoleID{"teller", "account-holder"}
	for _, err := range []error{
		s.AddRole(core.Role{ID: "teller", Kind: core.SubjectRole}),
		s.AddRole(core.Role{ID: "account-holder", Kind: core.SubjectRole}),
		s.AddSubject("joe"),
		s.AssignSubjectRole("joe", "teller"),
		s.AssignSubjectRole("joe", "account-holder"),
		s.AddSoDConstraint(core.SoDConstraint{Name: "x", Kind: core.DynamicSoD, Roles: roles}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	sid, err := s.CreateSession("joe")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.ActivateRole(sid, "teller"); err != nil {
			t.Fatalf("cycle %d: activate teller: %v", i, err)
		}
		if err := s.DeactivateRole(sid, "teller"); err != nil {
			t.Fatalf("cycle %d: deactivate teller: %v", i, err)
		}
	}
	if err := s.ActivateRole(sid, "teller"); err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateRole(sid, "account-holder"); !errors.Is(err, core.ErrDynamicSoD) {
		t.Fatalf("simultaneous activation: %v, want ErrDynamicSoD", err)
	}
	if err := s.DeactivateRole(sid, "teller"); err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateRole(sid, "account-holder"); err != nil {
		t.Fatalf("sequential activation: %v", err)
	}
}

// TestE15RhythmShape: the hourly profile `grbac-sim -routine` prints with
// its defaults (seed 1, five days from Monday 07:00, every resident) has
// the §5.1 shape: the morning runs at 100%, the after-school hour is a
// trough below 50% (the children's entertainment is outside free time),
// and the evening rises above it; the trusted log verifies after the week.
func TestE15RhythmShape(t *testing.T) {
	start := time.Date(2000, 1, 17, 7, 0, 0, 0, time.UTC)
	hh := newHousehold(t, start)
	trace := home.GenerateRoutineWeek(rand.New(rand.NewSource(1)), home.StandardRoutines(), start, 5, 6)
	_, hours, err := hh.ReplayByHour(trace)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(h int) int {
		if hours[h].Events == 0 {
			t.Fatalf("no events at %02d:00", h)
		}
		return 100 * hours[h].Permits / hours[h].Events
	}
	if r := rate(7); r != 100 {
		t.Errorf("07:00 permit rate %d%%, want 100%%", r)
	}
	if r := rate(16); r >= 50 {
		t.Errorf("16:00 permit rate %d%%, want a trough below 50%%", r)
	}
	if rate(19) <= rate(16) {
		t.Errorf("19:00 permit rate %d%% not above the 16:00 trough %d%%", rate(19), rate(16))
	}
	if err := hh.Log.Verify(); err != nil {
		t.Fatalf("trusted log after the week: %v", err)
	}
}
