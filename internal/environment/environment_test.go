package environment

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/event"
	"github.com/aware-home/grbac/internal/temporal"
)

func TestValueConstructorsAndRender(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{String("kitchen"), `"kitchen"`},
		{Number(72.5), "72.5"},
		{Bool(true), "true"},
		{Value{}, "invalid(0)"},
	}
	for _, tt := range tests {
		if got := tt.v.Render(); got != tt.want {
			t.Errorf("Render() = %q, want %q", got, tt.want)
		}
	}
	if !String("a").Equal(String("a")) || String("a").Equal(String("b")) {
		t.Fatal("string equality wrong")
	}
	if String("1").Equal(Number(1)) {
		t.Fatal("cross-kind equality wrong")
	}
}

func TestStoreSetGetDelete(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("temp"); ok {
		t.Fatal("empty store returned a value")
	}
	s.Set("temp", Number(68))
	v, ok := s.Get("temp")
	if !ok || v.Num != 68 {
		t.Fatalf("Get(temp) = %v, %v", v, ok)
	}
	s.Set("location.alice", String("kitchen"))
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"location.alice", "temp"}) {
		t.Fatalf("Keys() = %v", got)
	}
	snap := s.Snapshot()
	snap["temp"] = Number(0)
	if v, _ := s.Get("temp"); v.Num != 68 {
		t.Fatal("Snapshot aliases store")
	}
	s.Delete("temp")
	if _, ok := s.Get("temp"); ok {
		t.Fatal("Delete did not remove")
	}
	s.Delete("temp") // idempotent
}

func TestStorePublishesChanges(t *testing.T) {
	bus := event.NewBus()
	var events []event.Event
	bus.Subscribe(func(e event.Event) { events = append(events, e) }, event.TypeStateChanged)
	s := NewStore(WithStoreBus(bus))

	s.Set("temp", Number(68))
	s.Set("temp", Number(68)) // no-op: same value
	s.Set("temp", Number(70))
	s.Delete("temp")
	s.Delete("temp") // no-op: absent

	if len(events) != 3 {
		t.Fatalf("published %d events, want 3", len(events))
	}
	if events[0].Attrs["key"] != "temp" || events[0].Attrs["value"] != "68" {
		t.Fatalf("first event attrs = %v", events[0].Attrs)
	}
	if events[2].Attrs["value"] != "<deleted>" {
		t.Fatalf("delete event attrs = %v", events[2].Attrs)
	}
}

func evalCtx(now string, attrs map[string]Value, subject core.SubjectID) Context {
	ts, err := time.Parse(time.RFC3339, now)
	if err != nil {
		panic(err)
	}
	return Context{
		Now:     ts,
		Attrs:   func(k string) (Value, bool) { v, ok := attrs[k]; return v, ok },
		Subject: subject,
	}
}

func TestConditions(t *testing.T) {
	attrs := map[string]Value{
		"system.load":    Number(0.3),
		"temp":           Number(68),
		"mode":           String("away"),
		"armed":          Bool(true),
		"location.alice": String("kitchen"),
	}
	ctx := evalCtx("2000-01-17T20:00:00Z", attrs, "alice") // Monday 8pm

	tests := []struct {
		name string
		cond Condition
		want bool
	}{
		{"time inside", TimeIn{temporal.MustParse("daily 19:00-22:00")}, true},
		{"time outside", TimeIn{temporal.MustParse("daily 06:00-12:00")}, false},
		{"attr equals", AttrEquals{Key: "mode", Value: String("away")}, true},
		{"attr equals wrong value", AttrEquals{Key: "mode", Value: String("home")}, false},
		{"attr equals missing", AttrEquals{Key: "nope", Value: String("x")}, false},
		{"compare lt", AttrCompare{Key: "system.load", Op: OpLt, Threshold: 0.5}, true},
		{"compare ge", AttrCompare{Key: "system.load", Op: OpGe, Threshold: 0.5}, false},
		{"compare eq", AttrCompare{Key: "temp", Op: OpEq, Threshold: 68}, true},
		{"compare ne", AttrCompare{Key: "temp", Op: OpNe, Threshold: 68}, false},
		{"compare le", AttrCompare{Key: "temp", Op: OpLe, Threshold: 68}, true},
		{"compare gt", AttrCompare{Key: "temp", Op: OpGt, Threshold: 67}, true},
		{"compare non-numeric", AttrCompare{Key: "mode", Op: OpLt, Threshold: 1}, false},
		{"compare missing", AttrCompare{Key: "nope", Op: OpLt, Threshold: 1}, false},
		{"compare bad op", AttrCompare{Key: "temp", Op: CompareOp(0), Threshold: 1}, false},
		{"exists", AttrExists{Key: "armed"}, true},
		{"exists missing", AttrExists{Key: "nope"}, false},
		{"subject attr", SubjectAttrEquals{Prefix: "location", Value: String("kitchen")}, true},
		{"subject attr wrong room", SubjectAttrEquals{Prefix: "location", Value: String("den")}, false},
		{"all true", All{AttrExists{Key: "armed"}, AttrEquals{Key: "mode", Value: String("away")}}, true},
		{"all short-circuit", All{AttrExists{Key: "nope"}, AttrExists{Key: "armed"}}, false},
		{"empty all", All{}, true},
		{"any", Any{AttrExists{Key: "nope"}, AttrExists{Key: "armed"}}, true},
		{"empty any", Any{}, false},
		{"not", NotCond{C: AttrExists{Key: "nope"}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.cond.Eval(ctx); got != tt.want {
				t.Fatalf("Eval = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSubjectAttrRequiresSubject(t *testing.T) {
	ctx := evalCtx("2000-01-17T20:00:00Z",
		map[string]Value{"location.alice": String("kitchen")}, "")
	c := SubjectAttrEquals{Prefix: "location", Value: String("kitchen")}
	if c.Eval(ctx) {
		t.Fatal("subject-relative condition held with no subject")
	}
}

func TestConditionNilAttrs(t *testing.T) {
	ctx := Context{Now: time.Now()}
	if (AttrExists{Key: "x"}).Eval(ctx) {
		t.Fatal("nil attrs reported existence")
	}
}

func TestConditionStrings(t *testing.T) {
	tests := []struct {
		cond Condition
		want string
	}{
		{TimeIn{temporal.Always{}}, "time(always)"},
		{AttrEquals{Key: "mode", Value: String("away")}, `attr(mode == "away")`},
		{AttrCompare{Key: "load", Op: OpLt, Threshold: 0.5}, "attr(load < 0.5)"},
		{AttrExists{Key: "armed"}, "attr(armed exists)"},
		{SubjectAttrEquals{Prefix: "location", Value: String("kitchen")}, `subject-attr(location == "kitchen")`},
		{All{AttrExists{Key: "a"}, AttrExists{Key: "b"}}, "all(attr(a exists), attr(b exists))"},
		{Any{AttrExists{Key: "a"}}, "any(attr(a exists))"},
		{NotCond{C: AttrExists{Key: "a"}}, "not(attr(a exists))"},
	}
	for _, tt := range tests {
		if got := tt.cond.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestEngineDefineAndQuery(t *testing.T) {
	store := NewStore()
	e := NewEngine(store, WithClock(clock.NewFake(time.Date(2000, 1, 17, 20, 0, 0, 0, time.UTC)))) // Monday 8pm

	if err := e.Define("", TimeIn{temporal.Always{}}); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("Define(empty) error = %v, want ErrInvalid", err)
	}
	if err := e.Define("x", nil); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("Define(nil cond) error = %v, want ErrInvalid", err)
	}

	defs := map[core.RoleID]Condition{
		"weekdays":  TimeIn{temporal.WorkWeek()},
		"free-time": TimeIn{temporal.MustParse("daily 19:00-22:00")},
		"low-load":  AttrCompare{Key: "system.load", Op: OpLt, Threshold: 0.5},
		"in-kitchen": SubjectAttrEquals{
			Prefix: "location", Value: String("kitchen"),
		},
	}
	for r, c := range defs {
		if err := e.Define(r, c); err != nil {
			t.Fatalf("Define(%q): %v", r, err)
		}
	}
	wantRoles := []core.RoleID{"free-time", "in-kitchen", "low-load", "weekdays"}
	if got := e.Roles(); !reflect.DeepEqual(got, wantRoles) {
		t.Fatalf("Roles() = %v, want %v", got, wantRoles)
	}

	store.Set("system.load", Number(0.2))
	store.Set("location.alice", String("kitchen"))

	// Global view: subject-relative roles inactive.
	got := e.ActiveEnvironmentRoles()
	want := []core.RoleID{"free-time", "low-load", "weekdays"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ActiveEnvironmentRoles() = %v, want %v", got, want)
	}

	// Alice's view includes in-kitchen.
	got = e.ActiveRolesFor("alice")
	want = []core.RoleID{"free-time", "in-kitchen", "low-load", "weekdays"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ActiveRolesFor(alice) = %v, want %v", got, want)
	}

	// Saturday morning: time roles drop out.
	saturday := time.Date(2000, 1, 22, 9, 0, 0, 0, time.UTC)
	got = e.ActiveRolesAt(saturday, "alice")
	want = []core.RoleID{"in-kitchen", "low-load"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ActiveRolesAt(saturday) = %v, want %v", got, want)
	}

	ok, err := e.IsActive("weekdays", "")
	if err != nil || !ok {
		t.Fatalf("IsActive(weekdays) = %v, %v", ok, err)
	}
	if _, err := e.IsActive("ghost", ""); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("IsActive(ghost) error = %v, want ErrNotFound", err)
	}

	if _, err := e.Definition("weekdays"); err != nil {
		t.Fatal(err)
	}
	if err := e.Undefine("weekdays"); err != nil {
		t.Fatal(err)
	}
	if err := e.Undefine("weekdays"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("double Undefine error = %v, want ErrNotFound", err)
	}
	if _, err := e.Definition("weekdays"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Definition(removed) error = %v, want ErrNotFound", err)
	}
}

func TestEnginePublishesTransitions(t *testing.T) {
	bus := event.NewBus()
	store := NewStore(WithStoreBus(bus))
	e := NewEngine(store,
		WithClock(clock.NewFake(time.Date(2000, 1, 17, 20, 0, 0, 0, time.UTC))),
		WithBus(bus))
	if err := e.Define("low-load", AttrCompare{Key: "system.load", Op: OpLt, Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}

	var transitions []string
	bus.Subscribe(func(ev event.Event) {
		transitions = append(transitions, string(ev.Type)+":"+ev.Attrs["role"])
	}, event.TypeRoleActivated, event.TypeRoleDeactivated)

	store.Set("system.load", Number(0.2)) // activates low-load
	store.Set("system.load", Number(0.3)) // still active: no transition
	store.Set("system.load", Number(0.9)) // deactivates

	want := []string{
		"role.activated:low-load",
		"role.deactivated:low-load",
	}
	if !reflect.DeepEqual(transitions, want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

func TestEngineTickPublishesTimeTransitions(t *testing.T) {
	bus := event.NewBus()
	store := NewStore()
	clk := clock.NewFake(time.Date(2000, 1, 17, 18, 0, 0, 0, time.UTC))
	e := NewEngine(store, WithClock(clk), WithBus(bus))
	if err := e.Define("free-time", TimeIn{temporal.MustParse("daily 19:00-22:00")}); err != nil {
		t.Fatal(err)
	}

	var transitions []string
	bus.Subscribe(func(ev event.Event) {
		transitions = append(transitions, string(ev.Type))
	}, event.TypeRoleActivated, event.TypeRoleDeactivated)

	e.Tick() // 18:00, inactive, no change from initial false
	clk.Advance(90 * time.Minute)
	e.Tick() // 19:30, active
	clk.Advance(3 * time.Hour)
	e.Tick() // 22:30, inactive

	want := []string{"role.activated", "role.deactivated"}
	if !reflect.DeepEqual(transitions, want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

func TestEngineAsCoreEnvironmentSource(t *testing.T) {
	// Wire the engine into a core.System and check the §5.1 policy fires
	// only when the environment roles are genuinely active.
	store := NewStore()
	clk := clock.NewFake(time.Date(2000, 1, 17, 20, 0, 0, 0, time.UTC)) // Monday 8pm
	engine := NewEngine(store, WithClock(clk))
	if err := engine.Define("weekday-free-time", All{
		TimeIn{temporal.WorkWeek()},
		TimeIn{temporal.MustParse("daily 19:00-22:00")},
	}); err != nil {
		t.Fatal(err)
	}

	sys := core.NewSystem(core.WithEnvironmentSource(engine))
	for _, r := range []core.Role{
		{ID: "child", Kind: core.SubjectRole},
		{ID: "entertainment-devices", Kind: core.ObjectRole},
		{ID: "weekday-free-time", Kind: core.EnvironmentRole},
	} {
		if err := sys.AddRole(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.AddSubject("alice"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AssignSubjectRole("alice", "child"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddObject("tv"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AssignObjectRole("tv", "entertainment-devices"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTransaction(core.SimpleTransaction("use")); err != nil {
		t.Fatal(err)
	}
	if err := sys.Grant(core.Permission{
		Subject: "child", Object: "entertainment-devices",
		Environment: "weekday-free-time", Transaction: "use", Effect: core.Permit,
	}); err != nil {
		t.Fatal(err)
	}

	req := core.Request{Subject: "alice", Object: "tv", Transaction: "use"}
	ok, err := sys.CheckAccess(req)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Monday 8pm denied")
	}
	clk.Set(time.Date(2000, 1, 22, 20, 0, 0, 0, time.UTC)) // Saturday 8pm
	ok, err = sys.CheckAccess(req)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Saturday 8pm granted")
	}
}

func TestSubjectSource(t *testing.T) {
	store := NewStore()
	engine := NewEngine(store, WithClock(clock.NewFake(time.Date(2000, 1, 17, 20, 0, 0, 0, time.UTC))))
	if err := engine.Define("in-kitchen",
		SubjectAttrEquals{Prefix: "location", Value: String("kitchen")}); err != nil {
		t.Fatal(err)
	}
	store.Set("location.bobby", String("kitchen"))

	src := NewSubjectSource(engine, "bobby")
	if got := src.ActiveEnvironmentRoles(); !reflect.DeepEqual(got, []core.RoleID{"in-kitchen"}) {
		t.Fatalf("bobby's roles = %v", got)
	}
	other := NewSubjectSource(engine, "alice")
	if got := other.ActiveEnvironmentRoles(); len(got) != 0 {
		t.Fatalf("alice's roles = %v, want none", got)
	}
}

func TestConditionStringsContainSubparts(t *testing.T) {
	c := All{
		TimeIn{temporal.WorkWeek()},
		NotCond{C: AttrEquals{Key: "mode", Value: String("vacation")}},
	}
	s := c.String()
	for _, want := range []string{"all(", "time(weekly", "not(", "vacation"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestStoreTTLFailSafe(t *testing.T) {
	clk := clock.NewFake(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC))
	s := NewStore()
	s.now = clk.Now
	s.SetTTL("motion.kitchen", Bool(true), time.Minute)
	s.SetTTL("temperature", Number(21), 10*time.Minute)
	s.SetTTL("address", String("home"), 0) // never expires

	if _, ok := s.Get("motion.kitchen"); !ok {
		t.Fatal("fresh value absent")
	}
	if got := s.ExpiredKeys(); len(got) != 0 {
		t.Fatalf("ExpiredKeys fresh = %v", got)
	}

	clk.Advance(2 * time.Minute) // past motion's TTL, inside temperature's
	if _, ok := s.Get("motion.kitchen"); ok {
		t.Fatal("expired value still served (fail-safe violated)")
	}
	if _, ok := s.Get("temperature"); !ok {
		t.Fatal("unexpired value vanished")
	}
	if got := s.ExpiredKeys(); !reflect.DeepEqual(got, []string{"motion.kitchen"}) {
		t.Fatalf("ExpiredKeys = %v", got)
	}
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"address", "temperature"}) {
		t.Fatalf("Keys = %v", got)
	}
	if _, ok := s.Snapshot()["motion.kitchen"]; ok {
		t.Fatal("Snapshot serves expired value")
	}
	if s.StaleReads() == 0 {
		t.Fatal("stale reads not counted")
	}

	clk.Advance(20 * time.Minute)
	if _, ok := s.Get("address"); !ok {
		t.Fatal("TTL-less value expired")
	}

	// Re-setting an expired key makes it fresh again.
	s.SetTTL("motion.kitchen", Bool(true), time.Minute)
	if _, ok := s.Get("motion.kitchen"); !ok {
		t.Fatal("re-set value absent")
	}
	if got := s.ExpiredKeys(); len(got) != 1 || got[0] != "temperature" {
		t.Fatalf("ExpiredKeys after refresh = %v", got)
	}
}

func TestStoreTTLRefreshOnEqualSet(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	var events int
	bus := event.NewBus()
	bus.Subscribe(func(event.Event) { events++ }, event.TypeStateChanged)
	s := NewStore(WithStoreBus(bus))
	s.now = clk.Now

	s.SetTTL("k", Bool(true), time.Minute)
	clk.Advance(45 * time.Second)
	s.SetTTL("k", Bool(true), time.Minute) // same value: refresh freshness, no event
	clk.Advance(45 * time.Second)
	if _, ok := s.Get("k"); !ok {
		t.Fatal("re-confirmed value expired: equal Set did not refresh TTL")
	}
	if events != 1 {
		t.Fatalf("equal Set published an event (%d events, want 1)", events)
	}
}

// TestFreshnessFailSafeEndToEnd wires the real pipeline: a TTL'd
// attribute store behind an engine behind a core.System. When the sensor
// feed goes quiet past the TTL, the environment role deactivates and the
// system denies with the fail-safe annotation.
func TestFreshnessFailSafeEndToEnd(t *testing.T) {
	clk := clock.NewFake(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC))
	store := NewStore()
	engine := NewEngine(store, WithClock(clk))
	if err := engine.Define("kitchen-occupied", AttrEquals{Key: "motion.kitchen", Value: Bool(true)}); err != nil {
		t.Fatal(err)
	}

	sys := core.NewSystem(core.WithEnvironmentSource(engine))
	steps := []error{
		sys.AddRole(core.Role{ID: "resident", Kind: core.SubjectRole}),
		sys.AddRole(core.Role{ID: "appliance", Kind: core.ObjectRole}),
		sys.AddRole(core.Role{ID: "kitchen-occupied", Kind: core.EnvironmentRole}),
		sys.AddSubject("alice"),
		sys.AssignSubjectRole("alice", "resident"),
		sys.AddObject("stove"),
		sys.AssignObjectRole("stove", "appliance"),
		sys.AddTransaction(core.SimpleTransaction("use")),
		sys.Grant(core.Permission{
			Subject: "resident", Object: "appliance",
			Environment: "kitchen-occupied", Transaction: "use", Effect: core.Permit,
		}),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}

	store.SetTTL("motion.kitchen", Bool(true), 30*time.Second)
	req := core.Request{Subject: "alice", Object: "stove", Transaction: "use"}
	if d, err := sys.Decide(req); err != nil || !d.Allowed {
		t.Fatalf("fresh sensor: %+v, %v", d, err)
	}

	clk.Advance(time.Minute) // the sensor goes quiet past the TTL
	d, err := sys.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Fatalf("stale sensor still allowed: %+v", d)
	}
	if !strings.Contains(d.Reason, "fail-safe") || !strings.Contains(d.Reason, "motion.kitchen") {
		t.Fatalf("deny not annotated with stale context: %q", d.Reason)
	}

	store.SetTTL("motion.kitchen", Bool(true), 30*time.Second) // the sensor comes back
	if d, err := sys.Decide(req); err != nil || !d.Allowed {
		t.Fatalf("refreshed sensor: %+v, %v", d, err)
	}
}
