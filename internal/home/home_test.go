package home

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/environment"
	"github.com/aware-home/grbac/internal/event"
	"github.com/aware-home/grbac/internal/sensor"
)

var (
	monday8pm  = time.Date(2000, 1, 17, 20, 0, 0, 0, time.UTC) // Monday, free time
	monday3pm  = time.Date(2000, 1, 17, 15, 0, 0, 0, time.UTC)
	saturday   = time.Date(2000, 1, 22, 20, 0, 0, 0, time.UTC)
	repairTime = time.Date(2000, 1, 17, 10, 0, 0, 0, time.UTC)
)

func TestClock(t *testing.T) {
	bus := event.NewBus()
	var ticks int
	bus.Subscribe(func(event.Event) { ticks++ }, event.TypeClockTick)
	c := NewClock(monday8pm, bus)
	if !c.Now().Equal(monday8pm) {
		t.Fatal("initial time wrong")
	}
	c.Advance(time.Hour)
	if !c.Now().Equal(monday8pm.Add(time.Hour)) {
		t.Fatal("Advance wrong")
	}
	c.Advance(-time.Hour) // clamped to zero
	if !c.Now().Equal(monday8pm.Add(time.Hour)) {
		t.Fatal("negative Advance moved the clock")
	}
	c.Set(saturday)
	if !c.Now().Equal(saturday) {
		t.Fatal("Set wrong")
	}
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
}

func TestHouseModel(t *testing.T) {
	h := NewHouse()
	if err := h.AddRoom(""); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("AddRoom empty error = %v", err)
	}
	if err := h.AddRoom("kitchen"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRoom("kitchen"); !errors.Is(err, core.ErrExists) {
		t.Fatalf("duplicate room error = %v", err)
	}
	if err := h.AddDevice(Device{ID: "tv", Room: "den"}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("device in unknown room error = %v", err)
	}
	if err := h.AddDevice(Device{ID: "fridge", Room: "kitchen"}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddDevice(Device{ID: "fridge", Room: "kitchen"}); !errors.Is(err, core.ErrExists) {
		t.Fatalf("duplicate device error = %v", err)
	}
	if err := h.AddResident(Resident{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddResident(Resident{ID: "alice"}); !errors.Is(err, core.ErrExists) {
		t.Fatalf("duplicate resident error = %v", err)
	}
	loc, err := h.LocationOf("alice")
	if err != nil || loc != Outside {
		t.Fatalf("initial location = %v, %v", loc, err)
	}
	if h.IsOccupied() {
		t.Fatal("empty house occupied")
	}
	if err := h.MoveTo("alice", "kitchen"); err != nil {
		t.Fatal(err)
	}
	if !h.IsOccupied() {
		t.Fatal("occupied house empty")
	}
	if got := h.Occupants("kitchen"); !reflect.DeepEqual(got, []core.SubjectID{"alice"}) {
		t.Fatalf("Occupants = %v", got)
	}
	if err := h.MoveTo("ghost", "kitchen"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("move ghost error = %v", err)
	}
	if err := h.MoveTo("alice", "attic"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("move to unknown room error = %v", err)
	}
	devs := h.DevicesIn("kitchen")
	if len(devs) != 1 || devs[0].ID != "fridge" {
		t.Fatalf("DevicesIn = %v", devs)
	}
	if _, err := h.Device("ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Device(ghost) error = %v", err)
	}
}

func TestMoveUpdatesStoreAndBus(t *testing.T) {
	bus := event.NewBus()
	store := environment.NewStore()
	h := NewHouse(WithHouseStore(store), WithHouseBus(bus))
	var moved []string
	bus.Subscribe(func(e event.Event) {
		moved = append(moved, e.Attrs["person"]+":"+e.Attrs["from"]+">"+e.Attrs["to"])
	}, event.TypeLocationChanged)
	if err := h.AddRoom("kitchen"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddResident(Resident{ID: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := h.MoveTo("alice", "kitchen"); err != nil {
		t.Fatal(err)
	}
	if err := h.MoveTo("alice", "kitchen"); err != nil { // no-op move
		t.Fatal(err)
	}
	if len(moved) != 1 || moved[0] != "alice:outside>kitchen" {
		t.Fatalf("events = %v", moved)
	}
	v, ok := store.Get("location.alice")
	if !ok || v.Str != "kitchen" {
		t.Fatalf("store location = %v, %v", v, ok)
	}
	occ, ok := store.Get("home.occupied")
	if !ok || !occ.Bool {
		t.Fatalf("home.occupied = %v, %v", occ, ok)
	}
	if err := h.MoveTo("alice", Outside); err != nil {
		t.Fatal(err)
	}
	occ, _ = store.Get("home.occupied")
	if occ.Bool {
		t.Fatal("home.occupied still true after everyone left")
	}
}

func newHH(t *testing.T, start time.Time) *Household {
	t.Helper()
	hh, err := NewHousehold(start)
	if err != nil {
		t.Fatalf("NewHousehold: %v", err)
	}
	return hh
}

// TestSection51EndToEnd drives the paper's §5.1 scenario on the full stack.
func TestSection51EndToEnd(t *testing.T) {
	hh := newHH(t, monday8pm)
	tests := []struct {
		name    string
		at      time.Time
		subject core.SubjectID
		object  core.ObjectID
		tx      core.TransactionID
		want    bool
	}{
		{"alice tv monday 8pm", monday8pm, "alice", "tv", "use", true},
		{"bobby console monday 8pm", monday8pm, "bobby", "game-console", "use", true},
		{"alice tv monday 3pm", monday3pm, "alice", "tv", "use", false},
		{"alice tv saturday 8pm", saturday, "alice", "tv", "use", false},
		{"alice oven denied", monday8pm, "alice", "oven", "use", false},
		{"mom oven allowed", monday8pm, "mom", "oven", "use", true},
		{"alice g movie", monday3pm, "alice", "movie-g", "view", true},
		{"alice pg movie", monday3pm, "alice", "movie-pg", "view", true},
		{"alice r movie denied", monday3pm, "alice", "movie-r", "view", false},
		{"dad r movie", monday3pm, "dad", "movie-r", "view", true},
		{"bobby medical records denied", monday3pm, "bobby", "family-medical-records", "read", false},
		{"mom medical records", monday3pm, "mom", "family-medical-records", "read", true},
		{"alice inventory", monday3pm, "alice", "pantry-inventory", "read", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			hh.Clock.Set(tt.at)
			d, err := hh.Decide(tt.subject, tt.object, tt.tx)
			if err != nil {
				t.Fatalf("Decide: %v", err)
			}
			if d.Allowed != tt.want {
				t.Fatalf("allowed = %v, want %v\n%s", d.Allowed, tt.want, d.Explain())
			}
		})
	}
}

// TestRepairmanScenario reproduces §3's repairman policy end to end:
// access only on 2000-01-17 between 08:00 and 13:00, and only while
// physically in the kitchen.
func TestRepairmanScenario(t *testing.T) {
	hh := newHH(t, repairTime)
	decide := func() bool {
		t.Helper()
		d, err := hh.Decide("repair-tech", "dishwasher", "repair")
		if err != nil {
			t.Fatal(err)
		}
		return d.Allowed
	}
	// In the window but still outside the house: denied.
	if decide() {
		t.Fatal("repairman granted while outside the house")
	}
	// Inside the kitchen during the window: granted.
	if err := hh.House.MoveTo("repair-tech", "kitchen"); err != nil {
		t.Fatal(err)
	}
	if !decide() {
		t.Fatal("repairman denied inside the window")
	}
	// The repairman cannot touch non-kitchen appliances or media.
	d, err := hh.Decide("repair-tech", "tv", "use")
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Fatal("repairman granted on the TV")
	}
	// After 13:00: denied even in the kitchen.
	hh.Clock.Set(time.Date(2000, 1, 17, 13, 30, 0, 0, time.UTC))
	if decide() {
		t.Fatal("repairman granted after the window")
	}
	// A day later: denied.
	hh.Clock.Set(time.Date(2000, 1, 18, 10, 0, 0, 0, time.UTC))
	if decide() {
		t.Fatal("repairman granted the next day")
	}
}

// TestVideophoneKitchenRule reproduces §4.2.2's location rule.
func TestVideophoneKitchenRule(t *testing.T) {
	hh := newHH(t, monday3pm)
	if err := hh.House.MoveTo("bobby", "den"); err != nil {
		t.Fatal(err)
	}
	d, err := hh.Decide("bobby", "videophone", "use")
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Fatal("bobby used the videophone from the den")
	}
	if err := hh.House.MoveTo("bobby", "kitchen"); err != nil {
		t.Fatal(err)
	}
	d, err = hh.Decide("bobby", "videophone", "use")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatal("bobby denied the videophone in the kitchen")
	}
}

// TestSmartFloorCameraScenario reproduces §5.2's strong/weak outcome with
// the live sensor pipeline: a weak voice identification lets mom see a
// still image but not the stream; adding face recognition unlocks the
// stream.
func TestSmartFloorCameraScenario(t *testing.T) {
	hh := newHH(t, monday3pm)
	// Voice only: 0.70.
	if err := hh.Auth.Record(
		// Observations produced by the voice recognizer.
		mustObs(t, "voice-recognition", "mom", 0.70, hh.Clock.Now()),
	); err != nil {
		t.Fatal(err)
	}
	d, err := hh.DecideWithCredentials("mom", "nursery-camera", "view-stream")
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Fatal("0.70 evidence streamed video")
	}
	d, err = hh.DecideWithCredentials("mom", "nursery-camera", "view-still")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatal("0.70 evidence denied a still image")
	}
	// Face (0.90) + voice (0.70) fuse to 0.97: stream unlocked.
	if err := hh.Auth.Record(
		mustObs(t, "face-recognition", "mom", 0.90, hh.Clock.Now()),
	); err != nil {
		t.Fatal(err)
	}
	d, err = hh.DecideWithCredentials("mom", "nursery-camera", "view-stream")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatalf("fused evidence denied the stream:\n%s", d.Explain())
	}
}

// TestAliceSmartFloorTV reproduces §5.2's headline: the floor senses 94
// pounds at 7:30pm Monday; Alice's identity confidence (0.75) fails the
// stream-grade rules but the Child role confidence (0.98) satisfies the
// entertainment rule.
func TestAliceSmartFloorTV(t *testing.T) {
	at := time.Date(2000, 1, 17, 19, 30, 0, 0, time.UTC)
	hh := newHH(t, at)
	if err := hh.Auth.Record(hh.Floor.Sense(94, at)...); err != nil {
		t.Fatal(err)
	}
	// Raise the system threshold to the paper's 90%.
	if err := hh.System.SetMinConfidence(0.90); err != nil {
		t.Fatal(err)
	}
	d, err := hh.DecideWithCredentials("alice", "tv", "use")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatalf("alice denied the TV:\n%s", d.Explain())
	}
	// The matching permission must have been satisfied at child-role
	// confidence, not identity confidence.
	if len(d.Matches) == 0 || d.Matches[0].Confidence < 0.90 {
		t.Fatalf("matches = %+v", d.Matches)
	}
}

func mustObs(t *testing.T, sensorName string, sub core.SubjectID, conf float64, at time.Time) sensor.Observation {
	t.Helper()
	return sensor.Observation{Sensor: sensorName, Subject: sub, Confidence: conf, Time: at}
}

func TestTrustedLogRecordsActivity(t *testing.T) {
	hh := newHH(t, monday8pm)
	before := hh.Log.Len()
	if err := hh.House.MoveTo("alice", "kitchen"); err != nil {
		t.Fatal(err)
	}
	hh.Clock.Advance(time.Minute)
	if hh.Log.Len() <= before {
		t.Fatal("activity not logged")
	}
	if err := hh.Log.Verify(); err != nil {
		t.Fatalf("log verification failed: %v", err)
	}
}

// TestHouseholdLogStampsSimulatedTime: the household's one clock stamps
// its tamper-evident log, and a step of it fires the timers armed on it.
func TestHouseholdLogStampsSimulatedTime(t *testing.T) {
	start := time.Date(2000, 1, 17, 8, 0, 0, 0, time.UTC)
	hh := newHH(t, start)
	var firedAt time.Time
	hh.Clock.AfterFunc(time.Hour, func() { firedAt = hh.Clock.Now() })
	if err := hh.House.MoveTo("alice", "kitchen"); err != nil {
		t.Fatal(err)
	}
	hh.Clock.Advance(3 * time.Hour)
	if !firedAt.Equal(start.Add(time.Hour)) {
		t.Fatalf("timer fired at %v, want %v", firedAt, start.Add(time.Hour))
	}
	entries := hh.Log.Entries()
	var activated int
	for _, e := range entries {
		if e.Event.Time.Before(start) || e.Event.Time.After(start.Add(3*time.Hour)) {
			t.Fatalf("%s logged at %v, outside the simulated %v..+3h", e.Event.Type, e.Event.Time, start)
		}
		if e.Event.Type == event.TypeRoleActivated {
			activated++
		}
	}
	if activated == 0 {
		t.Fatalf("no role.activated among %d log entries", len(entries))
	}
	if err := hh.Log.Verify(); err != nil {
		t.Fatalf("log verification failed: %v", err)
	}
}

func TestHouseholdDevicesMatchPolicyObjects(t *testing.T) {
	// Guard against drift between standardDevices and DefaultPolicy.
	hh := newHH(t, monday8pm)
	for _, d := range hh.House.Devices() {
		if !hh.System.HasObject(d.ID) {
			t.Errorf("device %q missing from policy objects", d.ID)
		}
		roles, err := hh.System.ObjectRoles(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]core.RoleID(nil), d.Roles...)
		if !reflect.DeepEqual(roles, sortedCopy(want)) {
			t.Errorf("device %q roles: house %v, policy %v", d.ID, want, roles)
		}
	}
	for _, r := range hh.House.Residents() {
		if !hh.System.HasSubject(r.ID) {
			t.Errorf("resident %q missing from policy subjects", r.ID)
		}
	}
}

func sortedCopy(in []core.RoleID) []core.RoleID {
	out := append([]core.RoleID(nil), in...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestHouseholdAuditsDecisions(t *testing.T) {
	hh := newHH(t, monday8pm)
	if _, err := hh.Decide("alice", "tv", "use"); err != nil {
		t.Fatal(err)
	}
	if _, err := hh.Decide("alice", "oven", "use"); err != nil {
		t.Fatal(err)
	}
	stats := hh.Audit.Stats()
	if stats.Total != 2 || stats.Permits != 1 || stats.Denies != 1 {
		t.Fatalf("audit stats = %+v", stats)
	}
	recs := hh.Audit.Records()
	if !recs[0].Time.Equal(monday8pm) {
		t.Fatalf("audit timestamp = %v, want simulation time %v", recs[0].Time, monday8pm)
	}
}

func TestWorkloadGenerationAndReplay(t *testing.T) {
	hh := newHH(t, monday3pm)
	rng := rand.New(rand.NewSource(42))
	events := GenerateWorkload(rng, hh, monday3pm, 200)
	if len(events) != 200 {
		t.Fatalf("events = %d", len(events))
	}
	stats, err := hh.Replay(events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if stats.Events != 200 {
		t.Fatalf("stats = %+v", stats)
	}
	// A realistic mix: some permits, some denies.
	if stats.Permits == 0 || stats.Denies == 0 {
		t.Fatalf("degenerate workload: %+v", stats)
	}
	if stats.Moves == 0 {
		t.Fatalf("no movement in workload: %+v", stats)
	}
	// Deterministic for a fixed seed.
	again := GenerateWorkload(rand.New(rand.NewSource(42)), hh, monday3pm, 200)
	if !reflect.DeepEqual(events, again) {
		t.Fatal("workload not deterministic for fixed seed")
	}
	if stats.String() == "" {
		t.Fatal("empty stats string")
	}
}
