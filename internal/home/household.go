package home

import (
	"fmt"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/environment"
	"github.com/aware-home/grbac/internal/event"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/sensor"
)

// DefaultPolicy is the complete Aware Home policy of the paper's §3 and §5
// examples, written in the policy language:
//
//   - Figure 2's subject role hierarchy and household;
//   - §5.1: children use entertainment devices on weekdays in free time;
//   - §3: family members use appliances, children denied dangerous ones;
//   - §3: children view only G/PG media, parents anything;
//   - §3/§5.2: camera streaming needs 90% confidence, stills 60%;
//   - §3: the repairman's time-boxed, location-gated dishwasher access on
//     January 17, 2000;
//   - §4.2.2: children use the videophone only while in the kitchen.
const DefaultPolicy = `
# --- Figure 2 subject role hierarchy -------------------------------------
subject role home-user;
subject role family-member extends home-user;
subject role authorized-guest extends home-user;
subject role parent extends family-member;
subject role child extends family-member;
subject role service-agent extends authorized-guest;
subject role dishwasher-repair-tech extends service-agent;

# --- Object roles ----------------------------------------------------------
object role entertainment-devices;
object role appliances;
object role dangerous-appliances extends appliances;
object role kitchen-appliances extends appliances;
object role media;
object role media-g extends media;
object role media-pg extends media;
object role media-r extends media;
object role cameras;
object role medical-records;
object role inventory;
object role videophones;

# --- Environment roles -----------------------------------------------------
env role weekdays when time "weekly mon-fri";
env role free-time when time "daily 19:00-22:00";
env role weekday-free-time extends weekdays, free-time
    when all(time "weekly mon-fri", time "daily 19:00-22:00");
env role night when time "daily 22:00-06:00";
env role home-occupied when attr home.occupied == true;
env role in-kitchen when subject-attr location == "kitchen";
env role repair-visit when all(
    time "between 2000-01-17T08:00:00Z and 2000-01-17T13:00:00Z",
    subject-attr location == "kitchen");

# --- Household -------------------------------------------------------------
subject mom is parent;
subject dad is parent;
subject alice is child;
subject bobby is child;
subject repair-tech is dishwasher-repair-tech;

# --- Devices and information objects --------------------------------------
object tv is entertainment-devices;
object vcr is entertainment-devices;
object stereo is entertainment-devices;
object game-console is entertainment-devices;
object oven is dangerous-appliances, kitchen-appliances;
object dishwasher is kitchen-appliances;
object fridge is kitchen-appliances;
object videophone is videophones;
object nursery-camera is cameras;
object movie-g is media-g;
object movie-pg is media-pg;
object movie-r is media-r;
object family-medical-records is medical-records;
object pantry-inventory is inventory;

# --- Transactions ----------------------------------------------------------
transaction use;
transaction view;
transaction view-stream;
transaction view-still;
transaction read;
transaction repair;

# --- Rules -----------------------------------------------------------------
# 5.1: "any child can use entertainment devices on weekdays during free time"
grant child use entertainment-devices when weekday-free-time;

# 3: adults use all appliances; children are denied dangerous appliances
grant family-member use appliances;
deny child use dangerous-appliances;

# 3: children view only G- and PG-rated media; parents view anything
grant child view media-g;
grant child view media-pg;
grant parent view media;

# 3/5.2: strong auth streams video, weak auth sees a still image
grant parent view-stream cameras with confidence >= 0.9;
grant parent view-still cameras with confidence >= 0.6;

# household information
grant family-member read inventory;
grant parent read medical-records;

# 3: the repairman's January 17, 2000 window, inside the kitchen only
grant dishwasher-repair-tech repair kitchen-appliances when repair-visit;

# 4.2.2: "children may only use the videophone while they are in the kitchen"
grant child use videophones when in-kitchen;
`

// Household is a fully wired Aware Home: trusted bus and log, simulated
// clock, environment store and engine, physical house, sensors, and the
// GRBAC system running DefaultPolicy. It is the shared substrate for the
// examples, the integration tests, and every benchmark workload.
type Household struct {
	Bus    *event.Bus
	Log    *event.Log
	Clock  *Clock
	Store  *environment.Store
	Engine *environment.Engine
	House  *House
	System *core.System
	Auth   *sensor.Authenticator
	Floor  *sensor.SmartFloor
	// Audit records every decision made through Decide and
	// DecideWithCredentials, timestamped with the simulation clock.
	Audit *audit.Logger
}

// Rooms of the standard house.
var standardRooms = []Room{"kitchen", "den", "living-room", "master-bedroom", "nursery", "garage"}

// standardResidents mirrors the paper's household. Weights feed the Smart
// Floor; Alice's 94 pounds is straight from §5.2.
var standardResidents = []Resident{
	{ID: "mom", Roles: []core.RoleID{"parent"}, Pounds: 135},
	{ID: "dad", Roles: []core.RoleID{"parent"}, Pounds: 180},
	{ID: "alice", Roles: []core.RoleID{"child"}, Pounds: 94},
	{ID: "bobby", Roles: []core.RoleID{"child"}, Pounds: 60},
	{ID: "repair-tech", Roles: []core.RoleID{"dishwasher-repair-tech"}, Pounds: 170},
}

// standardDevices places the policy's objects in rooms and lists the
// operations each affords.
var standardDevices = []Device{
	{ID: "tv", Room: "living-room", Roles: []core.RoleID{"entertainment-devices"}, Transactions: []core.TransactionID{"use"}},
	{ID: "vcr", Room: "living-room", Roles: []core.RoleID{"entertainment-devices"}, Transactions: []core.TransactionID{"use"}},
	{ID: "stereo", Room: "den", Roles: []core.RoleID{"entertainment-devices"}, Transactions: []core.TransactionID{"use"}},
	{ID: "game-console", Room: "den", Roles: []core.RoleID{"entertainment-devices"}, Transactions: []core.TransactionID{"use"}},
	{ID: "oven", Room: "kitchen", Roles: []core.RoleID{"dangerous-appliances", "kitchen-appliances"}, Transactions: []core.TransactionID{"use", "repair"}},
	{ID: "dishwasher", Room: "kitchen", Roles: []core.RoleID{"kitchen-appliances"}, Transactions: []core.TransactionID{"use", "repair"}},
	{ID: "fridge", Room: "kitchen", Roles: []core.RoleID{"kitchen-appliances"}, Transactions: []core.TransactionID{"use"}},
	{ID: "videophone", Room: "kitchen", Roles: []core.RoleID{"videophones"}, Transactions: []core.TransactionID{"use"}},
	{ID: "nursery-camera", Room: "nursery", Roles: []core.RoleID{"cameras"}, Transactions: []core.TransactionID{"view-stream", "view-still"}},
	{ID: "movie-g", Room: "living-room", Roles: []core.RoleID{"media-g"}, Transactions: []core.TransactionID{"view"}},
	{ID: "movie-pg", Room: "living-room", Roles: []core.RoleID{"media-pg"}, Transactions: []core.TransactionID{"view"}},
	{ID: "movie-r", Room: "living-room", Roles: []core.RoleID{"media-r"}, Transactions: []core.TransactionID{"view"}},
	{ID: "family-medical-records", Room: "den", Roles: []core.RoleID{"medical-records"}, Transactions: []core.TransactionID{"read"}},
	{ID: "pantry-inventory", Room: "kitchen", Roles: []core.RoleID{"inventory"}, Transactions: []core.TransactionID{"read"}},
}

// NewHousehold assembles the standard Aware Home, with the simulation
// clock starting at the given instant.
func NewHousehold(start time.Time) (*Household, error) {
	log, err := event.NewLog([]byte("aware-home-log-key"))
	if err != nil {
		return nil, err
	}
	// One simulated clock stamps the log, drives the engine and the
	// System, and times the audit trail.
	fake := clock.NewFake(start)
	bus := event.NewBus(event.WithLog(log), event.WithClock(fake))
	clk := &Clock{Fake: fake, bus: bus}
	store := environment.NewStore(environment.WithStoreBus(bus))
	engine := environment.NewEngine(store,
		environment.WithClock(clk),
		environment.WithBus(bus))
	house := NewHouse(WithHouseStore(store), WithHouseBus(bus))
	auth := sensor.NewAuthenticator(sensor.WithAuthBus(bus))

	sys := core.NewSystem(
		core.WithClock(clk),
		core.WithEnvironmentSource(engine),
	)
	compiled, err := policy.Compile(DefaultPolicy)
	if err != nil {
		return nil, fmt.Errorf("home: default policy: %w", err)
	}
	if err := compiled.Apply(sys, engine); err != nil {
		return nil, fmt.Errorf("home: default policy: %w", err)
	}

	for _, r := range standardRooms {
		if err := house.AddRoom(r); err != nil {
			return nil, err
		}
	}
	for _, res := range standardResidents {
		if err := house.AddResident(res); err != nil {
			return nil, err
		}
	}
	for _, d := range standardDevices {
		if err := house.AddDevice(d); err != nil {
			return nil, err
		}
	}

	var weights []sensor.WeightEntry
	for _, res := range standardResidents {
		weights = append(weights, sensor.WeightEntry{Subject: res.ID, Pounds: res.Pounds})
	}
	floor := sensor.NewSmartFloor(weights, []sensor.WeightRange{
		{Role: "child", Min: 40, Max: 148},
		{Role: "parent", Min: 120, Max: 250},
	})

	return &Household{
		Bus:    bus,
		Log:    log,
		Clock:  clk,
		Store:  store,
		Engine: engine,
		House:  house,
		System: sys,
		Auth:   auth,
		Floor:  floor,
		Audit:  audit.NewLogger(audit.WithClock(clk)),
	}, nil
}

// Decide mediates one request at the current simulated time, evaluating
// subject-relative environment roles for the requesting subject, and
// records the outcome in the audit trail.
func (hh *Household) Decide(subject core.SubjectID, object core.ObjectID, tx core.TransactionID) (core.Decision, error) {
	req := core.Request{
		Subject:     subject,
		Object:      object,
		Transaction: tx,
		Environment: hh.Engine.ActiveRolesAt(hh.Clock.Now(), subject),
	}
	d, err := hh.System.Decide(req)
	if err != nil {
		return d, err
	}
	hh.Audit.Log(req, d)
	return d, nil
}

// DecideWithCredentials mediates a sensor-authenticated request: the
// authenticator's fused credentials accompany the request, so per-rule
// confidence thresholds apply. The outcome is audited.
func (hh *Household) DecideWithCredentials(subject core.SubjectID, object core.ObjectID, tx core.TransactionID) (core.Decision, error) {
	now := hh.Clock.Now()
	req := core.Request{
		Subject:     subject,
		Object:      object,
		Transaction: tx,
		Credentials: hh.Auth.Credentials(now),
		Environment: hh.Engine.ActiveRolesAt(now, subject),
	}
	d, err := hh.System.Decide(req)
	if err != nil {
		return d, err
	}
	hh.Audit.Log(req, d)
	return d, nil
}
