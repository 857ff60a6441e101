package pdp

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/environment"
	"github.com/aware-home/grbac/internal/event"
	"github.com/aware-home/grbac/internal/faults"
	"github.com/aware-home/grbac/internal/replica"
)

// TestChaosPrimaryFollowerUnderFaults is the capstone chaos drill: a
// primary PDP (sensor-fed environment, tamper-evident event log, audit
// trail, admission control) and a live follower, both run under an armed
// fault plan — slow and panicking decision handlers, dropped replication
// polls, a crashing bus subscriber, a stalled sensor feed — while a
// request flood hits the primary. The invariants checked are the PR's
// robustness contract:
//
//   - overload sheds with 429 + Retry-After, and some requests still land;
//   - no panic escapes: handlers answer 500, the bus recovers, the HMAC
//     chain still verifies;
//   - expired environment context fails safe to deny, with the reason in
//     the audit trail;
//   - the follower rides out dropped polls and converges on the primary;
//   - the gauges (shed, recovered panics) surface in /v1/statsz;
//   - after teardown no goroutines are leaked.
func TestChaosPrimaryFollowerUnderFaults(t *testing.T) {
	baseline := runtime.NumGoroutine()
	quiet := log.New(io.Discard, "", 0)

	plan := faults.NewPlan(42,
		// Half the admitted decisions stall 30ms while holding one of the
		// two admission slots — that is what drives the shedding.
		faults.Rule{Point: faults.PDPDecide, Prob: 0.5,
			Action: faults.Action{Delay: 30 * time.Millisecond}},
		// Every 5th admitted decision panics, twice.
		faults.Rule{Point: faults.PDPDecide, Every: 5, Limit: 2,
			Action: faults.Action{Panic: "chaos drill"}},
		// The first five replication polls are dropped on the floor.
		faults.Rule{Point: faults.ReplicaWatch, Limit: 5,
			Action: faults.Action{Err: errors.New("injected partition")}},
		// The sensor feed is slightly stalled.
		faults.Rule{Point: faults.EnvironmentSet,
			Action: faults.Action{Delay: time.Millisecond}},
	)
	faults.Activate(plan)
	t.Cleanup(faults.Deactivate)

	// --- primary: sensors → TTL'd store → engine → system, with a
	// tamper-evident bus log and a subscriber that always crashes.
	clk := clock.NewFake(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC))
	hmacLog, err := event.NewLog([]byte("chaos-drill-key"))
	if err != nil {
		t.Fatal(err)
	}
	bus := event.NewBus(event.WithLog(hmacLog))
	bus.Subscribe(func(event.Event) { panic("crashing subscriber") }, event.TypeStateChanged)

	store := environment.NewStore(environment.WithStoreBus(bus))
	engine := environment.NewEngine(store, environment.WithClock(clk), environment.WithBus(bus))
	if err := engine.Define("kitchen-occupied", environment.AttrEquals{
		Key: "motion.kitchen", Value: environment.Bool(true),
	}); err != nil {
		t.Fatal(err)
	}

	primarySys := core.NewSystem(core.WithEnvironmentSource(engine))
	for _, err := range []error{
		primarySys.AddRole(core.Role{ID: "resident", Kind: core.SubjectRole}),
		primarySys.AddRole(core.Role{ID: "appliance", Kind: core.ObjectRole}),
		primarySys.AddRole(core.Role{ID: "kitchen-occupied", Kind: core.EnvironmentRole}),
		primarySys.AddSubject("alice"),
		primarySys.AssignSubjectRole("alice", "resident"),
		primarySys.AddObject("stove"),
		primarySys.AssignObjectRole("stove", "appliance"),
		primarySys.AddTransaction(core.SimpleTransaction("use")),
		primarySys.Grant(core.Permission{
			Subject: "resident", Object: "appliance",
			Environment: "kitchen-occupied", Transaction: "use", Effect: core.Permit,
		}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	store.SetTTL("motion.kitchen", environment.Bool(true), 30*time.Second)

	primarySrv := httptest.NewServer(NewServer(primarySys,
		WithAuditLogger(audit.NewLogger()),
		WithMaxInflight(2, 20*time.Millisecond),
		WithReplicaSource(replica.NewSource(primarySys)),
		WithErrorLog(quiet),
	))

	// --- follower: replicates the primary through the faulty transport.
	followerSys := core.NewSystem()
	follower := replica.NewPuller(followerSys, primarySrv.URL,
		replica.WithBackoff(time.Millisecond, 10*time.Millisecond),
		replica.WithMaxStaleness(5*time.Second),
		replica.WithFollowerLogger(quiet),
	)
	followerCtx, stopFollower := context.WithCancel(context.Background())
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		_ = follower.Run(followerCtx)
	}()
	followerSrv := httptest.NewServer(NewServer(followerSys, WithFollower(follower)))

	body := `{"subject":"alice","object":"stove","transaction":"use"}`

	// --- phase 1: flood the primary past its admission capacity.
	const flood = 40
	codes := make([]int, flood)
	retryAfter := make([]string, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(primarySrv.URL+"/v1/check", "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Errorf("flood request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
			_, _ = io.Copy(io.Discard, resp.Body)
		}(i)
	}
	wg.Wait()

	var ok, shed, failed int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("shed request %d missing Retry-After", i)
			}
		case http.StatusInternalServerError:
			failed++ // injected panic or error, recovered into a 500
		default:
			t.Errorf("flood request %d: unexpected status %d", i, c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("flood: %d ok / %d shed / %d failed — want both admitted and shed", ok, shed, failed)
	}

	// --- phase 2: enough sequential traffic to walk the hit counter past
	// both scheduled panics (every 5th admitted decision, limit 2); the
	// server must keep answering throughout.
	for i := 0; i < 12; i++ {
		resp, err := http.Post(primarySrv.URL+"/v1/check", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("sequential request %d: status %d", i, resp.StatusCode)
		}
	}

	// --- phase 3: crashing bus subscriber. Sensor updates keep flowing
	// (each one panics the subscriber), the bus recovers every time, and
	// the tamper-evident log still verifies.
	for i := 0; i < 3; i++ {
		store.SetTTL("motion.kitchen", environment.Bool(i%2 == 0), 30*time.Second)
	}
	if got := bus.RecoveredPanics(); got == 0 {
		t.Error("bus recovered no subscriber panics")
	}
	if err := hmacLog.Verify(); err != nil {
		t.Errorf("HMAC chain broken after subscriber panics: %v", err)
	}

	// --- phase 4: the sensor feed goes quiet past the TTL; decisions must
	// fail safe to deny and the audit trail must say why.
	decide := func() DecideResponse {
		t.Helper()
		resp, err := http.Post(primarySrv.URL+"/v1/decide", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var d DecideResponse
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	store.SetTTL("motion.kitchen", environment.Bool(true), 30*time.Second)
	if d := decide(); !d.Allowed {
		t.Fatalf("fresh context decision: %+v", d)
	}
	clk.Advance(time.Minute)
	if d := decide(); d.Allowed || !strings.Contains(d.Reason, "fail-safe") {
		t.Fatalf("stale context decision: %+v", d)
	}
	auditResp, err := http.Get(primarySrv.URL + "/v1/audit?denies=true")
	if err != nil {
		t.Fatal(err)
	}
	var records []audit.Record
	if err := json.NewDecoder(auditResp.Body).Decode(&records); err != nil {
		t.Fatal(err)
	}
	auditResp.Body.Close()
	foundFailSafe := false
	for _, rec := range records {
		if strings.Contains(rec.Reason, "fail-safe") && strings.Contains(rec.Reason, "motion.kitchen") {
			foundFailSafe = true
		}
	}
	if !foundFailSafe {
		t.Errorf("no fail-safe deny in the audit trail (%d deny records)", len(records))
	}

	// --- phase 5: the follower must have ridden out the dropped polls and
	// converged; a primary mutation must still propagate.
	if err := primarySys.AddSubject("grandma"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if has := func() bool {
			for _, s := range followerSys.Subjects() {
				if s == "grandma" {
					return true
				}
			}
			return false
		}(); has {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged (stats %+v)", follower.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if plan.Fired(faults.ReplicaWatch) == 0 {
		t.Error("no replication polls were dropped — fault plan not exercised")
	}

	// --- phase 6: gauges surface in statsz.
	st := fetchStatsz(t, primarySrv.URL)
	if st.Server == nil {
		t.Fatal("statsz missing server section")
	}
	if st.Server.Shed == 0 || st.Server.RecoveredPanics == 0 {
		t.Errorf("statsz server gauges = %+v, want shed > 0 and recovered_panics > 0", st.Server)
	}
	if st.Server.InflightNow != 0 {
		t.Errorf("statsz inflight_now = %d after drain", st.Server.InflightNow)
	}

	// --- teardown: everything shuts down and no goroutines leak.
	faults.Deactivate()
	stopFollower()
	<-followerDone
	followerSrv.Close()
	primarySrv.Close()

	deadline = time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d at teardown, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("chaos summary: %s; flood %d ok / %d shed / %d failed; follower %+v",
		plan.Summary(), ok, shed, failed, follower.Stats())
}
