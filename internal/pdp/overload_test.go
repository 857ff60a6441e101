package pdp

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/environment"
	"github.com/aware-home/grbac/internal/faults"
)

const checkBody = `{"subject":"alice","object":"tv","transaction":"use","environment":["weekday-free-time"]}`

func postCheck(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/check", "application/json", strings.NewReader(checkBody))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func fetchStatsz(t *testing.T, url string) StatszResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAdmissionControlSheds saturates a 1-slot PDP with a slow (injected)
// mediation and checks that the overflow is shed with 429 + Retry-After
// while the admitted request completes, and that the shed/inflight gauges
// surface in /v1/statsz.
func TestAdmissionControlSheds(t *testing.T) {
	// One request gets a 300ms injected stall while holding the only
	// admission slot; the rest can only wait 10ms, so they must shed.
	faults.Activate(faults.NewPlan(1, faults.Rule{
		Point: faults.PDPDecide, Limit: 1,
		Action: faults.Action{Delay: 300 * time.Millisecond},
	}))
	t.Cleanup(faults.Deactivate)

	srv, _ := newTestServer(t, WithMaxInflight(1, 10*time.Millisecond))

	const n = 4
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postCheck(t, srv.URL)
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
			_, _ = io.Copy(io.Discard, resp.Body)
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("429 response %d missing Retry-After", i)
			}
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("want both admitted and shed requests, got %d ok / %d shed", ok, shed)
	}

	st := fetchStatsz(t, srv.URL)
	if st.Server == nil {
		t.Fatal("statsz missing server section")
	}
	if st.Server.Shed != uint64(shed) {
		t.Errorf("statsz shed = %d, want %d", st.Server.Shed, shed)
	}
	if st.Server.InflightLimit != 1 {
		t.Errorf("statsz inflight_limit = %d, want 1", st.Server.InflightLimit)
	}
	if st.Server.InflightNow != 0 {
		t.Errorf("statsz inflight_now = %d after drain, want 0", st.Server.InflightNow)
	}
}

// TestPanicRecoveryMiddleware injects panics into the decide path and
// checks they are absorbed into 500s, counted in /v1/statsz, and that the
// server keeps serving afterwards.
func TestPanicRecoveryMiddleware(t *testing.T) {
	faults.Activate(faults.NewPlan(1, faults.Rule{
		Point: faults.PDPDecide, Limit: 2,
		Action: faults.Action{Panic: "poisoned request"},
	}))
	t.Cleanup(faults.Deactivate)

	srv, _ := newTestServer(t, WithErrorLog(log.New(io.Discard, "", 0)))

	for i := 0; i < 2; i++ {
		resp := postCheck(t, srv.URL)
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || e.Error != "internal error" {
			t.Fatalf("panicking request %d: status %d, body %+v", i, resp.StatusCode, e)
		}
	}

	// The plan's limit is exhausted: the server must still be healthy.
	resp := postCheck(t, srv.URL)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request: status %d, want 200", resp.StatusCode)
	}

	st := fetchStatsz(t, srv.URL)
	if st.Server == nil || st.Server.RecoveredPanics != 2 {
		t.Fatalf("statsz server = %+v, want 2 recovered panics", st.Server)
	}
}

// TestFailSafeDenyReachesAuditTrail wires the full degradation chain over
// HTTP: a TTL'd sensor attribute expires, the environment role fails safe
// to inactive, the PDP denies with the fail-safe reason, and the audit
// trail records that reason distinguishably.
func TestFailSafeDenyReachesAuditTrail(t *testing.T) {
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	store := environment.NewStore()
	engine := environment.NewEngine(store, environment.WithClock(clock))
	if err := engine.Define("kitchen-occupied", environment.AttrEquals{
		Key: "motion.kitchen", Value: environment.Bool(true),
	}); err != nil {
		t.Fatal(err)
	}

	sys := core.NewSystem(core.WithEnvironmentSource(engine))
	for _, err := range []error{
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
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	store.SetTTL("motion.kitchen", environment.Bool(true), 30*time.Second)

	srv := httptest.NewServer(NewServer(sys, WithAuditLogger(audit.NewLogger())))
	t.Cleanup(srv.Close)

	body := `{"subject":"alice","object":"stove","transaction":"use"}`
	decide := func() DecideResponse {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/decide", "application/json", strings.NewReader(body))
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

	if d := decide(); !d.Allowed {
		t.Fatalf("fresh sensor: %+v", d)
	}

	mu.Lock()
	now = now.Add(time.Minute) // sensor goes quiet past the TTL
	mu.Unlock()
	if d := decide(); d.Allowed || !strings.Contains(d.Reason, "fail-safe") {
		t.Fatalf("stale sensor: %+v", d)
	}

	resp, err := http.Get(srv.URL + "/v1/audit?denies=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var records []audit.Record
	if err := json.NewDecoder(resp.Body).Decode(&records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("audit denies = %d records, want 1", len(records))
	}
	for _, want := range []string{"fail-safe", "motion.kitchen"} {
		if !strings.Contains(records[0].Reason, want) {
			t.Errorf("audit deny reason %q missing %q", records[0].Reason, want)
		}
	}
}
