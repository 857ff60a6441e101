package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/core"
)

func testSystem(t *testing.T) *core.System {
	t.Helper()
	s := core.NewSystem()
	for _, r := range []core.Role{
		{ID: "child", Kind: core.SubjectRole},
		{ID: "toys", Kind: core.ObjectRole},
	} {
		if err := s.AddRole(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddSubject("alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignSubjectRole("alice", "child"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddObject("ball"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignObjectRole("ball", "toys"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransaction(core.SimpleTransaction("use")); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant(core.Permission{
		Subject: "child", Object: "toys", Environment: core.AnyEnvironment,
		Transaction: "use", Effect: core.Permit,
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

var auditTime = time.Date(2000, 1, 17, 12, 0, 0, 0, time.UTC)

func TestWrapLogsDecisions(t *testing.T) {
	sys := testSystem(t)
	logger := NewLogger(WithClock(clock.NewFake(auditTime)))
	audited := Wrap(sys, logger)

	d, err := audited.Decide(core.Request{Subject: "alice", Object: "ball",
		Transaction: "use", Environment: []core.RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatal("decision wrong")
	}
	// A denied request is logged too.
	if _, err := audited.Decide(core.Request{Subject: "alice", Object: "ball",
		Transaction: "use", Credentials: core.CredentialSet{
			core.IdentityCredential("alice", 0, "none"),
		}, Environment: []core.RoleID{}}); err != nil {
		t.Fatal(err)
	}
	// An erroring request is not logged.
	if _, err := audited.Decide(core.Request{Subject: "ghost", Object: "ball",
		Transaction: "use", Environment: []core.RoleID{}}); err == nil {
		t.Fatal("expected error for ghost subject")
	}

	recs := logger.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("sequence numbers = %d, %d", recs[0].Seq, recs[1].Seq)
	}
	if !recs[0].Allowed || recs[1].Allowed {
		t.Fatalf("outcomes = %v, %v", recs[0].Allowed, recs[1].Allowed)
	}
	if !recs[0].Time.Equal(auditTime) {
		t.Fatalf("record time = %v", recs[0].Time)
	}
	if recs[0].MatchedRules != 1 || recs[0].Strategy != "deny-overrides" {
		t.Fatalf("record detail = %+v", recs[0])
	}
	// A record logged outside a request carries none of the serving
	// tier's fields, so its JSON line is the one decision logs have
	// always held.
	line, err := recs[1].AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"seq":2,"time":"2000-01-17T12:00:00Z","subject":"alice","object":"ball","transaction":"use","allowed":false,"effect":"deny","default_deny":true,"strategy":"deny-overrides","reason":"no permission matches transaction \"use\" on object \"ball\": default deny","matched_rules":0}`
	if string(line) != want {
		t.Fatalf("wrapped record JSON:\n got %s\nwant %s", line, want)
	}
}

// decideOnly hides core.System's DecideBatch so the wrapper's per-item
// fallback path is exercised.
type decideOnly struct{ sys *core.System }

func (d decideOnly) Decide(req core.Request) (core.Decision, error) { return d.sys.Decide(req) }

func TestBatchAuditing(t *testing.T) {
	reqs := []core.Request{
		{Subject: "alice", Object: "ball", Transaction: "use", Environment: []core.RoleID{}},
		{Subject: "alice", Object: "ball", Transaction: "juggle", Environment: []core.RoleID{}},
	}
	check := func(t *testing.T, audited *AuditedSystem, logger *Logger) {
		t.Helper()
		results := audited.DecideBatch(reqs)
		if len(results) != 2 {
			t.Fatalf("results = %d, want 2", len(results))
		}
		if results[0].Err != nil || !results[0].Decision.Allowed {
			t.Fatalf("first item = %+v", results[0])
		}
		if results[1].Err == nil {
			t.Fatal("unknown transaction did not error")
		}
		// Only the mediated item reaches the trail.
		if got := logger.Len(); got != 1 {
			t.Fatalf("audit records = %d, want 1", got)
		}
	}
	t.Run("batch-capable inner", func(t *testing.T) {
		logger := NewLogger()
		check(t, Wrap(testSystem(t), logger), logger)
	})
	t.Run("fallback inner", func(t *testing.T) {
		logger := NewLogger()
		check(t, Wrap(decideOnly{testSystem(t)}, logger), logger)
	})
}

func TestQueryAndStats(t *testing.T) {
	sys := testSystem(t)
	logger := NewLogger()
	audited := Wrap(sys, logger)
	// 3 permits for alice, 2 denies (zero-confidence credentials).
	for i := 0; i < 3; i++ {
		if _, err := audited.Decide(core.Request{Subject: "alice", Object: "ball",
			Transaction: "use", Environment: []core.RoleID{}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := audited.Decide(core.Request{Subject: "alice", Object: "ball",
			Transaction: "use",
			Credentials: core.CredentialSet{core.IdentityCredential("alice", 0, "x")},
			Environment: []core.RoleID{}}); err != nil {
			t.Fatal(err)
		}
	}

	if got := len(logger.Query(Filter{DeniesOnly: true})); got != 2 {
		t.Fatalf("denies = %d, want 2", got)
	}
	if got := len(logger.Query(Filter{Subject: "alice"})); got != 5 {
		t.Fatalf("alice records = %d, want 5", got)
	}
	if got := len(logger.Query(Filter{Subject: "bobby"})); got != 0 {
		t.Fatalf("bobby records = %d, want 0", got)
	}
	if got := len(logger.Query(Filter{Object: "ball", Transaction: "use"})); got != 5 {
		t.Fatalf("object records = %d, want 5", got)
	}
	if got := len(logger.Query(Filter{Transaction: "read"})); got != 0 {
		t.Fatalf("read records = %d, want 0", got)
	}

	stats := logger.Stats()
	if stats.Total != 5 || stats.Permits != 3 || stats.Denies != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.PerSubject["alice"] != 5 || stats.DeniedBySubj["alice"] != 2 {
		t.Fatalf("per-subject stats = %+v", stats)
	}
	if stats.DefaultDeny != 2 {
		t.Fatalf("default-deny count = %d, want 2", stats.DefaultDeny)
	}
}

// TestQueryWalksRingInPlace pins that a query copies only its matches:
// a one-match query on a full ring allocates one record, not the ring,
// and a limit keeps the newest matches, oldest first.
func TestQueryWalksRingInPlace(t *testing.T) {
	logger := NewLogger()
	req := core.Request{Subject: "alice", Object: "ball", Transaction: "use"}
	d := core.Decision{Allowed: true, Reason: "granted"}
	for i := 0; i < logger.Capacity(); i++ {
		logger.LogWith(req, d, fmt.Sprintf("c%d", i))
	}
	var before, after runtime.MemStats
	const runs = 20
	var got []Record
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		got = logger.Query(Filter{CorrelationID: "c4242"})
	}
	runtime.ReadMemStats(&after)
	if len(got) != 1 || got[0].CorrelationID != "c4242" {
		t.Fatalf("one-match query = %+v", got)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4096 {
		t.Fatalf("one-match query on a full ring allocated %d B, want < 4 KB", per)
	}

	got = logger.Query(Filter{Subject: "alice", Limit: 2})
	n := logger.Capacity()
	if len(got) != 2 || got[0].CorrelationID != fmt.Sprintf("c%d", n-2) || got[1].CorrelationID != fmt.Sprintf("c%d", n-1) {
		t.Fatalf("limit 2 = %+v, want the newest two, oldest first", got)
	}
}

func TestCapacityEviction(t *testing.T) {
	sys := testSystem(t)
	logger := NewLogger(WithCapacity(3))
	audited := Wrap(sys, logger)
	for i := 0; i < 10; i++ {
		if _, err := audited.Decide(core.Request{Subject: "alice", Object: "ball",
			Transaction: "use", Environment: []core.RoleID{}}); err != nil {
			t.Fatal(err)
		}
	}
	recs := logger.Records()
	if len(recs) != 3 {
		t.Fatalf("retained = %d, want 3", len(recs))
	}
	if recs[0].Seq != 8 || recs[2].Seq != 10 {
		t.Fatalf("kept wrong records: %d..%d", recs[0].Seq, recs[2].Seq)
	}
}

func TestEvictionIsCounted(t *testing.T) {
	sys := testSystem(t)
	logger := NewLogger(WithCapacity(3))
	audited := Wrap(sys, logger)
	for i := 0; i < 10; i++ {
		if _, err := audited.Decide(core.Request{Subject: "alice", Object: "ball",
			Transaction: "use", Environment: []core.RoleID{}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := logger.Evicted(); got != 7 {
		t.Fatalf("Evicted = %d, want 7", got)
	}
	if got := logger.Seen(); got != 10 {
		t.Fatalf("Seen = %d, want 10", got)
	}
	st := logger.Stats()
	if st.Total != 10 || st.Seen != 10 || st.Retained != 3 || st.Evicted != 7 {
		t.Fatalf("stats do not distinguish seen from retained: %+v", st)
	}
	if uint64(st.Retained)+st.Evicted != st.Seen {
		t.Fatalf("retention accounting broken: %+v", st)
	}
	// The retained window drives the outcome aggregates.
	if st.Permits != 3 {
		t.Fatalf("retained permits = %d, want 3", st.Permits)
	}
	sum := logger.Summary()
	if sum.Seen != 10 || sum.Retained != 3 || sum.Evicted != 7 || sum.Capacity != 3 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestExportHookReceivesEveryRecord(t *testing.T) {
	sys := testSystem(t)
	var got []Record
	var logger *Logger
	logger = NewLogger(WithCapacity(2), WithExportHook(func(r Record) {
		// The hook runs outside the logger's lock: re-entering the logger
		// here must not deadlock (this is exactly what declog's stats
		// closures and a synchronous test hook do).
		_ = logger.Len()
		got = append(got, r)
	}))
	audited := Wrap(sys, logger)
	for i := 0; i < 5; i++ {
		if _, err := audited.Decide(core.Request{Subject: "alice", Object: "ball",
			Transaction: "use", Environment: []core.RoleID{}}); err != nil {
			t.Fatal(err)
		}
	}
	// Every record reaches the hook, including the ones the tiny ring has
	// already evicted — export capacity is declog's concern, not the ring's.
	if len(got) != 5 {
		t.Fatalf("hook saw %d records, want 5", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("hook record %d has seq %d", i, r.Seq)
		}
	}
	if logger.Len() != 2 {
		t.Fatalf("ring retained %d, want 2", logger.Len())
	}
}

// TestRingWrapBoundaries pins Query/Stats/Records behavior at the exact
// wrap points of the ring: at capacity (no eviction yet), one past it
// (first eviction), and mid-wrap with time filters straddling the wrap.
func TestRingWrapBoundaries(t *testing.T) {
	const cap = 5
	mkLogger := func(t *testing.T, n int) (*Logger, []time.Time) {
		t.Helper()
		sys := testSystem(t)
		clk := clock.NewFake(auditTime)
		logger := NewLogger(WithCapacity(cap), WithClock(clk))
		audited := Wrap(sys, logger)
		times := make([]time.Time, n)
		for i := 0; i < n; i++ {
			times[i] = auditTime.Add(time.Duration(i) * time.Hour)
			clk.Set(times[i])
			if _, err := audited.Decide(core.Request{Subject: "alice", Object: "ball",
				Transaction: "use", Environment: []core.RoleID{}}); err != nil {
				t.Fatal(err)
			}
		}
		return logger, times
	}

	t.Run("exactly capacity", func(t *testing.T) {
		logger, _ := mkLogger(t, cap)
		recs := logger.Records()
		if len(recs) != cap || recs[0].Seq != 1 || recs[cap-1].Seq != cap {
			t.Fatalf("records at capacity = %d (%d..%d)", len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
		}
		st := logger.Stats()
		if st.Seen != cap || st.Retained != cap || st.Evicted != 0 {
			t.Fatalf("stats at capacity = %+v", st)
		}
		if got := len(logger.Query(Filter{Subject: "alice"})); got != cap {
			t.Fatalf("query at capacity = %d", got)
		}
	})

	t.Run("capacity plus one", func(t *testing.T) {
		logger, times := mkLogger(t, cap+1)
		recs := logger.Records()
		if len(recs) != cap || recs[0].Seq != 2 || recs[cap-1].Seq != cap+1 {
			t.Fatalf("records after first eviction: %d (%d..%d)", len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
		}
		// Records stay oldest-first across the wrap.
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq != recs[i-1].Seq+1 {
				t.Fatalf("records out of order at %d: %v then %v", i, recs[i-1].Seq, recs[i].Seq)
			}
		}
		st := logger.Stats()
		if st.Seen != cap+1 || st.Retained != cap || st.Evicted != 1 {
			t.Fatalf("stats after first eviction = %+v", st)
		}
		// A Since filter pointing at the evicted record's time returns only
		// what is retained.
		if got := len(logger.Query(Filter{Since: times[0]})); got != cap {
			t.Fatalf("since-oldest query = %d, want %d", got, cap)
		}
	})

	t.Run("mid-wrap with straddling time filters", func(t *testing.T) {
		const n = cap + 3 // head is mid-buffer: records 4..8 retained
		logger, times := mkLogger(t, n)
		recs := logger.Records()
		if len(recs) != cap || recs[0].Seq != 4 || recs[cap-1].Seq != n {
			t.Fatalf("mid-wrap records: %d (%d..%d)", len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
		}
		st := logger.Stats()
		if st.Seen != n || st.Retained != cap || st.Evicted != 3 {
			t.Fatalf("mid-wrap stats = %+v", st)
		}
		// Since/Until window straddling the wrap point: records 5..6 (the
		// window crosses the physical end of the buffer, where the ring
		// wrapped at seq 6 = index 5 mod 5).
		got := logger.Query(Filter{Since: times[4], Until: times[6]})
		if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
			t.Fatalf("straddling window = %+v", got)
		}
		// A window entirely in evicted history is empty.
		if got := logger.Query(Filter{Since: times[0], Until: times[2]}); len(got) != 0 {
			t.Fatalf("evicted window returned %d records", len(got))
		}
		// Until straddling the wrap keeps only the retained prefix.
		got = logger.Query(Filter{Until: times[5]})
		if len(got) != 2 || got[0].Seq != 4 || got[1].Seq != 5 {
			t.Fatalf("until-straddle = %+v", got)
		}
	})
}

func TestQueryTimeBounds(t *testing.T) {
	sys := testSystem(t)
	clk := clock.NewFake(auditTime)
	logger := NewLogger(WithClock(clk))
	audited := Wrap(sys, logger)
	times := []time.Time{
		auditTime,
		auditTime.Add(time.Hour),
		auditTime.Add(2 * time.Hour),
	}
	for _, ts := range times {
		clk.Set(ts)
		if _, err := audited.Decide(core.Request{Subject: "alice", Object: "ball",
			Transaction: "use", Environment: []core.RoleID{}}); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		name string
		f    Filter
		want int
	}{
		{"unbounded", Filter{}, 3},
		{"since second", Filter{Since: times[1]}, 2},
		{"until second", Filter{Until: times[1]}, 1},
		{"window", Filter{Since: times[1], Until: times[2]}, 1},
		{"empty window", Filter{Since: times[2], Until: times[1]}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := len(logger.Query(tt.f)); got != tt.want {
				t.Fatalf("Query = %d records, want %d", got, tt.want)
			}
		})
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sys := testSystem(t)
	logger := NewLogger(WithClock(clock.NewFake(auditTime)))
	audited := Wrap(sys, logger)
	for i := 0; i < 3; i++ {
		if _, err := audited.Decide(core.Request{Subject: "alice", Object: "ball",
			Transaction: "use", Environment: []core.RoleID{}}); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := WriteJSON(&buf, logger.Records()); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("JSON lines = %d, want 3", got)
	}
	back, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0].Seq != 1 || back[2].Subject != "alice" {
		t.Fatalf("round trip = %+v", back)
	}
	if !back[1].Time.Equal(auditTime) {
		t.Fatalf("timestamp lost: %v", back[1].Time)
	}
	// Corrupt stream errors.
	if _, err := ReadJSON(strings.NewReader("{bad json")); err == nil {
		t.Fatal("corrupt stream parsed")
	}
}

func TestRender(t *testing.T) {
	if got := Render(nil); got != "no audit records\n" {
		t.Fatalf("Render(nil) = %q", got)
	}
	rec := Record{Seq: 1, Time: auditTime, Subject: "alice", Object: "ball",
		Transaction: "use", Allowed: true, Reason: "ok", Strategy: "deny-overrides"}
	out := Render([]Record{rec})
	for _, want := range []string{"#1", "PERMIT", "alice", "ball", "deny-overrides"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in %q", want, out)
		}
	}
	den := rec
	den.Allowed = false
	if !strings.Contains(Render([]Record{den}), "DENY") {
		t.Error("deny not rendered")
	}
}

// recordStrings are the string values random records draw from, including
// every class of byte the encoder escapes or repairs.
var recordStrings = []string{"", "alice", "front-door", "unlock", "permit", "deny-overrides",
	`say "hi"`, `back\slash`, "<b>&", "tab\tnl\n", "\x00\x1f", "é\U0001F600",
	string(rune(0x2028)), "bad\xffutf8"}

// TestAppendJSONMatchesMarshal holds the one record encoder to
// json.Marshal: the same bytes for random records, and the same error for
// the timestamps time.Time's MarshalJSON rejects.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func() string { return recordStrings[rng.Intn(len(recordStrings))] }
	zones := []*time.Location{time.UTC, time.Local, time.FixedZone("x", -(3*3600 + 1800)), time.FixedZone("far", 30*3600)}
	for i := 0; i < 5000; i++ {
		rec := Record{
			Seq:         rng.Uint64() >> uint(rng.Intn(64)),
			Time:        time.Unix(rng.Int63n(1<<36)-1<<35, rng.Int63n(1e9)).In(zones[rng.Intn(len(zones))]),
			Subject:     core.SubjectID(pick()),
			Object:      core.ObjectID(pick()),
			Transaction: core.TransactionID(pick()),
			Allowed:     rng.Intn(2) == 0, Effect: pick(), DefaultDeny: rng.Intn(2) == 0,
			Strategy: pick(), Reason: pick(), MatchedRules: rng.Intn(5) - 1, CorrelationID: pick(),
			Stale: rng.Intn(2) == 0, Route: pick(),
			DecodeNS: rng.Int63n(1e6) - 1e3, MediateNS: rng.Int63() >> uint(rng.Intn(63)),
		}
		want, wantErr := json.Marshal(rec)
		got, err := rec.AppendJSON([]byte("x"))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("AppendJSON(%+v) error %v, encoding/json %v", rec, err, wantErr)
		}
		if err == nil && !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendJSON:\n got %s\nwant %s", got[1:], want)
		}
	}
}

func TestAppendJSONZeroAllocs(t *testing.T) {
	rec := Record{Seq: 42, Time: auditTime, Subject: "alice", Object: "ball", Transaction: "use",
		Allowed: true, Effect: "permit", Strategy: "deny-overrides",
		Reason: "1 matching permission(s) resolved to permit by deny-overrides", MatchedRules: 1, CorrelationID: "c0ffee"}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf, _ = rec.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("AppendJSON into a reused buffer made %v allocations, want 0", n)
	}
}
