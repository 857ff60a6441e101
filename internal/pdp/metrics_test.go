package pdp

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/obs"
)

// obsServer builds an instrumented PDP over the family-TV fixture with
// metrics and an audit trail enabled.
func obsServer(t *testing.T) (*httptest.Server, *Client, *audit.Logger) {
	t.Helper()
	trail := audit.NewLogger()
	ts, _ := newTestServer(t,
		WithMetrics(obs.NewRegistry()),
		WithAuditLogger(trail))
	return ts, NewClient(ts.URL, nil), trail
}

// sampleValue returns the value of the first sample of family name whose
// labels include every given label.
func sampleValue(samples []obs.Sample, name string, labels map[string]string) (float64, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Label(k) != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

func TestMetricsEndpoint(t *testing.T) {
	_, client, _ := obsServer(t)
	ctx := context.Background()

	req := DecideRequest{Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []string{"weekday-free-time"}}
	for i := 0; i < 3; i++ {
		if _, err := client.Decide(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Check(ctx, req); err != nil {
		t.Fatal(err)
	}

	samples, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	find := func(name string, labels map[string]string) (float64, bool) {
		return sampleValue(samples, name, labels)
	}

	if v, ok := find("grbac_http_request_duration_seconds_count", map[string]string{"route": "/v1/decide"}); !ok || v != 3 {
		t.Fatalf("decide duration count = %v, %v; want 3", v, ok)
	}
	if v, ok := find("grbac_http_requests_total", map[string]string{"route": "/v1/decide", "code": "2xx"}); !ok || v != 3 {
		t.Fatalf("decide 2xx counter = %v, %v; want 3", v, ok)
	}
	if v, ok := find("grbac_http_request_duration_seconds_count", map[string]string{"route": "/v1/check"}); !ok || v != 1 {
		t.Fatalf("check duration count = %v, %v; want 1", v, ok)
	}
	// The cache answered the repeats: hits and misses both moved.
	if v, ok := find("grbac_decision_cache_misses_total", nil); !ok || v < 1 {
		t.Fatalf("cache misses = %v, %v; want >= 1", v, ok)
	}
	if v, ok := find("grbac_decision_cache_hits_total", nil); !ok || v < 1 {
		t.Fatalf("cache hits = %v, %v; want >= 1", v, ok)
	}
	for _, name := range []string{
		"grbac_policy_generation",
		"grbac_policy_snapshot_compiles_total",
		"grbac_fail_safe_denies_total",
		"grbac_decision_cache_entries",
		"grbac_http_inflight",
		"grbac_http_shed_total",
		"grbac_http_recovered_panics_total",
	} {
		if _, ok := find(name, nil); !ok {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
	// Latency histograms expose cumulative buckets.
	if v, ok := find("grbac_http_request_duration_seconds_bucket", map[string]string{"route": "/v1/decide", "le": "+Inf"}); !ok || v != 3 {
		t.Fatalf("decide +Inf bucket = %v, %v; want 3", v, ok)
	}
}

func TestMetricsDisabledByDefault(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics on an uninstrumented server = %d, want 404", resp.StatusCode)
	}
}

func TestCorrelationIDJoinsAuditRecord(t *testing.T) {
	ts, client, trail := obsServer(t)

	decide := func(corr string) *http.Response {
		t.Helper()
		body := []byte(`{"subject":"alice","object":"tv","transaction":"use","environment":["weekday-free-time"]}`)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/decide", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(CorrelationHeader, corr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decide = %d", resp.StatusCode)
		}
		return resp
	}
	resp := decide("corr-join-1")
	if got := resp.Header.Get(CorrelationHeader); got != "corr-join-1" {
		t.Fatalf("response header %s = %q, want corr-join-1", CorrelationHeader, got)
	}
	decide("corr-join-2")
	if n := len(trail.Records()); n != 2 {
		t.Fatalf("audit records = %d, want 2", n)
	}

	// Over the wire, the ID selects exactly its request's record, and the
	// record carries what the serving tier knew about the decision.
	recs, err := client.Audit(context.Background(), AuditQuery{CorrelationID: "corr-join-1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("GET /v1/audit?correlation_id=corr-join-1 = %+v, want one record", recs)
	}
	r := recs[0]
	if r.CorrelationID != "corr-join-1" || r.Route != "/v1/decide" || !r.Allowed || r.Stale {
		t.Fatalf("record = %+v, want an allowed, fresh /v1/decide record for corr-join-1", r)
	}
	if r.DecodeNS <= 0 || r.MediateNS <= 0 {
		t.Fatalf("record timings decode_ns=%d mediate_ns=%d, want both > 0", r.DecodeNS, r.MediateNS)
	}
}

func TestCorrelationIDGeneratedWhenAbsent(t *testing.T) {
	_, client, trail := obsServer(t)

	d, err := client.Decide(context.Background(), DecideRequest{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []string{"weekday-free-time"}})
	if err != nil {
		t.Fatal(err)
	}
	if d.CorrelationID == "" {
		t.Fatal("server did not generate a correlation id")
	}
	recs := trail.Records()
	if len(recs) != 1 || recs[0].CorrelationID != d.CorrelationID {
		t.Fatalf("audit correlation id %q does not join reply %q",
			recs[0].CorrelationID, d.CorrelationID)
	}
}

func TestBatchCorrelationCoversEveryItem(t *testing.T) {
	_, client, trail := obsServer(t)
	reqs := []DecideRequest{
		{Subject: "alice", Object: "tv", Transaction: "use", Environment: []string{"weekday-free-time"}},
		{Subject: "alice", Object: "tv", Transaction: "use", Environment: []string{}},
	}
	resp, err := client.DecideBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CorrelationID == "" {
		t.Fatal("batch reply has no correlation id")
	}
	recs := trail.Records()
	if len(recs) != len(reqs) {
		t.Fatalf("audit records = %d, want %d", len(recs), len(reqs))
	}
	for i, r := range recs {
		if r.CorrelationID != resp.CorrelationID {
			t.Fatalf("record %d correlation id = %q, want %q", i, r.CorrelationID, resp.CorrelationID)
		}
	}
}

// TestMalformedDecideCountedAs4xx pins where a request that never reached
// a decision is seen: it leaves no audit record, and the route's status
// counter moves.
func TestMalformedDecideCountedAs4xx(t *testing.T) {
	_, client, trail := obsServer(t)
	ctx := context.Background()
	resp, err := http.Post(client.base+"/v1/decide", "application/json",
		bytes.NewReader([]byte(`{nope`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed decide = %d, want 400", resp.StatusCode)
	}
	if n := len(trail.Records()); n != 0 {
		t.Fatalf("malformed request left %d audit records, want 0", n)
	}
	samples, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sampleValue(samples, "grbac_http_requests_total", map[string]string{"route": "/v1/decide", "code": "4xx"}); !ok || v != 1 {
		t.Fatalf("decide 4xx counter = %v, %v; want 1", v, ok)
	}
}
