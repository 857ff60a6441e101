package pdp

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/policy"
)

const serverPolicy = `
subject role family-member;
subject role child extends family-member;
object role entertainment-devices;
env role weekday-free-time;
subject alice is child;
object tv is entertainment-devices;
transaction use;
grant child use entertainment-devices when weekday-free-time;
`

func newTestServer(t *testing.T, opts ...ServerOption) (*httptest.Server, *core.System) {
	t.Helper()
	compiled, err := policy.Compile(serverPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem()
	if err := compiled.Apply(sys, nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(sys, opts...))
	t.Cleanup(srv.Close)
	return srv, sys
}

func TestDecideRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t)
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	resp, err := client.Decide(ctx, DecideRequest{
		Subject:     "alice",
		Object:      "tv",
		Transaction: "use",
		Environment: []string{"weekday-free-time"},
	})
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if !resp.Allowed || resp.Effect != "permit" {
		t.Fatalf("response = %+v", resp)
	}
	if len(resp.Matches) != 1 || resp.Matches[0].SubjectRole != "child" {
		t.Fatalf("matches = %+v", resp.Matches)
	}

	// Outside the window: denied (explicit empty environment).
	resp, err = client.Decide(ctx, DecideRequest{
		Subject:     "alice",
		Object:      "tv",
		Transaction: "use",
		Environment: []string{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The explicit empty environment travels as [] and means "no
	// environment roles active" (TestExplicitEmptyEnvironmentOnWire pins it
	// against a server whose live source would activate the grant).
	if resp.Allowed || !resp.DefaultDeny {
		t.Fatalf("response = %+v", resp)
	}
}

func TestCheck(t *testing.T) {
	srv, _ := newTestServer(t)
	client := NewClient(srv.URL, srv.Client())
	ok, err := client.Check(context.Background(), DecideRequest{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []string{"weekday-free-time"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Check = false")
	}
}

func TestCredentialsOverWire(t *testing.T) {
	srv, sys := newTestServer(t)
	if err := sys.SetMinConfidence(0.9); err != nil {
		t.Fatal(err)
	}
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	// 75% identity fails, 98% role credential passes — §5.2 over the wire.
	ok, err := client.Check(ctx, DecideRequest{
		Subject: "alice", Object: "tv", Transaction: "use",
		Credentials: []Credential{{Subject: "alice", Confidence: 0.75, Source: "smart-floor"}},
		Environment: []string{"weekday-free-time"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("weak identity passed")
	}
	ok, err = client.Check(ctx, DecideRequest{
		Subject: "alice", Object: "tv", Transaction: "use",
		Credentials: []Credential{
			{Subject: "alice", Confidence: 0.75, Source: "smart-floor"},
			{Role: "child", Confidence: 0.98, Source: "smart-floor"},
		},
		Environment: []string{"weekday-free-time"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("role credential rejected")
	}
}

func TestStateEndpoint(t *testing.T) {
	srv, sys := newTestServer(t)
	client := NewClient(srv.URL, srv.Client())
	st, err := client.State(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A fresh system rebuilt from the fetched state decides identically.
	restored := core.NewSystem()
	if err := restored.Import(st); err != nil {
		t.Fatal(err)
	}
	req := core.Request{Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []core.RoleID{"weekday-free-time"}}
	a, err := sys.CheckAccess(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.CheckAccess(req)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("state transfer changed decisions")
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	client := NewClient(srv.URL, srv.Client())
	if !client.Healthy(context.Background()) {
		t.Fatal("server unhealthy")
	}
	down := NewClient("http://127.0.0.1:1", nil)
	if down.Healthy(context.Background()) {
		t.Fatal("dead server healthy")
	}
}

func TestErrorMapping(t *testing.T) {
	srv, _ := newTestServer(t)
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	tests := []struct {
		name       string
		req        DecideRequest
		wantStatus string
	}{
		{"unknown subject", DecideRequest{Subject: "ghost", Object: "tv", Transaction: "use"}, "404"},
		{"unknown object", DecideRequest{Subject: "alice", Object: "ghost", Transaction: "use"}, "404"},
		{"missing transaction", DecideRequest{Subject: "alice", Object: "tv"}, "400"},
		{"bad credential", DecideRequest{Subject: "alice", Object: "tv", Transaction: "use",
			Credentials: []Credential{{Confidence: 0.5}}}, "400"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := client.Decide(ctx, tt.req)
			if !errors.Is(err, ErrRemote) {
				t.Fatalf("error = %v, want ErrRemote", err)
			}
			if !strings.Contains(err.Error(), tt.wantStatus) {
				t.Fatalf("error = %v, want status %s", err, tt.wantStatus)
			}
		})
	}
}

func TestHTTPProtocolErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	// Wrong method.
	resp, err := http.Get(srv.URL + "/v1/decide")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/decide status = %d", resp.StatusCode)
	}
	// Malformed body.
	resp, err = http.Post(srv.URL+"/v1/decide", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d", resp.StatusCode)
	}
	// Unknown fields rejected.
	resp, err = http.Post(srv.URL+"/v1/decide", "application/json",
		strings.NewReader(`{"subject":"alice","object":"tv","transaction":"use","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d", resp.StatusCode)
	}
	// POST to state.
	resp, err = http.Post(srv.URL+"/v1/state", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/state status = %d", resp.StatusCode)
	}
}

func TestServerAuditing(t *testing.T) {
	logger := audit.NewLogger()
	srv, _ := newTestServer(t, WithAuditLogger(logger))
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := client.Check(ctx, DecideRequest{
			Subject: "alice", Object: "tv", Transaction: "use",
			Environment: []string{"weekday-free-time"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := logger.Len(); got != 3 {
		t.Fatalf("audit records = %d, want 3", got)
	}
	stats := logger.Stats()
	if stats.Permits != 3 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestStatsz(t *testing.T) {
	srv, _ := newTestServer(t)
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	req := DecideRequest{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []string{"weekday-free-time"},
	}
	for i := 0; i < 2; i++ {
		if _, err := client.Decide(ctx, req); err != nil {
			t.Fatalf("Decide: %v", err)
		}
	}
	st, err := client.Statsz(ctx)
	if err != nil {
		t.Fatalf("Statsz: %v", err)
	}
	if st.DecisionMisses < 1 || st.DecisionHits < 1 {
		t.Fatalf("Stats = %+v, want at least one miss and one hit", st)
	}
	if st.DecisionCapacity == 0 {
		t.Fatalf("Stats = %+v, want caching enabled by default", st)
	}

	resp, err := srv.Client().Post(srv.URL+"/v1/statsz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("POST /v1/statsz = %d, want 405", resp.StatusCode)
	}
}
