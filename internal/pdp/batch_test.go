package pdp

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/replica"
)

func TestDecideBatchRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t)
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	permit := DecideRequest{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []string{"weekday-free-time"},
	}
	deny := DecideRequest{Subject: "alice", Object: "tv", Transaction: "use"}
	broken := DecideRequest{Subject: "ghost", Object: "tv", Transaction: "use"}

	resp, err := client.DecideBatch(ctx, []DecideRequest{permit, deny, broken})
	if err != nil {
		t.Fatalf("DecideBatch: %v", err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(resp.Results))
	}
	if d := resp.Results[0].Decision; d == nil || !d.Allowed || resp.Results[0].Error != "" {
		t.Fatalf("permit item = %+v", resp.Results[0])
	}
	if d := resp.Results[1].Decision; d == nil || d.Allowed || !d.DefaultDeny {
		t.Fatalf("deny item = %+v", resp.Results[1])
	}
	if it := resp.Results[2]; it.Decision != nil || !strings.Contains(it.Error, "ghost") {
		t.Fatalf("error item = %+v", resp.Results[2])
	}

	// A batch item and the single-shot endpoint agree on the same request.
	single, err := client.Decide(ctx, permit)
	if err != nil {
		t.Fatal(err)
	}
	got := *resp.Results[0].Decision
	if got.Allowed != single.Allowed || got.Effect != single.Effect ||
		got.Reason != single.Reason || len(got.Matches) != len(single.Matches) {
		t.Fatalf("batch item %+v != single decision %+v", got, single)
	}
}

func TestDecideBatchProtocolErrors(t *testing.T) {
	srv, _ := newTestServer(t)

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/decide/batch", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(`{"requests":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400", code)
	}
	if code := post(`{}`); code != http.StatusBadRequest {
		t.Fatalf("absent requests status = %d, want 400", code)
	}

	var b strings.Builder
	b.WriteString(`{"requests":[`)
	for i := 0; i <= maxBatchSize; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"subject":"alice","object":"tv","transaction":"use"}`)
	}
	b.WriteString(`]}`)
	if code := post(b.String()); code != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d, want 400", code)
	}

	resp, err := http.Get(srv.URL + "/v1/decide/batch")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/decide/batch status = %d, want 405", resp.StatusCode)
	}
}

func TestDecideBatchAudited(t *testing.T) {
	logger := audit.NewLogger()
	srv, _ := newTestServer(t, WithAuditLogger(logger))
	client := NewClient(srv.URL, srv.Client())

	resp, err := client.DecideBatch(context.Background(), []DecideRequest{
		{Subject: "alice", Object: "tv", Transaction: "use",
			Environment: []string{"weekday-free-time"}},
		{Subject: "alice", Object: "tv", Transaction: "use"},
		{Subject: "ghost", Object: "tv", Transaction: "use"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(resp.Results))
	}
	// Both mediated items (one permit, one deny) are on the trail; the
	// erroring item never reached mediation and is not.
	if got := logger.Len(); got != 2 {
		t.Fatalf("audit records = %d, want 2", got)
	}
	stats := logger.Stats()
	if stats.Permits != 1 || stats.Denies != 1 {
		t.Fatalf("audit stats = %+v", stats)
	}
}

func TestFollowerBatchMarksStale(t *testing.T) {
	var offset atomic.Int64
	clock := func() time.Time { return time.Now().Add(time.Duration(offset.Load())) }
	_, f, followerURL, hc := newFollowerServer(t, core.NewSystem(core.WithClock(clock)),
		replica.WithMaxStaleness(50*time.Millisecond))
	client := NewClient(followerURL, hc)
	ctx := context.Background()

	req := []DecideRequest{{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []string{"weekday-free-time"},
	}}
	resp, err := client.DecideBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stale {
		t.Fatal("healthy follower marked its batch stale")
	}

	offset.Store(int64(time.Hour))
	if !f.Stale() {
		t.Fatal("follower not stale after clock jump")
	}
	resp, err = client.DecideBatch(ctx, req)
	if err != nil {
		t.Fatalf("stale follower refused to serve: %v", err)
	}
	if !resp.Stale {
		t.Fatal("stale follower did not mark its batch")
	}
	if d := resp.Results[0].Decision; d == nil || !d.Allowed {
		t.Fatalf("stale follower changed the decision: %+v", resp.Results[0])
	}
}
