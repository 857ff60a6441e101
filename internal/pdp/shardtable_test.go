package pdp

import (
	"net/http"
	"testing"

	"github.com/aware-home/grbac/internal/shard"
)

// TestShardTableRoute pins the one owner rule the router and the SDK
// share: a session qualifier first, with the session rewritten to its
// local form, else the subject hash, and the 400/404 answers for what
// cannot be placed. An error leaves the request unchanged.
func TestShardTableRoute(t *testing.T) {
	m, err := shard.New(0, shard.Info{ID: "s0", Addr: "http://s0"}, shard.Info{ID: "s1", Addr: "http://s1"})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewShardTable(nil, m, func(addr string) *Client { return NewClient(addr, nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		req         DecideRequest
		wantShard   string
		wantSession string
		wantStatus  int
	}{
		{"subject", DecideRequest{Subject: "alice"}, m.Owner("alice").ID, "", 0},
		{"qualified session", DecideRequest{Subject: "alice", Session: "s1/abc"}, "s1", "abc", 0},
		{"unqualified session", DecideRequest{Session: "abc"}, "", "abc", http.StatusBadRequest},
		{"empty qualifier", DecideRequest{Session: "/abc"}, "", "/abc", http.StatusNotFound},
		{"unknown shard", DecideRequest{Session: "zz/abc"}, "", "zz/abc", http.StatusNotFound},
		{"neither", DecideRequest{Object: "tv"}, "", "", http.StatusBadRequest},
	} {
		req := tc.req
		sh, rerr := tab.Route(&req)
		switch {
		case tc.wantStatus != 0 && (rerr == nil || rerr.Status != tc.wantStatus):
			t.Errorf("%s: Route error = %v, want status %d", tc.name, rerr, tc.wantStatus)
		case tc.wantStatus == 0 && (rerr != nil || sh.ID != tc.wantShard):
			t.Errorf("%s: Route = %s, %v; want %s", tc.name, sh.ID, rerr, tc.wantShard)
		case req.Session != tc.wantSession:
			t.Errorf("%s: session after Route = %q, want %q", tc.name, req.Session, tc.wantSession)
		}
	}
}
