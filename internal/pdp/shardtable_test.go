package pdp

import (
	"testing"

	"github.com/aware-home/grbac/internal/shard"
)

// TestShardTableRoute pins the one owner rule the router and the SDK
// share: the owner of the request's subject, else of the subject its
// session ID names, and an error, which the router answers with 400, for
// a request that names no subject either way.
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
		name             string
		subject, session string
		wantShard        string // "" for no owner
	}{
		{"subject", "alice", "", m.Owner("alice").ID},
		{"subject and session", "alice", "sess-3-bob", m.Owner("alice").ID},
		{"session alone", "", "sess-3-bob", m.Owner("bob").ID},
		{"session of a subject with separators", "", "sess-9-home/a-b", m.Owner("home/a-b").ID},
		{"session naming no subject", "", "abc", ""},
		{"legacy shard-qualified session", "", "s1/sess-1-alice", ""},
		{"empty subject in session", "", "sess-1-", ""},
		{"neither", "", "", ""},
	} {
		sh, err := tab.Route(tc.subject, tc.session)
		if sh.ID != tc.wantShard || (err == nil) != (tc.wantShard != "") {
			t.Errorf("%s: Route = %q, %v; want %q", tc.name, sh.ID, err, tc.wantShard)
		}
	}
}
