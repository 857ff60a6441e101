package pdp

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"github.com/aware-home/grbac/internal/shard"
)

// ShardTable is one immutable snapshot of shard routing: a shard map and
// the client table built for exactly that map. The router and the SDK's
// shard-direct routing each keep one behind an atomic pointer and capture
// it once per request, so a concurrent map swap can never tear the map
// away from its clients mid-scatter: in-flight fan-outs drain against the
// table they started with. The table holds the one owner rule for
// decide-style requests.
type ShardTable struct {
	m       *shard.Map
	clients map[string]*Client
}

// NewShardTable builds the table for m. It reuses prev's client for every
// shard whose address is unchanged, so a map bump does not drop warm
// connection pools, and builds the rest with mk. prev may be nil; a map
// that is not strictly newer than prev's is refused with
// ErrStaleShardMap, so concurrent updaters cannot roll a table back.
func NewShardTable(prev *ShardTable, m *shard.Map, mk func(addr string) *Client) (*ShardTable, error) {
	if m == nil || m.Len() == 0 {
		return nil, errors.New("pdp: refusing empty shard map")
	}
	if prev != nil && m.Version() <= prev.m.Version() {
		return nil, fmt.Errorf("%w: candidate %d, active %d",
			ErrStaleShardMap, m.Version(), prev.m.Version())
	}
	t := &ShardTable{m: m, clients: make(map[string]*Client, m.Len())}
	for _, s := range m.Shards() {
		if prev != nil {
			if old, ok := prev.m.Get(s.ID); ok && old.Addr == s.Addr {
				t.clients[s.ID] = prev.clients[s.ID]
				continue
			}
		}
		t.clients[s.ID] = mk(s.Addr)
	}
	return t, nil
}

// Map returns the table's shard map.
func (t *ShardTable) Map() *shard.Map { return t.m }

// Client returns the client for a shard of the table's map, nil for an ID
// the map does not have.
func (t *ShardTable) Client(id string) *Client { return t.clients[id] }

// RouteError is a routing failure with the HTTP status it maps to: 400
// for a request that cannot name a shard at all, 404 for a session
// qualifier that names a shard the map does not have.
type RouteError struct {
	Status int
	Msg    string
}

func (e *RouteError) Error() string { return e.Msg }

// SessionOwner maps a shard-qualified session ID onto its owning shard
// and the shard-local ID. An ID with no qualifier at all is the caller's
// malformed request (400); an ID whose qualifier is empty ("/sid") or
// names a shard absent from the map refers to something that does not
// exist here (404). It must never fall through to hash routing, which
// would silently ask an arbitrary shard.
func (t *ShardTable) SessionOwner(qualified string) (shard.Info, string, *RouteError) {
	if !strings.Contains(qualified, shard.SessionSep) {
		return shard.Info{}, "", &RouteError{http.StatusBadRequest,
			fmt.Sprintf("session %q is not shard-qualified (want <shard>%s<id>)", qualified, shard.SessionSep)}
	}
	shardID, sid, ok := shard.SplitSession(qualified)
	if !ok {
		return shard.Info{}, "", &RouteError{http.StatusNotFound,
			fmt.Sprintf("session %q has an empty shard qualifier", qualified)}
	}
	info, found := t.m.Get(shardID)
	if !found {
		return shard.Info{}, "", &RouteError{http.StatusNotFound,
			fmt.Sprintf("session %q names unknown shard %q", qualified, shardID)}
	}
	return info, sid, nil
}

// Route resolves the owning shard of a decide-style request: the session
// qualifier when a session is named (sessions live where they were
// created, surviving map changes), else the subject hash. It rewrites a
// qualified session ID to the shard-local form in place, and leaves the
// request unchanged when it returns an error.
func (t *ShardTable) Route(req *DecideRequest) (shard.Info, *RouteError) {
	if req.Session != "" {
		info, sid, err := t.SessionOwner(req.Session)
		if err != nil {
			return shard.Info{}, err
		}
		req.Session = sid
		return info, nil
	}
	if req.Subject == "" {
		return shard.Info{}, &RouteError{http.StatusBadRequest,
			"request names neither subject nor session"}
	}
	return t.m.Owner(req.Subject), nil
}

// routerFanout bounds how many shard calls one fan-out (a broadcast,
// query scatter, batch split or health probe) has in flight at once.
const routerFanout = 8

// fanOut calls call once for each item, at most routerFanout at a time,
// and returns when every call has returned.
func fanOut[T any](items []T, call func(T)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, routerFanout)
	for _, it := range items {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() {
				<-sem
				wg.Done()
			}()
			call(it)
		}()
	}
	wg.Wait()
}

// SplitBatch sends a batch as one sub-batch per owner under the fan-out
// bound. owner names the owner of reqs[i], and may rewrite the item to
// the form that owner expects, or reports false to leave the item out.
// send makes one owner's call. done runs once per owner, concurrently
// with the other owners, with the indices of that owner's items and
// either the reply aligned with them or the error that fails them all. A
// reply of the wrong length is such an error: every tier fails the whole
// group, never a prefix of it.
func SplitBatch[K comparable](reqs []DecideRequest,
	owner func(i int, req *DecideRequest) (K, bool),
	send func(owner K, sub []DecideRequest) (BatchDecideResponse, error),
	done func(owner K, idx []int, resp BatchDecideResponse, err error)) {
	type group struct {
		owner K
		idx   []int
		sub   []DecideRequest
	}
	var groups []*group
	byOwner := make(map[K]*group)
	for i := range reqs {
		k, ok := owner(i, &reqs[i])
		if !ok {
			continue
		}
		g := byOwner[k]
		if g == nil {
			g = &group{owner: k}
			byOwner[k] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
		g.sub = append(g.sub, reqs[i])
	}
	fanOut(groups, func(g *group) {
		resp, err := send(g.owner, g.sub)
		if err == nil && len(resp.Results) != len(g.idx) {
			err = fmt.Errorf("misaligned batch reply: %d results for %d requests",
				len(resp.Results), len(g.idx))
		}
		done(g.owner, g.idx, resp, err)
	})
}
