package pdp

import (
	"errors"
	"fmt"
	"sync"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/shard"
)

// ShardTable is one immutable snapshot of shard routing: a shard map and
// the client table built for exactly that map. The router keeps one
// behind an atomic pointer and captures it once per request, so a
// concurrent map swap can never tear the map away from its clients
// mid-scatter: in-flight fan-outs drain against the table they started
// with. The table holds the one owner rule for
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

// Route resolves the shard that owns a request naming a subject, a
// session or both, under the table's map: the owner of the subject, else
// of the subject the session ID names. A session moves with its subject,
// so this holds across every rebalance. A request that names no subject
// either way has no owner, and the error says why; callers answer it
// with 400.
func (t *ShardTable) Route(subject, session string) (shard.Info, error) {
	if subject == "" && session != "" {
		sub, ok := core.SessionSubject(core.SessionID(session))
		if !ok {
			return shard.Info{}, fmt.Errorf("session %q names no subject", session)
		}
		subject = string(sub)
	}
	if subject == "" {
		return shard.Info{}, errors.New("request names neither subject nor session")
	}
	return t.m.Owner(subject), nil
}

// routerFanout bounds how many shard calls one fan-out (a broadcast,
// query scatter, batch split or health check) has in flight at once.
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

// splitBatch sends a batch as one sub-batch per owner under the fan-out
// bound. owner names the owner of reqs[i] (a shard ID on the router, an
// address on a forwarding shard), or reports false to leave the item
// out. send makes one owner's call, Client.DecideBatch for both callers,
// which fails a reply of the wrong length. done runs once per owner,
// concurrently with the other owners, with the indices of that owner's
// items and either the reply aligned with them or the error that fails
// them all.
func splitBatch(reqs []DecideRequest,
	owner func(i int, req *DecideRequest) (string, bool),
	send func(owner string, sub []DecideRequest) (BatchDecideResponse, error),
	done func(owner string, idx []int, resp BatchDecideResponse, err error)) {
	type group struct {
		owner string
		idx   []int
		sub   []DecideRequest
	}
	var groups []*group
	byOwner := make(map[string]*group)
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
		done(g.owner, g.idx, resp, err)
	})
}
