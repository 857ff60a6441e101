package sdk

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	grbac "github.com/aware-home/grbac"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/retry"
	"github.com/aware-home/grbac/internal/shard"
)

// Shard-aware routing state: a pdp.ShardTable, the type the router
// routes with (one shard map, the client table built for it and the
// owner rule), behind an atomic pointer. Every request captures the
// table once, so a concurrent map swap (a rebalance commit pushed
// through the watch) can never tear the map away from the clients built
// for it. A background watcher long-polls the router's
// /v1/shard/map/watch and installs newer maps atomically; until it does,
// a request sent to a subject's old shard is proxied by that shard to
// the new owner.

// sdkMapWatchWait is how long one SDK map watch parks on the router.
// The router wakes parked watches on every map commit, so this bounds
// only the idle re-poll cadence, not convergence latency.
const sdkMapWatchWait = 20 * time.Second

// newShardClient builds the per-shard remote used for direct routing.
func (c *Client) newShardClient(addr string) *pdp.Client {
	return pdp.NewClient(addr, nil, pdp.WithRetry(3, 100*time.Millisecond))
}

// installShardMap swaps in a strictly newer shard map; the new table
// reuses the clients of shards whose address is unchanged. Returns
// whether the map was installed.
func (c *Client) installShardMap(m *shard.Map) bool {
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	t, err := pdp.NewShardTable(c.shards.Load(), m, c.newShardClient)
	if err != nil {
		return false
	}
	c.shards.Store(t)
	return true
}

// bootstrapShardMap fetches the routing tier's shard map, installs the
// initial view, and resolves the home shard this Client will replicate
// from.
func (c *Client) bootstrapShardMap(ctx context.Context, routerURL string) (shard.Info, error) {
	mctx, cancel := context.WithTimeout(ctx, bootstrapTimeout)
	defer cancel()
	c.router = pdp.NewClient(routerURL, nil)
	var w shard.Wire
	if err := c.router.Call(mctx, http.MethodGet, pdp.ShardMapPath, nil, &w); err != nil {
		return shard.Info{}, fmt.Errorf("sdk: fetch shard map from %s: %w", routerURL, err)
	}
	m, err := shard.FromWire(w)
	if err != nil {
		return shard.Info{}, fmt.Errorf("sdk: shard map from %s: %w", routerURL, err)
	}
	c.installShardMap(m)
	if c.homeShard == "" {
		c.homeShard = m.Shards()[0].ID
	}
	home, ok := m.Get(c.homeShard)
	if !ok {
		return shard.Info{}, fmt.Errorf("sdk: home shard %q not in shard map v%d", c.homeShard, m.Version())
	}
	return home, nil
}

// watchShardMap is the background map watcher: it long-polls the
// router for a map newer than the installed one and swaps the view the
// moment a rebalance commits. Router failures back off with jitter on
// the shared retry policy and re-poll; the loop exits with ctx.
func (c *Client) watchShardMap(ctx context.Context) {
	bo := retry.Backoff{Min: 100 * time.Millisecond, Max: 5 * time.Second}
	for {
		err := c.pollShardMap(ctx)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			bo.Reset()
			continue
		}
		c.logger.Printf("sdk: shard map watch: %v (retrying in ~%v)", err, bo.Current())
		if !bo.Sleep(ctx) {
			return
		}
	}
}

// pollShardMap parks one map watch on the router and installs the map it
// answers with, if that map is newer than the installed one.
func (c *Client) pollShardMap(ctx context.Context) error {
	after := c.shards.Load().Map().Version()
	path := pdp.ShardMapWatchPath + "?after=" + strconv.FormatUint(after, 10) +
		"&wait=" + sdkMapWatchWait.String()
	wctx, cancel := context.WithTimeout(ctx, sdkMapWatchWait+10*time.Second)
	defer cancel()
	var w shard.Wire
	if err := c.router.Call(wctx, http.MethodGet, path, nil, &w); err != nil {
		return err
	}
	m, err := shard.FromWire(w)
	if err != nil {
		return err
	}
	if c.installShardMap(m) {
		c.logger.Printf("sdk: shard map v%d installed (%d shards)", m.Version(), m.Len())
	}
	return nil
}

// ShardMap returns the currently installed shard map (nil without
// WithShardRouting). The map advances as the watcher applies rebalance
// commits pushed by the router.
func (c *Client) ShardMap() *shard.Map {
	if t := c.shards.Load(); t != nil {
		return t.Map()
	}
	return nil
}

// locallyOwned reports whether the replicated snapshot covers the
// request's subject. Without shard routing every subject is local; with
// it, only the home shard's partition is — a foreign subject evaluated
// locally would be indistinguishable from an unknown one. A rebalance
// that moves a subject off the home shard flips this answer the moment
// the watcher installs the committed map.
func (c *Client) locallyOwned(req grbac.Request) bool {
	t := c.shards.Load()
	if t == nil {
		return true
	}
	return t.Map().Owner(string(req.Subject)).ID == c.homeShard
}

// remoteClientFor resolves which remote PDP serves the wire request under
// the shard table t (nil without shard routing): the client of the shard
// owning its subject, or the subject its session ID names, or the
// configured remote (the primary, or the router in sharded mode) without
// a table or for anything the table cannot place.
func (c *Client) remoteClientFor(t *pdp.ShardTable, req *pdp.DecideRequest) *pdp.Client {
	if c.noRemote || t == nil {
		return c.remote
	}
	if sh, err := t.Route(req.Subject, req.Session); err == nil {
		return t.Client(sh.ID)
	}
	return c.remote
}
