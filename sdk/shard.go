package sdk

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	grbac "github.com/aware-home/grbac"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/shard"
)

// Shard-aware routing state: a pdp.ShardTable, the type the router
// routes with (one shard map, the client table built for it and the
// owner rule), behind an atomic pointer. Every request captures the
// table once, so a concurrent map swap (a rebalance commit pushed
// through the feed) can never tear the map away from the clients built
// for it. A pdp.MapFeed follows the router's shard-map feed and installs
// each newer committed map; until it does, a request sent to a subject's
// old shard is forwarded by that shard to the owner.

// newShardClient builds the per-shard remote used for direct routing.
func (c *Client) newShardClient(addr string) *pdp.Client {
	return pdp.NewClient(addr, nil, pdp.WithRetry(3, 100*time.Millisecond))
}

// installShardMap swaps in a strictly newer shard map; the new table
// reuses the clients of shards whose address is unchanged.
func (c *Client) installShardMap(m *shard.Map) {
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	if t, err := pdp.NewShardTable(c.shards.Load(), m, c.newShardClient); err == nil {
		c.shards.Store(t)
	}
}

// bootstrapShardMap fetches the routing tier's shard map, installs the
// initial view, and resolves the home shard this Client will replicate
// from.
func (c *Client) bootstrapShardMap(ctx context.Context, routerURL string) (shard.Info, error) {
	mctx, cancel := context.WithTimeout(ctx, bootstrapTimeout)
	defer cancel()
	c.feed = pdp.NewMapFeed(routerURL, c.logger, func(v *pdp.MapView) { c.installShardMap(v.Committed) })
	if err := c.feed.Poll(mctx); err != nil {
		return shard.Info{}, fmt.Errorf("sdk: fetch shard map from %s: %w", routerURL, err)
	}
	m := c.shards.Load().Map()
	if c.homeShard == "" {
		c.homeShard = m.Shards()[0].ID
	}
	home, ok := m.Get(c.homeShard)
	if !ok {
		return shard.Info{}, fmt.Errorf("sdk: home shard %q not in shard map v%d", c.homeShard, m.Version())
	}
	return home, nil
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
// the feed installs the committed map; before that, the subject leaves
// the home replica at its handoff, and missingHere sends it remote.
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

// missingHere reports whether a local answer failed because the home
// replica does not hold the request's subject while shard routing and a
// remote are on.
// A rebalance's handoff deletes the home shard's copy before the commit
// moves the subject off the home shard in the committed map, and this
// client's map feed may not show that rebalance yet, so such a request is
// asked remotely, where the old owner forwards it to the new one.
func (c *Client) missingHere(req grbac.Request, err error) bool {
	return c.feed != nil && !c.noRemote && errors.Is(err, grbac.ErrNotFound) && !c.sys.HasSubject(req.Subject)
}

// decideMissing asks remotely for a request that missingHere let through
// after the local err; a remote not-found answers with err itself.
func (c *Client) decideMissing(ctx context.Context, req grbac.Request, err error) (Decision, error) {
	d, rerr := c.remoteDecide(ctx, req, "subject not on the home replica")
	var re *pdp.RemoteError
	if errors.As(rerr, &re) && re.Status == http.StatusNotFound {
		return Decision{}, err
	}
	return d, rerr
}
