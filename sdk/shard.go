package sdk

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	grbac "github.com/aware-home/grbac"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/shard"
)

// homeShardAddr fetches the routing tier's published shard map once and
// returns the address of the home shard this Client replicates from,
// settling homeShard on the map's first shard when it is empty.
func (c *Client) homeShardAddr(ctx context.Context, routerURL string) (string, error) {
	mctx, cancel := context.WithTimeout(ctx, bootstrapTimeout)
	defer cancel()
	var w shard.Wire
	if err := pdp.NewClient(routerURL, nil).Call(mctx, http.MethodGet, pdp.ShardMapPath, nil, &w); err != nil {
		return "", fmt.Errorf("sdk: fetch shard map from %s: %w", routerURL, err)
	}
	m, err := shard.FromWire(w)
	if err != nil {
		return "", fmt.Errorf("sdk: shard map from %s: %w", routerURL, err)
	}
	if c.homeShard == "" {
		c.homeShard = m.Shards()[0].ID
	}
	home, ok := m.Get(c.homeShard)
	if !ok {
		return "", fmt.Errorf("sdk: home shard %q not in shard map v%d", c.homeShard, m.Version())
	}
	return home.Addr, nil
}

// lacks reports whether shard routing is on and the home replica does
// not hold the request's subject: the router, not the replica, answers
// for it.
func (c *Client) lacks(req grbac.Request) bool {
	return c.shardRouting && !c.sys.HasSubject(req.Subject)
}

// missingHere reports whether a local answer failed because the home
// replica does not hold the request's subject.
func (c *Client) missingHere(req grbac.Request, err error) bool {
	return errors.Is(err, grbac.ErrNotFound) && c.lacks(req)
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
