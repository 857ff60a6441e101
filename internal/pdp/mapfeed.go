package pdp

import (
	"context"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/aware-home/grbac/internal/retry"
	"github.com/aware-home/grbac/internal/shard"
	"github.com/aware-home/grbac/internal/watch"
)

// MapFeed follows a router's shard-map feed (ShardMapWatchPath): the
// committed map and, while a rebalance runs, its pending map. A shard's
// ownership rule runs on it.
type MapFeed struct {
	router  *Client
	logger  *log.Logger
	view    atomic.Pointer[MapView]
	changed watch.Notifier
}

// MapView is one state of the feed; Pending is nil outside a rebalance.
type MapView struct {
	Committed, Pending *shard.Map
	seq                uint64
}

// mapWatchWait is how long one watch parks on the router, which wakes it
// on every publication: it bounds only the idle re-poll cadence.
const mapWatchWait = 20 * time.Second

// NewMapFeed builds a follower of the router at routerURL; Run follows
// it.
func NewMapFeed(routerURL string, logger *log.Logger) *MapFeed {
	return &MapFeed{router: NewClient(routerURL, nil), logger: logger}
}

// View returns the installed view, nil before the first fetch.
func (f *MapFeed) View() *MapView { return f.view.Load() }

// Run follows the feed until ctx is done, backing off with jitter while
// the router is unreachable.
func (f *MapFeed) Run(ctx context.Context) {
	bo := retry.Backoff{Min: 100 * time.Millisecond, Max: 5 * time.Second}
	for {
		err := f.Poll(ctx)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			bo.Reset()
			continue
		}
		f.logger.Printf("shard map watch: %v (retrying in ~%v)", err, bo.Current())
		if !bo.Sleep(ctx) {
			return
		}
	}
}

// Poll parks one watch on the router and installs the view it answers
// with, if that is past the installed one. The first Poll answers at once.
func (f *MapFeed) Poll(ctx context.Context) error {
	var after uint64
	if v := f.view.Load(); v != nil {
		after = v.seq
	}
	path := ShardMapWatchPath + "?after=" + strconv.FormatUint(after, 10) + "&wait=" + mapWatchWait.String()
	wctx, cancel := context.WithTimeout(ctx, mapWatchWait+10*time.Second)
	defer cancel()
	var w shard.Wire
	if err := f.router.Call(wctx, http.MethodGet, path, nil, &w); err != nil {
		return err
	}
	v := &MapView{seq: w.Seq()}
	var err error
	if v.Committed, err = shard.FromWire(w); err == nil && w.Pending != nil {
		v.Pending, err = shard.FromWire(*w.Pending)
	}
	// A router restarted mid-rebalance serves its committed map alone
	// until the coordinator republishes pending: views never go back.
	if err != nil || v.seq <= after {
		return err
	}
	f.view.Store(v)
	f.changed.Publish(v.seq)
	f.logger.Printf("shard map v%d installed (%d shards, pending %v)", v.Committed.Version(), v.Committed.Len(), v.Pending != nil)
	return nil
}

// await blocks until ok holds for the installed view or ctx is done.
func (f *MapFeed) await(ctx context.Context, ok func(*MapView) bool) error {
	for {
		ch := f.changed.Changed()
		if v := f.view.Load(); v != nil && ok(v) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}
