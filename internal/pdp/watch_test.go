package pdp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/shard"
)

// watchFeed is one endpoint serving internal/watch's long-poll.
type watchFeed struct {
	name    string
	handler http.Handler
	// url is the poll path plus whatever query the feed needs besides
	// after and wait, ending in "?" or "&".
	url     string
	version func() uint64
	publish func() error
	decode  func(body []byte) (uint64, error)
}

func replicaWatchFeed(t *testing.T) watchFeed {
	t.Helper()
	compiled, err := policy.Compile(serverPolicy)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem()
	if err := compiled.Apply(sys, nil); err != nil {
		t.Fatal(err)
	}
	src := replica.NewSource(sys)
	var n int
	return watchFeed{
		name:    "replica",
		handler: NewServer(sys, WithReplicaSource(src)),
		url:     replica.WatchPath + "?epoch=" + src.Epoch() + "&",
		version: sys.Generation,
		publish: func() error {
			n++
			return sys.AddSubject(core.SubjectID(fmt.Sprintf("watcher-%d", n)))
		},
		decode: func(body []byte) (uint64, error) {
			var r replica.WatchResponse
			err := json.Unmarshal(body, &r)
			if err == nil && r.Epoch != src.Epoch() {
				err = fmt.Errorf("reply epoch %q, want %q", r.Epoch, src.Epoch())
			}
			return r.Generation, err
		},
	}
}

func shardMapWatchFeed(t *testing.T) watchFeed {
	t.Helper()
	// The router never dials its shards here: the map watch reads the map
	// alone.
	m, err := shard.New(0, shard.Info{ID: "s0", Addr: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(m)
	if err != nil {
		t.Fatal(err)
	}
	return watchFeed{
		name:    "shard-map",
		handler: rt,
		url:     ShardMapWatchPath + "?",
		version: func() uint64 { return rt.feed.Load().Seq() },
		publish: func() error {
			cur := rt.Map()
			next, err := cur.Add(shard.Info{ID: fmt.Sprintf("s%d", cur.Len()), Addr: "http://127.0.0.1:1"})
			if err != nil {
				return err
			}
			return rt.SetMap(next)
		},
		decode: func(body []byte) (uint64, error) {
			var w shard.Wire
			err := json.Unmarshal(body, &w)
			return w.Seq(), err
		},
	}
}

// TestWatchContract runs the one long-poll contract against both
// endpoints that serve it. Each feed sits behind an http.Server whose
// WriteTimeout is shorter than a park, as grbacd's 15s WriteTimeout is
// shorter than the 25s poll cap.
func TestWatchContract(t *testing.T) {
	cases := []struct {
		name   string
		method string
		// query follows the feed's url; %d becomes the current version.
		query   string
		publish bool // move the feed 100ms into the poll
		status  int
		bumped  bool // the reply is a newer version than the poll started at
		// min and max bound how long the poll takes.
		min, max time.Duration
	}{
		{name: "stale after returns at once", query: "after=0",
			status: http.StatusOK, max: time.Second},
		{name: "parked poll wakes on publish", query: "after=%d&wait=10s", publish: true,
			status: http.StatusOK, bumped: true, min: 80 * time.Millisecond, max: 5 * time.Second},
		{name: "wait below cap is honoured", query: "after=%d&wait=100ms",
			status: http.StatusOK, min: 80 * time.Millisecond, max: 2 * time.Second},
		{name: "park outlasts write timeout", query: "after=%d&wait=500ms",
			status: http.StatusOK, min: 450 * time.Millisecond, max: 3 * time.Second},
		{name: "bad after", query: "after=banana", status: http.StatusBadRequest, max: time.Second},
		{name: "bogus wait", query: "wait=bogus", status: http.StatusBadRequest, max: time.Second},
		{name: "negative wait", query: "wait=-1s", status: http.StatusBadRequest, max: time.Second},
		{name: "non-GET", method: http.MethodPost, query: "after=0",
			status: http.StatusMethodNotAllowed, max: time.Second},
	}
	for _, f := range []watchFeed{replicaWatchFeed(t), shardMapWatchFeed(t)} {
		srv := httptest.NewUnstartedServer(f.handler)
		srv.Config.WriteTimeout = 200 * time.Millisecond
		srv.Start()
		t.Cleanup(srv.Close)
		for _, tc := range cases {
			t.Run(f.name+"/"+tc.name, func(t *testing.T) {
				start := f.version()
				query := tc.query
				if strings.Contains(query, "%d") {
					query = fmt.Sprintf(query, start)
				}
				method := tc.method
				if method == "" {
					method = http.MethodGet
				}
				req, err := http.NewRequest(method, srv.URL+f.url+query, nil)
				if err != nil {
					t.Fatal(err)
				}
				var published chan error
				if tc.publish {
					published = make(chan error, 1)
					time.AfterFunc(100*time.Millisecond, func() { published <- f.publish() })
				}
				began := time.Now()
				resp, err := srv.Client().Do(req)
				if err != nil {
					t.Fatalf("poll %s: %v", query, err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				took := time.Since(began)
				if err != nil {
					t.Fatalf("read reply: %v", err)
				}
				if published != nil {
					if err := <-published; err != nil {
						t.Fatalf("publish: %v", err)
					}
				}

				if resp.StatusCode != tc.status {
					t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Fatalf("Content-Type = %q", ct)
				}
				if took < tc.min || took > tc.max {
					t.Fatalf("poll took %v, want within [%v, %v]", took, tc.min, tc.max)
				}
				if tc.status != http.StatusOK {
					var e ErrorResponse
					if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
						t.Fatalf("error reply %s is not an error envelope (%v)", body, err)
					}
					return
				}
				got, err := f.decode(body)
				if err != nil {
					t.Fatalf("decode %s: %v", body, err)
				}
				if want := f.version(); got != want || (got > start) != tc.bumped {
					t.Fatalf("reply at version %d, started at %d, feed now at %d; want bumped=%v",
						got, start, want, tc.bumped)
				}
			})
		}
	}
}
