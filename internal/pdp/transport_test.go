package pdp

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPooledTransportConfig pins the pool sizing of the shared transport.
// The regression this guards: http.DefaultTransport keeps only 2 idle
// connections per host (DefaultMaxIdleConnsPerHost), so a router or SDK
// fanning 8+ concurrent calls at one shard would tear down and re-dial
// almost every connection between bursts.
func TestPooledTransportConfig(t *testing.T) {
	hc := PooledHTTPClient()
	tr, ok := hc.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("pooled client transport is %T, want *http.Transport", hc.Transport)
	}
	if tr.MaxIdleConnsPerHost <= http.DefaultMaxIdleConnsPerHost {
		t.Fatalf("MaxIdleConnsPerHost = %d, must exceed the default %d",
			tr.MaxIdleConnsPerHost, http.DefaultMaxIdleConnsPerHost)
	}
	if tr.MaxIdleConnsPerHost < 64 {
		t.Fatalf("MaxIdleConnsPerHost = %d, want ≥ 64 for scatter fan-out", tr.MaxIdleConnsPerHost)
	}
	if tr.MaxConnsPerHost == 0 || tr.MaxConnsPerHost < tr.MaxIdleConnsPerHost {
		t.Fatalf("MaxConnsPerHost = %d, want a bound ≥ MaxIdleConnsPerHost %d",
			tr.MaxConnsPerHost, tr.MaxIdleConnsPerHost)
	}
	if tr.MaxIdleConns < tr.MaxIdleConnsPerHost {
		t.Fatalf("MaxIdleConns = %d < per-host %d", tr.MaxIdleConns, tr.MaxIdleConnsPerHost)
	}
	// NewClient with a nil http.Client must pick the pooled transport, not
	// http.DefaultClient.
	c := NewClient("http://example.invalid", nil)
	if c.http != pooledHTTPClient {
		t.Fatal("NewClient(nil) did not select the pooled HTTP client")
	}
	if PooledHTTPClient() != pooledHTTPClient {
		t.Fatal("PooledHTTPClient must return the shared instance")
	}
}

// TestConnectionReuseAcrossBursts proves connections are actually reused:
// repeated concurrent bursts against one server must ride kept-alive
// connections, not dial per request. Under the pre-pool default (2 idle
// conns/host) each 8-wide burst discarded 6 connections and the next
// burst re-dialed them: 26 connections for the 4 bursts below.
//
// net/http dials whenever a request finds no idle connection and does not
// cancel the dial when a connection returns to the pool first, and a
// response reaches its caller before its connection reaches the pool, so
// free-running bursts open spare connections and no count short of
// bursts × width is guaranteed for them. The test removes both races: the
// handler holds every response until the whole burst has arrived, so each
// request of a burst needs a connection of its own and no dial goes
// unused, and a burst starts only once the transport has taken back every
// connection of the one before (httptrace's PutIdleConn). The first burst
// then dials width connections and the later ones none.
func TestConnectionReuseAcrossBursts(t *testing.T) {
	const bursts, width = 4, 8
	var (
		conns   atomic.Int64
		mu      sync.Mutex
		arrived int
		gate    = make(chan struct{})
	)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		g := gate
		if arrived++; arrived == width {
			arrived, gate = 0, make(chan struct{})
			close(g)
		}
		mu.Unlock()
		select {
		case <-g:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	// A dedicated pooled transport so parallel tests can't share its conns.
	hc := &http.Client{Transport: PooledHTTPClient().Transport.(*http.Transport).Clone()}
	client := NewClient(srv.URL, hc)

	returned := make(chan struct{}, width) // one send per request of a burst
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		PutIdleConn: func(error) { returned <- struct{}{} },
	})
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		for i := 0; i < width; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !client.Healthy(ctx) {
					t.Error("health probe failed")
				}
			}()
		}
		wg.Wait()
		for i := 0; i < width; i++ {
			select {
			case <-returned:
			case <-ctx.Done():
				t.Fatalf("burst %d: %d of %d connections never returned to the pool", b, width-i, width)
			}
		}
	}

	if total := conns.Load(); total != width {
		t.Fatalf("%d bursts × %d requests opened %d connections — pool is not reusing (want %d)",
			bursts, width, total, width)
	}
}
