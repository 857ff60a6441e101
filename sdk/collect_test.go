//go:build go1.24

package sdk

import (
	"context"
	"runtime"
	"testing"
	"time"
	"weak"

	"github.com/aware-home/grbac/internal/replica"
)

// TestStaleClosedClientIsCollected: the staleness timer of a closed client
// holds only its staleness state, so once the client is dropped its System
// (snapshot and caches) is collectable while the default 30 s deadline is
// still pending on the real clock.
func TestStaleClosedClientIsCollected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := New(ctx, "", WithLogger(quiet),
		WithFetcher(&localSource{src: replica.NewSource(compileSystem(t))}))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := c.CheckAccess(ctx, permitReq()); err != nil || !ok {
		t.Fatalf("CheckAccess = %v, %v; want permit", ok, err)
	}
	sys := weak.Make(c.System())
	c.Close()
	c = nil
	for i := 0; i < 10 && sys.Value() != nil; i++ {
		runtime.GC()
	}
	if sys.Value() != nil {
		t.Fatal("a closed, dropped client's System is still reachable while its staleness deadline is pending")
	}
}
