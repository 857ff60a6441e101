package sdk

import (
	"context"
	"testing"

	"github.com/aware-home/grbac/internal/pdp"
)

// BenchmarkE21EmbeddedMediation is the experiment behind EXPERIMENTS.md
// E21 and benchguard guard 10: the same warm CheckAccess workload served
// in-process from the replicated snapshot versus over the HTTP round trip
// to the primary. The embedded path must stay allocation-free — it is the
// server's own zero-alloc cache hit running in the caller's address
// space — and the gap between the two is the QPS lever the SDK exists
// for (~ns vs ~µs).
func BenchmarkE21EmbeddedMediation(b *testing.B) {
	_, srv := newPrimary(b)
	c := newEmbedded(b, srv.URL)
	ctx := context.Background()
	req := permitReq()

	b.Run("embedded", func(b *testing.B) {
		if ok, err := c.CheckAccess(ctx, req); err != nil || !ok {
			b.Fatalf("warmup = %v, %v; want permit", ok, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ok, err := c.CheckAccess(ctx, req)
			if err != nil || !ok {
				b.Fatalf("CheckAccess = %v, %v", ok, err)
			}
		}
	})

	// The same hit from GOMAXPROCS goroutines at once: benchguard guard 6
	// runs it under the mutex profiler, where Puller.Stale, the decision
	// cache and the counters must show no lock.
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if ok, err := c.CheckAccess(ctx, req); err != nil || !ok {
					b.Errorf("CheckAccess = %v, %v", ok, err)
					return
				}
			}
		})
	})

	b.Run("remote", func(b *testing.B) {
		rc := pdp.NewClient(srv.URL, srv.Client())
		wreq := pdp.FromCoreRequest(req)
		if ok, err := rc.Check(ctx, wreq); err != nil || !ok {
			b.Fatalf("warmup = %v, %v; want permit", ok, err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ok, err := rc.Check(ctx, wreq)
			if err != nil || !ok {
				b.Fatalf("remote Check = %v, %v", ok, err)
			}
		}
	})
}
