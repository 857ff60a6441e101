package declog

import (
	"context"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/guardtest"
)

// TestGuardDisabledDeclogHook is guard 13: the cost the pipeline adds to
// the audit hot path when declog is NOT configured, a nil *Exporter
// receiver. This is the shape grbacd compiles into every mediation when
// -declog is unset, so it must allocate nothing and cost at most 100 ns.
// Run with -v for the ns/op.
func TestGuardDisabledDeclogHook(t *testing.T) {
	var exp *Exporter
	rec := testRecord(1)
	guardtest.ZeroCost(t, 100, func() { exp.Offer(rec) })
}

// BenchmarkOffer measures the enabled hot-path handoff with a draining
// consumer: one atomic add plus a buffered channel send.
func BenchmarkOffer(b *testing.B) {
	sink := sinkFunc(func(ctx context.Context, c Chunk) error { return nil })
	exp := New(sink, WithBufferSize(1<<16), WithFlushInterval(10*time.Millisecond))
	defer exp.Close()
	rec := testRecord(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.Offer(rec)
	}
}

// BenchmarkEncodeChunk measures encoder throughput: JSONL + gzip per
// record, the bound on sustainable export rate.
func BenchmarkEncodeChunk(b *testing.B) {
	ce := newChunkEncoder(DefaultUploadSizeLimit)
	rec := testRecord(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ce.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
}
