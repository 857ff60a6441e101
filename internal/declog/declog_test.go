package declog

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/core"
)

func testRecord(seq uint64) audit.Record {
	return audit.Record{
		Seq:         seq,
		Time:        time.Unix(1700000000+int64(seq), 0).UTC(),
		Subject:     core.SubjectID(fmt.Sprintf("subject-%d", seq%7)),
		Object:      "front-door",
		Transaction: "unlock",
		Allowed:     seq%3 != 0,
		Effect:      "permit",
		Strategy:    "deny-overrides",
		Reason:      "matched rule granting unlock on front-door to residents",
	}
}

// memSink collects chunks in memory; fail makes Upload error while set.
type memSink struct {
	mu     sync.Mutex
	chunks []Chunk
	fail   atomic.Bool
	calls  atomic.Int64
}

func (s *memSink) Upload(ctx context.Context, c Chunk) error {
	s.calls.Add(1)
	if s.fail.Load() {
		return errors.New("sink stalled")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chunks = append(s.chunks, c)
	return nil
}

func (s *memSink) records(t *testing.T) []audit.Record {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []audit.Record
	for _, c := range s.chunks {
		recs, err := DecodeChunk(c.Data)
		if err != nil {
			t.Fatalf("DecodeChunk: %v", err)
		}
		if len(recs) != c.Records {
			t.Fatalf("chunk declares %d records, holds %d", c.Records, len(recs))
		}
		out = append(out, recs...)
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestExportRoundTrip(t *testing.T) {
	sink := &memSink{}
	exp := New(sink, WithFlushInterval(20*time.Millisecond))
	const n = 500
	for i := 1; i <= n; i++ {
		exp.Offer(testRecord(uint64(i)))
	}
	waitFor(t, "all records uploaded", func() bool {
		return exp.Stats().UploadedRecords == n
	})
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs := sink.records(t)
	if len(recs) != n {
		t.Fatalf("uploaded %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		want := testRecord(uint64(i + 1))
		if r.Seq != want.Seq || r.Subject != want.Subject || !r.Time.Equal(want.Time) {
			t.Fatalf("record %d round-tripped as %+v, want %+v", i, r, want)
		}
	}
	st := exp.Stats()
	if st.Dropped != 0 {
		t.Fatalf("unexpected drops: %+v", st)
	}
	if st.Received != n || st.Encoded != n {
		t.Fatalf("accounting off: %+v", st)
	}
}

func TestCloseFlushesPartialChunk(t *testing.T) {
	sink := &memSink{}
	// A huge flush interval: only Close can seal the partial chunk.
	exp := New(sink, WithFlushInterval(time.Hour))
	for i := 1; i <= 17; i++ {
		exp.Offer(testRecord(uint64(i)))
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := len(sink.records(t)); got != 17 {
		t.Fatalf("flushed %d records on close, want 17", got)
	}
}

// TestStalledSinkShedsWithCounter is the headline contract: a sink that
// stops accepting uploads must never block Offer; records are shed and
// every loss is counted; when the sink recovers, uploads resume.
func TestStalledSinkShedsWithCounter(t *testing.T) {
	sink := &memSink{}
	sink.fail.Store(true)
	exp := New(sink,
		WithBufferSize(32),
		WithFlushInterval(5*time.Millisecond),
		func(e *Exporter) {
			e.maxPending, e.uploadLimit = 2, 1024
			e.boMin, e.boMax = 5*time.Millisecond, 20*time.Millisecond
		},
	)
	defer exp.Close()

	// Flood while stalled. Offer must return promptly every time.
	const flood = 20000
	start := time.Now()
	for i := 1; i <= flood; i++ {
		exp.Offer(testRecord(uint64(i)))
	}
	floodTook := time.Since(start)
	if floodTook > 2*time.Second {
		t.Fatalf("flood of %d Offers took %v; Offer is blocking on the stalled sink", flood, floodTook)
	}
	waitFor(t, "drops counted under stall", func() bool {
		return exp.Stats().Dropped > 0
	})
	waitFor(t, "upload failures observed", func() bool {
		return exp.Stats().UploadFailures > 0
	})
	if got := exp.Stats().UploadedRecords; got != 0 {
		t.Fatalf("uploads succeeded while sink stalled: %d", got)
	}

	// Recover the sink; the pipeline must resume without intervention.
	sink.fail.Store(false)
	for i := flood + 1; i <= flood+200; i++ {
		exp.Offer(testRecord(uint64(i)))
	}
	waitFor(t, "uploads resume after recovery", func() bool {
		return exp.Stats().UploadedRecords > 0
	})
	if err := exp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st := exp.Stats()
	shipped := uint64(len(sink.records(t)))
	if st.UploadedRecords != shipped {
		t.Fatalf("stats claim %d uploaded, sink holds %d", st.UploadedRecords, shipped)
	}
	// Conservation after Close (pipeline fully drained): every offered
	// record is either delivered or counted dropped.
	if st.UploadedRecords+st.Dropped != st.Received {
		t.Fatalf("records leaked: received=%d uploaded=%d dropped=%d",
			st.Received, st.UploadedRecords, st.Dropped)
	}
}

func TestOfferNeverBlocksWithoutConsumer(t *testing.T) {
	// A sink that hangs until the test ends: the uploader wedges on the
	// first chunk, the queue fills, and Offer must still be non-blocking.
	release := make(chan struct{})
	defer close(release)
	hang := sinkFunc(func(ctx context.Context, c Chunk) error {
		<-release
		return errors.New("gone")
	})
	exp := New(hang,
		WithBufferSize(8),
		WithFlushInterval(time.Millisecond),
		func(e *Exporter) { e.maxPending, e.uploadLimit = 1, 1024 },
	)
	defer exp.Close()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50000; i++ {
			exp.Offer(testRecord(uint64(i)))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Offer blocked behind a hung sink")
	}
	if exp.Stats().Dropped == 0 {
		t.Fatal("expected drops while the sink hangs")
	}
}

type sinkFunc func(ctx context.Context, c Chunk) error

func (f sinkFunc) Upload(ctx context.Context, c Chunk) error { return f(ctx, c) }

func TestNilExporterIsInert(t *testing.T) {
	var exp *Exporter
	exp.Offer(testRecord(1))
	if st := exp.Stats(); st != (Stats{}) {
		t.Fatalf("nil exporter stats = %+v", st)
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestAdaptiveChunkSizing(t *testing.T) {
	ce := newChunkEncoder(2048)
	if ce.SoftLimit() != 2048 {
		t.Fatalf("initial soft limit %d", ce.SoftLimit())
	}
	// Highly repetitive records compress hard: sealed chunks come out far
	// under the limit, so the threshold must grow.
	var sealed int
	for i := 0; sealed < 3 && i < 100000; i++ {
		_, ok, err := ce.Write(testRecord(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			sealed++
		}
	}
	if sealed < 3 {
		t.Fatal("encoder never sealed")
	}
	if ce.SoftLimit() <= 2048 {
		t.Fatalf("soft limit did not adapt upward: %d", ce.SoftLimit())
	}
}

// TestSoftLimitCeiling regression-tests the growth overflow: a ticker
// paced trickle seals a tiny chunk on every Flush, growing the threshold
// each time; unbounded 1.25x steps eventually overflowed int64 to a
// negative soft limit, after which every record sealed its own chunk.
func TestSoftLimitCeiling(t *testing.T) {
	ce := newChunkEncoder(2048)
	for i := 0; i < 500; i++ {
		if _, _, err := ce.Write(testRecord(uint64(i))); err != nil {
			t.Fatal(err)
		}
		ce.Flush()
	}
	if got, max := ce.SoftLimit(), int64(2048*maxSoftLimitFactor); got <= 0 || got > max {
		t.Fatalf("soft limit %d outside (0, %d] after 500 tiny seals", got, max)
	}
}

func TestChunkEncoderFlushEmpty(t *testing.T) {
	ce := newChunkEncoder(2048)
	if _, ok := ce.Flush(); ok {
		t.Fatal("empty encoder sealed a chunk")
	}
}

func TestHTTPSink(t *testing.T) {
	var got atomic.Int64
	var mu sync.Mutex
	var bodies [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Encoding") != "gzip" {
			t.Errorf("missing gzip content-encoding")
		}
		body := make([]byte, r.ContentLength)
		r.Body.Read(body)
		mu.Lock()
		bodies = append(bodies, body)
		mu.Unlock()
		got.Add(1)
	}))
	defer srv.Close()

	sink := NewHTTPSink(srv.URL, nil)
	exp := New(sink, WithFlushInterval(10*time.Millisecond))
	for i := 1; i <= 50; i++ {
		exp.Offer(testRecord(uint64(i)))
	}
	waitFor(t, "http sink received uploads", func() bool {
		return exp.Stats().UploadedRecords == 50
	})
	exp.Close()

	mu.Lock()
	defer mu.Unlock()
	var n int
	for _, b := range bodies {
		recs, err := DecodeChunk(b)
		if err != nil {
			t.Fatalf("collector cannot decode chunk: %v", err)
		}
		n += len(recs)
	}
	if n != 50 {
		t.Fatalf("collector decoded %d records, want 50", n)
	}
}

func TestHTTPSinkRejectsNon2xx(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "full", http.StatusInsufficientStorage)
	}))
	defer srv.Close()
	sink := NewHTTPSink(srv.URL, nil)
	if err := sink.Upload(context.Background(), Chunk{Data: []byte("x"), Records: 1}); err == nil {
		t.Fatal("non-2xx upload did not error")
	}
}

func TestFileSinkResumesNumbering(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewFileSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Upload(context.Background(), Chunk{Data: []byte("a"), Records: 1}); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewFileSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.Upload(context.Background(), Chunk{Data: []byte("b"), Records: 1}); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "chunk-*.jsonl.gz"))
	if len(files) != 2 {
		t.Fatalf("restart overwrote chunks: %v", files)
	}
}

// TestFileSinkNumbersPastPadding pins resume numbering once the six-digit
// padding runs out: chunk-1000000 sorts before chunk-999999, and a sink
// that resumed from the lexically last name would rename over
// chunk-1000000.
func TestFileSinkNumbersPastPadding(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{"chunk-999999.jsonl.gz": "old", "chunk-1000000.jsonl.gz": "newest"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sink, err := NewFileSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Upload(context.Background(), Chunk{Data: []byte("next"), Records: 1}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"chunk-1000000.jsonl.gz": "newest", "chunk-1000001.jsonl.gz": "next"} {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != want {
			t.Fatalf("%s = %q, %v; want %q", name, got, err, want)
		}
	}
}

func TestParseSink(t *testing.T) {
	if _, err := ParseSink(""); err == nil {
		t.Fatal("empty spec accepted")
	}
	s, err := ParseSink("http://collector:9000/logs")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*HTTPSink); !ok {
		t.Fatalf("http spec built %T", s)
	}
	dir := t.TempDir()
	s, err = ParseSink("file://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	fs, ok := s.(*FileSink)
	if !ok {
		t.Fatalf("file spec built %T", s)
	}
	if fs.Dir() != dir {
		t.Fatalf("file sink rooted at %s, want %s", fs.Dir(), dir)
	}
	if _, err := ParseSink(filepath.Join(dir, "sub")); err != nil {
		t.Fatalf("bare path spec: %v", err)
	}
}
