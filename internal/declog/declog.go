// Package declog is the production decision-log export pipeline: a
// bounded, asynchronous bridge between the audit hot path and an external
// log sink, modeled on OPA's decision-log plugin. The mediation path hands
// each audit record to Offer, which never blocks — records flow through a
// bounded intake channel into a gzip-chunked JSONL encoder with adaptive
// chunk sizing, and sealed chunks are uploaded in batches to a configurable
// sink (an HTTP collector or local numbered files) with shared
// retry backoff. Under sustained pressure the pipeline sheds load by
// dropping — first at the intake channel, then the oldest sealed chunk —
// and every dropped record is counted (grbac_declog_dropped_total), so
// audit loss at scale is measured, never silent. This closes the paper's
// §3 assurance gap for high-QPS PDPs: the in-memory audit ring answers
// interactive queries while declog streams the full decision history out.
package declog

import (
	"context"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/faults"
	"github.com/aware-home/grbac/internal/retry"
)

// Defaults. Buffer sizes bound worst-case memory: the intake channel holds
// DefaultBufferSize records and the chunk queue holds DefaultMaxPendingChunks
// compressed chunks of roughly DefaultUploadSizeLimit each. Only the buffer
// size and the flush interval are settable; the rest are fixed.
const (
	// DefaultBufferSize is the intake channel capacity in records.
	DefaultBufferSize = 4096
	// DefaultMaxPendingChunks bounds sealed chunks awaiting upload; beyond
	// it the oldest chunk is dropped (and its records counted).
	DefaultMaxPendingChunks = 16
	// DefaultFlushInterval seals a partial chunk after this much quiet time
	// so a low-QPS PDP still exports promptly.
	DefaultFlushInterval = time.Second
	// DefaultBackoffMin and DefaultBackoffMax bound the upload retry
	// schedule (exponential with full jitter, via internal/retry).
	DefaultBackoffMin = 100 * time.Millisecond
	DefaultBackoffMax = 10 * time.Second
	// DefaultCloseTimeout caps how long Close waits for the final flush.
	DefaultCloseTimeout = 5 * time.Second
)

// Exporter is the pipeline instance. All methods are safe for concurrent
// use, and every method is nil-receiver safe so callers can thread an
// optional exporter without guarding each call site — a nil Exporter is
// the disabled pipeline, and its Offer is a single pointer check.
type Exporter struct {
	sink   Sink
	logger *log.Logger

	ch        chan audit.Record // intake: Offer -> encoder
	chunks    chan Chunk        // sealed: encoder -> uploader
	stop      chan struct{}
	encDone   chan struct{}
	upDone    chan struct{}
	closeOnce sync.Once
	stopping  atomic.Bool

	bufferSize   int
	maxPending   int
	uploadLimit  int64
	flushEvery   time.Duration
	boMin, boMax time.Duration
	closeTimeout time.Duration

	received        atomic.Uint64
	dropped         atomic.Uint64
	droppedChunks   atomic.Uint64
	encoded         atomic.Uint64
	uploadedRecords atomic.Uint64
	uploadedChunks  atomic.Uint64
	uploadFailures  atomic.Uint64
	retries         atomic.Uint64
	pendingRecords  atomic.Int64
	softLimit       atomic.Int64
}

// Option configures an Exporter.
type Option func(*Exporter)

// WithBufferSize sets the intake channel capacity in records (default
// DefaultBufferSize); n < 1 keeps the default.
func WithBufferSize(n int) Option {
	return func(e *Exporter) {
		if n >= 1 {
			e.bufferSize = n
		}
	}
}

// WithFlushInterval sets how long a partial chunk may sit before being
// sealed and queued anyway (default DefaultFlushInterval).
func WithFlushInterval(d time.Duration) Option {
	return func(e *Exporter) {
		if d > 0 {
			e.flushEvery = d
		}
	}
}

// WithLogger sets the exporter's logger (default log.Default()).
func WithLogger(l *log.Logger) Option {
	return func(e *Exporter) { e.logger = l }
}

// New builds an exporter over sink and starts its encoder and uploader
// goroutines. Callers own the sink's lifetime; Close flushes and stops the
// pipeline but does not close the sink.
func New(sink Sink, opts ...Option) *Exporter {
	e := &Exporter{
		sink:         sink,
		logger:       log.Default(),
		bufferSize:   DefaultBufferSize,
		maxPending:   DefaultMaxPendingChunks,
		uploadLimit:  DefaultUploadSizeLimit,
		flushEvery:   DefaultFlushInterval,
		boMin:        DefaultBackoffMin,
		boMax:        DefaultBackoffMax,
		closeTimeout: DefaultCloseTimeout,
	}
	for _, opt := range opts {
		opt(e)
	}
	e.ch = make(chan audit.Record, e.bufferSize)
	e.chunks = make(chan Chunk, e.maxPending)
	e.stop = make(chan struct{})
	e.encDone = make(chan struct{})
	e.upDone = make(chan struct{})
	e.softLimit.Store(e.uploadLimit)
	go e.encodeLoop()
	go e.uploadLoop()
	return e
}

// Offer hands one decision record to the pipeline. It never blocks: when
// the intake buffer is full the record is dropped and counted. A nil
// receiver (the disabled pipeline) is a no-op — this is the hook threaded
// into the audit hot path, so the disabled cost must stay at nanoseconds.
func (e *Exporter) Offer(rec audit.Record) {
	if e == nil {
		return
	}
	e.received.Add(1)
	if e.stopping.Load() {
		e.dropped.Add(1)
		return
	}
	select {
	case e.ch <- rec:
	default:
		e.dropped.Add(1)
	}
}

// encodeLoop drains the intake channel into the chunk encoder, sealing
// chunks at the adaptive size threshold or on the flush ticker.
func (e *Exporter) encodeLoop() {
	defer close(e.encDone)
	enc := newChunkEncoder(e.uploadLimit)
	ticker := time.NewTicker(e.flushEvery)
	defer ticker.Stop()
	for {
		select {
		case rec := <-e.ch:
			e.encode(enc, rec)
		case <-ticker.C:
			if c, ok := enc.Flush(); ok {
				e.push(c)
			}
			e.softLimit.Store(enc.SoftLimit())
		case <-e.stop:
			// Drain what Offer already accepted, seal the tail, and hand
			// the last chunks to the uploader before signalling it to stop.
			for {
				select {
				case rec := <-e.ch:
					e.encode(enc, rec)
				default:
					if c, ok := enc.Flush(); ok {
						e.push(c)
					}
					close(e.chunks)
					return
				}
			}
		}
	}
}

func (e *Exporter) encode(enc *chunkEncoder, rec audit.Record) {
	c, sealed, err := enc.Write(rec)
	if err != nil {
		// A record that cannot be JSON-encoded is lost; count it like any
		// other drop so the loss is visible.
		e.dropped.Add(1)
		e.logf("declog: encode record %d: %v", rec.Seq, err)
		return
	}
	e.encoded.Add(1)
	if sealed {
		e.push(c)
		e.softLimit.Store(enc.SoftLimit())
	}
}

// push queues a sealed chunk for upload, dropping the oldest pending chunk
// (with its records counted) when the queue is full. The encoder is the
// only producer, so pop-then-retry always terminates.
func (e *Exporter) push(c Chunk) {
	for {
		select {
		case e.chunks <- c:
			e.pendingRecords.Add(int64(c.Records))
			return
		default:
		}
		select {
		case old := <-e.chunks:
			e.pendingRecords.Add(-int64(old.Records))
			e.dropped.Add(uint64(old.Records))
			e.droppedChunks.Add(1)
			e.logf("declog: chunk queue full, dropped oldest chunk (%d records)", old.Records)
		default:
		}
	}
}

// uploadLoop ships sealed chunks to the sink, retrying with backoff. It
// exits when the encoder closes the chunk queue during shutdown; chunks
// that still fail then are counted dropped.
func (e *Exporter) uploadLoop() {
	defer close(e.upDone)
	for c := range e.chunks {
		e.pendingRecords.Add(-int64(c.Records))
		if e.uploadChunk(c) {
			e.uploadedChunks.Add(1)
			e.uploadedRecords.Add(uint64(c.Records))
		} else {
			e.dropped.Add(uint64(c.Records))
			e.droppedChunks.Add(1)
		}
	}
}

// uploadChunk attempts one chunk until it succeeds or shutdown interrupts
// the retry sleep. While it retries, the bounded chunk queue behind it
// absorbs (and, past its bound, sheds) new chunks — a stalled sink
// therefore costs drops, never Decide-path latency.
func (e *Exporter) uploadChunk(c Chunk) bool {
	bo := retry.New(e.boMin, e.boMax, DefaultBackoffMin)
	for {
		err := faults.Inject(faults.DeclogUpload)
		if err == nil {
			err = e.sink.Upload(context.Background(), c)
		}
		if err == nil {
			return true
		}
		e.uploadFailures.Add(1)
		e.logf("declog: upload %d records (%d bytes): %v (retrying in ~%v)",
			c.Records, len(c.Data), err, bo.Current())
		t := time.NewTimer(bo.Delay())
		select {
		case <-e.stop:
			t.Stop()
			return false
		case <-t.C:
			e.retries.Add(1)
		}
	}
}

// Close flushes buffered records, attempts a final upload of every sealed
// chunk (one try each once the retry budget is cut), and stops the
// pipeline. It waits at most the close timeout; records that could not be
// shipped are counted dropped. Safe to call multiple times and on nil.
func (e *Exporter) Close() error {
	if e == nil {
		return nil
	}
	e.closeOnce.Do(func() {
		e.stopping.Store(true)
		close(e.stop)
	})
	t := time.NewTimer(e.closeTimeout)
	defer t.Stop()
	select {
	case <-e.upDone:
	case <-t.C:
		e.logf("declog: close timed out after %v with uploads still pending", e.closeTimeout)
	}
	return nil
}

func (e *Exporter) logf(format string, args ...any) {
	if e.logger != nil {
		e.logger.Printf(format, args...)
	}
}

// Stats is a point-in-time snapshot of the pipeline's accounting. The
// conservation law under load:
//
//	Received = Uploaded + Dropped + in-flight (intake + open chunk + queue)
//
// so a stalled sink shows up as Dropped growing while Uploaded stalls —
// loss is measured, never silent.
type Stats struct {
	// Received counts records offered to the pipeline.
	Received uint64 `json:"received"`
	// Dropped counts records lost anywhere in the pipeline: intake
	// overflow, chunk-queue overflow, encode failure, or shutdown.
	Dropped uint64 `json:"dropped"`
	// DroppedChunks counts sealed chunks shed whole.
	DroppedChunks uint64 `json:"dropped_chunks"`
	// Encoded counts records written into a chunk.
	Encoded uint64 `json:"encoded"`
	// UploadedRecords and UploadedChunks count successful sink deliveries.
	UploadedRecords uint64 `json:"uploaded_records"`
	UploadedChunks  uint64 `json:"uploaded_chunks"`
	// UploadFailures counts failed upload attempts; Retries counts the
	// backoff sleeps that completed before the next attempt.
	UploadFailures uint64 `json:"upload_failures"`
	Retries        uint64 `json:"retries"`
	// PendingChunks and PendingRecords describe the sealed-but-unshipped
	// backlog.
	PendingChunks  int `json:"pending_chunks"`
	PendingRecords int `json:"pending_records"`
	// ChunkSoftLimit is the adaptive uncompressed-bytes threshold the
	// encoder currently seals chunks at.
	ChunkSoftLimit int64 `json:"chunk_soft_limit_bytes"`
}

// Stats snapshots the pipeline counters. Safe on nil (all zeros).
func (e *Exporter) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	pending := e.pendingRecords.Load()
	if pending < 0 {
		pending = 0
	}
	return Stats{
		Received:        e.received.Load(),
		Dropped:         e.dropped.Load(),
		DroppedChunks:   e.droppedChunks.Load(),
		Encoded:         e.encoded.Load(),
		UploadedRecords: e.uploadedRecords.Load(),
		UploadedChunks:  e.uploadedChunks.Load(),
		UploadFailures:  e.uploadFailures.Load(),
		Retries:         e.retries.Load(),
		PendingChunks:   len(e.chunks),
		PendingRecords:  int(pending),
		ChunkSoftLimit:  e.softLimit.Load(),
	}
}
