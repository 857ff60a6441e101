package declog

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"

	"github.com/aware-home/grbac/internal/audit"
)

// DefaultUploadSizeLimit is the target compressed chunk size in bytes,
// matching OPA's decision-log default: large enough to amortize one upload
// round trip, small enough that a dropped chunk loses a bounded slice of
// history.
const DefaultUploadSizeLimit int64 = 32768

// minChunkSize floors both the configured upload limit and the adaptive
// soft limit, so pathological configuration or a run of incompressible
// records cannot shrink chunks to one record each.
const minChunkSize int64 = 1024

// softLimitGrowth and softLimitShrink are the adaptive step factors: after
// sealing a chunk the encoder compares the achieved compressed size to the
// upload limit and scales its uncompressed threshold toward the target.
// maxSoftLimitFactor ceilings the threshold at that multiple of the upload
// limit: a ticker-flushed trickle of tiny chunks grows the threshold on
// every seal, and without the ceiling the repeated 1.25x steps overflow
// int64 (observed as a negative soft limit, which then sealed a chunk per
// record). Gzip on JSONL stays well under 1024x, so the ceiling never
// binds on a converging workload.
const (
	softLimitGrowth    = 1.25
	softLimitShrink    = 0.75
	maxSoftLimitFactor = 1024
)

// Chunk is one sealed upload unit: gzip-compressed JSONL (one audit record
// per line) plus the record count the accounting needs when the chunk is
// shipped or shed.
type Chunk struct {
	// Data is the gzip-compressed JSONL payload.
	Data []byte
	// Records is how many audit records Data contains.
	Records int
}

// chunkEncoder packs audit records into gzip-compressed JSONL chunks. It
// targets the compressed upload limit by adapting an uncompressed
// threshold (the "soft limit"): compression ratios drift with workload
// shape, so after each seal the threshold is scaled up when the chunk came
// out small and down when it overshot — OPA's adaptive-sizing scheme.
// Records are appended to the open chunk's JSONL by audit's one record
// encoder and compressed when the chunk seals, at gzip.BestSpeed: a fixed
// choice that costs decision records about 2.5x less CPU than the default
// level for a compression ratio of ~8 instead of ~11, which the adaptive
// soft limit absorbs (DESIGN.md §15). Not safe for concurrent use; the
// encoder goroutine owns it.
type chunkEncoder struct {
	limit int64  // target compressed bytes per chunk
	soft  int64  // adaptive uncompressed threshold
	jsonl []byte // the open chunk, uncompressed
	n     int    // records in the open chunk
	buf   bytes.Buffer
	gz    *gzip.Writer
}

func newChunkEncoder(limit int64) *chunkEncoder {
	if limit < minChunkSize {
		limit = minChunkSize
	}
	ce := &chunkEncoder{limit: limit, soft: limit}
	// NewWriterLevel fails only on an invalid level.
	ce.gz, _ = gzip.NewWriterLevel(&ce.buf, gzip.BestSpeed)
	return ce
}

// Write encodes one record into the open chunk. When the chunk crosses the
// soft limit it is sealed and returned with sealed=true.
func (ce *chunkEncoder) Write(rec audit.Record) (Chunk, bool, error) {
	line, err := rec.AppendJSON(ce.jsonl)
	if err != nil {
		return Chunk{}, false, fmt.Errorf("declog: encode record: %w", err)
	}
	ce.jsonl = append(line, '\n')
	ce.n++
	if int64(len(ce.jsonl)) < ce.soft {
		return Chunk{}, false, nil
	}
	c, ok := ce.Flush()
	return c, ok, nil
}

// Flush seals the open chunk (if it holds any records), adapts the soft
// limit from the achieved compression, and resets for the next chunk.
func (ce *chunkEncoder) Flush() (Chunk, bool) {
	if ce.n == 0 {
		return Chunk{}, false
	}
	// Write and Close cannot fail on a bytes.Buffer destination.
	_, _ = ce.gz.Write(ce.jsonl)
	_ = ce.gz.Close()
	compressed := int64(ce.buf.Len())
	c := Chunk{
		Data:    append([]byte(nil), ce.buf.Bytes()...),
		Records: ce.n,
	}
	// Adapt: overshooting the upload limit shrinks the threshold;
	// undershooting 90% of it grows the threshold. The band in between is
	// "close enough" and left alone so the limit converges instead of
	// oscillating.
	switch {
	case compressed > ce.limit:
		ce.soft = int64(float64(ce.soft) * softLimitShrink)
		if ce.soft < minChunkSize {
			ce.soft = minChunkSize
		}
	case compressed*10 < ce.limit*9:
		ce.soft = int64(float64(ce.soft) * softLimitGrowth)
		if max := ce.limit * maxSoftLimitFactor; ce.soft > max || ce.soft < 0 {
			ce.soft = max
		}
	}
	ce.buf.Reset()
	ce.gz.Reset(&ce.buf)
	ce.jsonl = ce.jsonl[:0]
	ce.n = 0
	return c, true
}

// SoftLimit reports the current adaptive threshold, for stats.
func (ce *chunkEncoder) SoftLimit() int64 { return ce.soft }

// DecodeChunk unpacks one uploaded chunk back into audit records — the
// collector-side inverse of the encoder, used by tests, the smoke drill,
// and anyone consuming a FileSink directory.
func DecodeChunk(data []byte) ([]audit.Record, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("declog: open chunk: %w", err)
	}
	defer zr.Close()
	recs, err := audit.ReadJSON(zr)
	if err != nil {
		return nil, fmt.Errorf("declog: decode chunk: %w", err)
	}
	if err := zr.Close(); err != nil && err != io.EOF {
		return nil, fmt.Errorf("declog: chunk gzip stream: %w", err)
	}
	return recs, nil
}
