package declog

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/aware-home/grbac/internal/disk"
)

// Sink is where sealed chunks go. Upload must be safe for sequential reuse
// and should return an error for any delivery that may not have landed —
// the pipeline retries with backoff and counts what it finally sheds.
type Sink interface {
	Upload(ctx context.Context, c Chunk) error
}

// ParseSink builds a sink from an operator-facing spec, as accepted by
// grbacd's -declog flag:
//
//	http://collector:9000/logs   POST each chunk (gzip body)
//	https://collector/logs       same, over TLS
//	file:///var/log/grbac        numbered chunk files in the directory
//	/var/log/grbac               same (bare paths mean a directory)
func ParseSink(spec string) (Sink, error) {
	switch {
	case spec == "":
		return nil, fmt.Errorf("declog: empty sink spec")
	case strings.HasPrefix(spec, "http://"), strings.HasPrefix(spec, "https://"):
		return NewHTTPSink(spec, nil), nil
	case strings.HasPrefix(spec, "file://"):
		return NewFileSink(strings.TrimPrefix(spec, "file://"))
	default:
		return NewFileSink(spec)
	}
}

// HTTPSink POSTs each chunk to a collector endpoint with the gzip body
// as-is (Content-Encoding: gzip), the OPA decision-log wire shape adapted
// to JSONL. Any non-2xx status is a failed delivery.
type HTTPSink struct {
	url    string
	client *http.Client
}

// NewHTTPSink builds an HTTP sink; a nil client selects one with a 10s
// timeout so a black-holed collector fails an attempt instead of pinning
// the uploader forever.
func NewHTTPSink(url string, client *http.Client) *HTTPSink {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &HTTPSink{url: url, client: client}
}

// Upload ships one chunk.
func (s *HTTPSink) Upload(ctx context.Context, c Chunk) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, strings.NewReader(string(c.Data)))
	if err != nil {
		return fmt.Errorf("declog: build upload: %w", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("declog: upload: %w", err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("declog: collector answered %s", resp.Status)
	}
	return nil
}

// FileSink writes each chunk as a numbered file in a directory —
// chunk-000001.jsonl.gz, chunk-000002.jsonl.gz, … It is the air-gapped /
// development sink; a collector is just `declog.DecodeChunk` over the
// directory in numeric order.
type FileSink struct {
	mu   sync.Mutex
	dir  string
	next int
}

const chunkFilePattern = "chunk-%06d.jsonl.gz"

// NewFileSink builds a file sink rooted at dir (created if missing). It
// resumes numbering after the highest-numbered chunk file already
// present, so a restarted grbacd appends rather than overwrites.
func NewFileSink(dir string) (*FileSink, error) {
	if dir == "" {
		return nil, fmt.Errorf("declog: empty sink directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("declog: create sink directory: %w", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "chunk-*.jsonl.gz"))
	if err != nil {
		return nil, fmt.Errorf("declog: list chunks: %w", err)
	}
	s := &FileSink{dir: dir}
	// Parse every name: past 999999 the padding runs out, and
	// chunk-1000000 sorts before chunk-999999.
	for _, f := range files {
		num := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "chunk-"), ".jsonl.gz")
		if n, err := strconv.Atoi(num); err == nil && n > s.next {
			s.next = n
		}
	}
	return s, nil
}

// Upload writes one chunk file through disk.WriteFile's temp file and
// rename, so a reader never sees a partial chunk. It skips the fsyncs:
// chunks written shortly before a power loss may be lost.
func (s *FileSink) Upload(ctx context.Context, c Chunk) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	name := filepath.Join(s.dir, fmt.Sprintf(chunkFilePattern, s.next+1))
	if err := disk.WriteFile(name, c.Data, false); err != nil {
		return fmt.Errorf("declog: write chunk: %w", err)
	}
	s.next++
	return nil
}

// Dir returns the sink's directory.
func (s *FileSink) Dir() string { return s.dir }
