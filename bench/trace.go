package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/declog"
	"github.com/aware-home/grbac/internal/replica"
)

// Span names. Each is one layer boundary the public API lets the benchmark
// wrap from outside; a layer's self time is its span minus its children.
const (
	spanRoot     = "root"         // the caller's whole call
	spanClientRT = "client.rt"    // RoundTrip under the caller's pdp.Client
	spanRouter   = "router.serve" // Router.ServeHTTP
	spanRouterRT = "router.rt"    // RoundTrip under the router's shard client
	spanServer   = "server.serve" // Server.ServeHTTP
	spanOffer    = "declog.offer" // the audit export hook into declog
	bgUpload     = "declog.upload"
	bgFetchDelta = "replica.delta"
	bgFetchSnap  = "replica.snapshot"
	opDecide     = "decide"
	opSession    = "session"
	opFlip       = "flip"
)

// span is one timed interval of one operation. With a single operation in
// flight, spans nest by interval containment: the router does not forward
// correlation IDs, so there is nothing else to join them on.
type span struct {
	Op     int64  `json:"op"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index among the operation's spans, -1 for the root
}

type layerSum struct {
	self time.Duration
	n    int
}

// tracer collects spans from the wrappers below. A nil tracer means an
// untraced boot: every wrap method then returns its argument unchanged.
type tracer struct {
	on   atomic.Bool
	keep bool // retain raw spans for -trace-out
	t0   time.Time

	mu   sync.Mutex
	op   int64
	kind string
	cur  []span
	all  []span
	sums map[string]*layerSum // "<op kind>/<span name>"
	ops  map[string]int       // finished operations per kind
	bg   map[string][]float64 // background call durations, ms

	connsOpened atomic.Uint64
	status421   atomic.Uint64
	reqBytes    atomic.Uint64
	respBytes   atomic.Uint64
	lastResp    []byte // body of the operation's client-side reply
	fetcher     *tracedFetcher
}

func newTracer(keep bool) *tracer {
	return &tracer{
		keep: keep, t0: time.Now(),
		sums: make(map[string]*layerSum), ops: make(map[string]int), bg: make(map[string][]float64),
	}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens an operation; every span recorded until end belongs to it.
func (t *tracer) begin(kind string) {
	t.mu.Lock()
	t.op++
	t.kind = kind
	t.cur = t.cur[:0]
	t.lastResp = nil
	t.mu.Unlock()
}

func (t *tracer) record(name string, start, end time.Time) {
	t.mu.Lock()
	t.cur = append(t.cur, span{Op: t.op, Kind: t.kind, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// end closes the operation with its root span, nests the spans and adds each
// one's self time to the layer sums. Self times of an operation add up to
// its root span by construction.
func (t *tracer) end(start, end time.Time) {
	t.record(spanRoot, start, end)
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.cur
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	self := make([]int64, len(spans))
	var stack []int
	for i := range spans {
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
			stack = stack[:len(stack)-1]
		}
		spans[i].Parent = -1
		if len(stack) > 0 {
			spans[i].Parent = stack[len(stack)-1]
			self[spans[i].Parent] -= spans[i].End - spans[i].Start
		}
		self[i] += spans[i].End - spans[i].Start
		stack = append(stack, i)
	}
	for i, s := range spans {
		key := s.Kind + "/" + s.Name
		sum := t.sums[key]
		if sum == nil {
			sum = &layerSum{}
			t.sums[key] = sum
		}
		sum.self += time.Duration(self[i])
		sum.n++
	}
	t.ops[t.kind]++
	if t.keep {
		t.all = append(t.all, spans...)
	}
}

// reply is the body of the last client-side reply of the operation.
func (t *tracer) reply() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastResp
}

func (t *tracer) background(name string, d time.Duration) {
	t.mu.Lock()
	t.bg[name] = append(t.bg[name], float64(d)/1e6)
	t.mu.Unlock()
}

// selfPerOp is the layer's mean self time per operation of the kind.
func (t *tracer) selfPerOp(kind, name string) time.Duration {
	sum, n := t.sums[kind+"/"+name], t.ops[kind]
	if sum == nil || n == 0 {
		return 0
	}
	return sum.self / time.Duration(n)
}

func (t *tracer) spansPerOp(kind, name string) float64 {
	sum, n := t.sums[kind+"/"+name], t.ops[kind]
	if sum == nil || n == 0 {
		return 0
	}
	return float64(sum.n) / float64(n)
}

func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.all {
		if err := enc.Encode(&t.all[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// foreground reports whether the path belongs to a load operation; the
// replication feed and the shard-map watch run beside the load and are
// timed by their own wrappers.
func foreground(path string) bool {
	return strings.HasPrefix(path, "/v1/decide") || strings.HasPrefix(path, "/v1/sessions") ||
		strings.HasPrefix(path, "/v1/admin/")
}

type tracedTransport struct {
	base    http.RoundTripper
	tr      *tracer
	name    string
	capture bool // outermost client: count wire bytes and keep the reply
}

// transport wraps base so each RoundTrip becomes a span.
func (t *tracer) transport(name string, base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &tracedTransport{base: base, tr: t, name: name, capture: name == spanClientRT}
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.tr.enabled() || !foreground(req.URL.Path) {
		return tt.base.RoundTrip(req)
	}
	start := time.Now()
	ct := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			tt.tr.connsOpened.Add(1)
		}
	}}
	resp, err := tt.base.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), ct)))
	if err == nil && tt.capture {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		if req.ContentLength > 0 {
			tt.tr.reqBytes.Add(uint64(req.ContentLength))
		}
		tt.tr.respBytes.Add(uint64(len(body)))
		tt.tr.mu.Lock()
		tt.tr.lastResp = body
		tt.tr.mu.Unlock()
	}
	if err == nil && resp.StatusCode == http.StatusMisdirectedRequest {
		tt.tr.status421.Add(1)
	}
	tt.tr.record(tt.name, start, time.Now())
	return resp, err
}

// handler wraps h so each foreground ServeHTTP becomes a span.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() || !foreground(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(name, start, time.Now())
	})
}

// offer wraps the audit export hook that feeds declog.
func (t *tracer) offer(offer func(audit.Record)) func(audit.Record) {
	if t == nil {
		return offer
	}
	return func(rec audit.Record) {
		if !t.enabled() {
			offer(rec)
			return
		}
		start := time.Now()
		offer(rec)
		t.record(spanOffer, start, time.Now())
	}
}

type tracedSink struct {
	base declog.Sink
	tr   *tracer
}

// sink wraps a declog sink so uploads, which run beside the load, are timed.
func (t *tracer) sink(s declog.Sink) declog.Sink {
	if t == nil {
		return s
	}
	return tracedSink{base: s, tr: t}
}

func (s tracedSink) Upload(ctx context.Context, c declog.Chunk) error {
	start := time.Now()
	err := s.base.Upload(ctx, c)
	if s.tr.enabled() {
		s.tr.background(bgUpload, time.Since(start))
	}
	return err
}

// tracedFetcher times the replication feed's catch-up calls; the watch is a
// long poll and is passed through. It keeps the Delta method so the puller
// still sees a replica.DeltaFetcher.
type tracedFetcher struct {
	base      *replica.Client
	tr        *tracer
	snapBytes atomic.Uint64
}

// Snapshot is timed whether or not the tracer is on: the bootstrap sync
// happens during set-up and is the one full sync most runs see.
func (f *tracedFetcher) Snapshot(ctx context.Context) (replica.Snapshot, error) {
	start := time.Now()
	snap, err := f.base.Snapshot(ctx)
	d := time.Since(start)
	if err == nil {
		f.tr.background(bgFetchSnap, d)
		if raw, merr := json.Marshal(snap); merr == nil {
			f.snapBytes.Store(uint64(len(raw)))
		}
	}
	return snap, err
}

func (f *tracedFetcher) Watch(ctx context.Context, epoch string, after uint64) (replica.WatchResponse, error) {
	return f.base.Watch(ctx, epoch, after)
}

func (f *tracedFetcher) Delta(ctx context.Context, epoch string, after uint64) (replica.Delta, error) {
	start := time.Now()
	d, err := f.base.Delta(ctx, epoch, after)
	if err == nil && f.tr.enabled() {
		f.tr.background(bgFetchDelta, time.Since(start))
	}
	return d, err
}
