// Package audit records access decisions with their full explanations,
// serving the paper's §3 requirement that the home security system provide
// "generation of appropriate feedback to assure the user that she is using
// the system correctly": every grant and deny is kept with the roles and
// rules that produced it, queryable per subject and per object.
package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/jsonw"
)

// Record is one audited decision.
type Record struct {
	// Seq is a monotonically increasing record number, starting at 1.
	Seq uint64 `json:"seq"`
	// Time is when the decision was made.
	Time time.Time `json:"time"`
	// Subject, Object, and Transaction identify the request.
	Subject     core.SubjectID     `json:"subject"`
	Object      core.ObjectID      `json:"object"`
	Transaction core.TransactionID `json:"transaction"`
	// Allowed is the outcome.
	Allowed bool `json:"allowed"`
	// Effect is "permit" or "deny".
	Effect string `json:"effect"`
	// DefaultDeny reports whether no rule matched.
	DefaultDeny bool `json:"default_deny,omitempty"`
	// Stale marks a decision a follower served past its staleness bound.
	Stale bool `json:"stale,omitempty"`
	// Strategy names the conflict strategy consulted.
	Strategy string `json:"strategy"`
	// Reason is the engine's one-line explanation.
	Reason string `json:"reason"`
	// MatchedRules counts the permissions that applied.
	MatchedRules int `json:"matched_rules"`
	// CorrelationID ties the record to the PDP request that produced it:
	// the server stores the X-Correlation-ID it answered with, so an audit
	// line and a wire reply can be joined. Empty for decisions logged
	// outside a request context, as are the fields below.
	CorrelationID string `json:"correlation_id,omitempty"`
	// Route is the endpoint that served the decision ("/v1/decide",
	// "/v1/check", "/v1/decide/batch").
	Route string `json:"route,omitempty"`
	// DecodeNS and MediateNS time the request's decode and mediation; a
	// batch item carries its whole batch's.
	DecodeNS  int64 `json:"decode_ns,omitempty"`
	MediateNS int64 `json:"mediate_ns,omitempty"`
}

// String renders the record as a log line.
func (r Record) String() string {
	outcome := "DENY"
	if r.Allowed {
		outcome = "PERMIT"
	}
	return fmt.Sprintf("#%d %s %s %s %q on %q: %s (%s)",
		r.Seq, r.Time.Format(time.RFC3339), outcome,
		r.Subject, r.Transaction, r.Object, r.Reason, r.Strategy) + r.servedSuffix()
}

// servedSuffix renders what the serving tier stamped on the record, or
// nothing for a record logged outside a request.
func (r Record) servedSuffix() string {
	if r.Route == "" && r.CorrelationID == "" {
		return ""
	}
	stale := ""
	if r.Stale {
		stale = " stale"
	}
	return fmt.Sprintf(" [%s %s%s]", r.Route, r.CorrelationID, stale)
}

// Logger is a bounded in-memory audit trail backed by a ring buffer, so
// appending stays O(1) even after the capacity is reached. The zero value
// is not usable; construct with NewLogger.
type Logger struct {
	mu sync.Mutex
	// buf holds up to max records; once full it is used circularly with
	// head pointing at the oldest record.
	buf  []Record
	head int
	seq  uint64
	max  int
	// evicted counts records overwritten by the ring — the trail's loss is
	// never silent; callers surface it via Stats/Summary and
	// grbac_audit_evicted_total.
	evicted uint64
	now     func() time.Time
	// hook receives every record after it is stored, outside the logger's
	// lock — the handoff into the decision-log export pipeline. Set at
	// construction; must not block (declog's Offer never does).
	hook func(Record)
}

// LoggerOption configures a Logger.
type LoggerOption func(*Logger)

// WithCapacity bounds the trail; the oldest records are evicted beyond it
// (default 10000).
func WithCapacity(n int) LoggerOption {
	return func(l *Logger) {
		if n > 0 {
			l.max = n
		}
	}
}

// WithClock overrides the time source that stamps records.
func WithClock(c clock.Clock) LoggerOption {
	return func(l *Logger) { l.now = c.Now }
}

// WithExportHook attaches a per-record export hook, called with each
// stored record outside the logger's lock. This is how the decision-log
// pipeline taps the trail: pass declog's Offer (which never blocks) so
// mediation latency is independent of the export sink. A nil fn disables
// the hook.
func WithExportHook(fn func(Record)) LoggerOption {
	return func(l *Logger) { l.hook = fn }
}

// NewLogger builds an empty audit trail.
func NewLogger(opts ...LoggerOption) *Logger {
	l := &Logger{max: 10000, now: time.Now}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// Served is what the serving tier knows about a decision besides the
// request and its outcome. The zero value is a decision logged outside a
// request, as audit.Wrap and the SDK log theirs.
type Served struct {
	CorrelationID   string
	Route           string
	Stale           bool
	Decode, Mediate time.Duration
}

// Log records one decision and returns the stored record.
func (l *Logger) Log(req core.Request, d core.Decision) Record {
	return l.LogServed(req, d, Served{})
}

// LogWith records one decision stamped with the correlation ID of the
// request that carried it, and returns the stored record.
func (l *Logger) LogWith(req core.Request, d core.Decision, correlationID string) Record {
	return l.LogServed(req, d, Served{CorrelationID: correlationID})
}

// LogServed records one decision with what the serving tier knew about
// it, and returns the stored record. Log and LogWith are wrappers over it.
func (l *Logger) LogServed(req core.Request, d core.Decision, sv Served) Record {
	l.mu.Lock()
	l.seq++
	rec := Record{
		Seq:           l.seq,
		Time:          l.now(),
		Subject:       req.Subject,
		Object:        req.Object,
		Transaction:   req.Transaction,
		Allowed:       d.Allowed,
		Effect:        d.Effect.String(),
		DefaultDeny:   d.DefaultDeny,
		Stale:         sv.Stale,
		Strategy:      d.Strategy,
		Reason:        d.Reason,
		MatchedRules:  len(d.Matches),
		CorrelationID: sv.CorrelationID,
		Route:         sv.Route,
		DecodeNS:      int64(sv.Decode),
		MediateNS:     int64(sv.Mediate),
	}
	if len(l.buf) < l.max {
		l.buf = append(l.buf, rec)
	} else {
		l.buf[l.head] = rec
		l.head = (l.head + 1) % l.max
		l.evicted++
	}
	l.mu.Unlock()
	// The export hook runs outside the lock so a (mis)behaving hook can
	// slow only its own caller, never serialize the trail.
	if l.hook != nil {
		l.hook(rec)
	}
	return rec
}

// Evicted returns how many records the ring has overwritten since the
// logger was built.
func (l *Logger) Evicted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}

// Seen returns how many records the logger has ever recorded (the current
// sequence number).
func (l *Logger) Seen() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Capacity returns the ring bound.
func (l *Logger) Capacity() int { return l.max }

// Len returns the number of retained records.
func (l *Logger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Records returns a copy of the retained trail, oldest first.
func (l *Logger) Records() []Record {
	return l.Query(Filter{})
}

// Filter selects audit records. Zero-valued fields match everything.
type Filter struct {
	Subject     core.SubjectID
	Object      core.ObjectID
	Transaction core.TransactionID
	// DeniesOnly keeps only denied requests.
	DeniesOnly bool
	// Since keeps records at or after this instant (zero = unbounded).
	Since time.Time
	// Until keeps records strictly before this instant (zero = unbounded).
	Until time.Time
	// CorrelationID keeps the records of one PDP request.
	CorrelationID string
	// Limit keeps only the newest Limit matches (0 = all).
	Limit int
}

func (f *Filter) matches(r *Record) bool {
	if f.Subject != "" && r.Subject != f.Subject {
		return false
	}
	if f.Object != "" && r.Object != f.Object {
		return false
	}
	if f.Transaction != "" && r.Transaction != f.Transaction {
		return false
	}
	if f.DeniesOnly && r.Allowed {
		return false
	}
	if !f.Since.IsZero() && r.Time.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && !r.Time.Before(f.Until) {
		return false
	}
	if f.CorrelationID != "" && r.CorrelationID != f.CorrelationID {
		return false
	}
	return true
}

// Query returns the records matching the filter, oldest first. It walks
// the ring in place, newest first, and stops at the filter's limit, so it
// holds the lock that every audited decision takes only as long as it
// must and copies only the matches.
func (l *Logger) Query(f Filter) []Record {
	l.mu.Lock()
	var out []Record
	for i := len(l.buf) - 1; i >= 0; i-- {
		r := &l.buf[(l.head+i)%len(l.buf)]
		if !f.matches(r) {
			continue
		}
		out = append(out, *r)
		if len(out) == f.Limit {
			break
		}
	}
	l.mu.Unlock()
	slices.Reverse(out)
	return out
}

// Stats aggregates the trail. Total is the number of records the trail
// has ever seen (the sequence counter), which the ring may no longer hold:
// Retained counts what is still queryable and Evicted counts the
// difference, so "how much history did we lose" is a first-class answer
// rather than a silent gap. The per-outcome and per-subject aggregates
// cover only the retained window — they are computed from the ring.
type Stats struct {
	// Total counts records ever seen (== Seen; kept as the headline field
	// so existing callers keep meaning "decisions audited", not "decisions
	// that happen to still be in the ring").
	Total int `json:"total"`
	// Seen, Retained, and Evicted satisfy Total = Retained + Evicted.
	Seen     uint64 `json:"seen"`
	Retained int    `json:"retained"`
	Evicted  uint64 `json:"evicted"`
	// Permits, Denies, and DefaultDeny count outcomes in the retained
	// window.
	Permits      int                    `json:"permits"`
	Denies       int                    `json:"denies"`
	DefaultDeny  int                    `json:"default_deny"`
	PerSubject   map[core.SubjectID]int `json:"per_subject,omitempty"`
	DeniedBySubj map[core.SubjectID]int `json:"denied_by_subject,omitempty"`
}

// Stats computes aggregate counts over the trail.
func (l *Logger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Total:        int(l.seq),
		Seen:         l.seq,
		Retained:     len(l.buf),
		Evicted:      l.evicted,
		PerSubject:   make(map[core.SubjectID]int),
		DeniedBySubj: make(map[core.SubjectID]int),
	}
	for _, r := range l.buf {
		if r.Allowed {
			s.Permits++
		} else {
			s.Denies++
			s.DeniedBySubj[r.Subject]++
		}
		if r.DefaultDeny {
			s.DefaultDeny++
		}
		s.PerSubject[r.Subject]++
	}
	return s
}

// Summary is the compact trail accounting surfaced in /v1/statsz — the
// loss-visibility fields without the per-subject maps (which scale with
// subject cardinality and belong in Query, not a stats scrape).
type Summary struct {
	Seen     uint64 `json:"seen"`
	Retained int    `json:"retained"`
	Evicted  uint64 `json:"evicted"`
	Capacity int    `json:"capacity"`
}

// Summary snapshots the trail's retention accounting.
func (l *Logger) Summary() Summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Summary{
		Seen:     l.seq,
		Retained: len(l.buf),
		Evicted:  l.evicted,
		Capacity: l.max,
	}
}

// Decider is the decision interface audited systems satisfy; core.System
// implements it.
type Decider interface {
	Decide(core.Request) (core.Decision, error)
}

// AuditedSystem wraps a Decider so every successful decision is logged.
type AuditedSystem struct {
	inner  Decider
	logger *Logger
}

var _ Decider = (*AuditedSystem)(nil)

// Wrap builds an audited view of a decision engine.
func Wrap(inner Decider, logger *Logger) *AuditedSystem {
	return &AuditedSystem{inner: inner, logger: logger}
}

// Decide forwards to the wrapped engine and logs the outcome. Erroring
// requests (malformed, unknown entities) are not logged — they never
// reached mediation.
func (a *AuditedSystem) Decide(req core.Request) (core.Decision, error) {
	d, err := a.inner.Decide(req)
	if err != nil {
		return d, err
	}
	a.logger.Log(req, d)
	return d, nil
}

// DecideBatch forwards a batch to the wrapped engine's batch path when it
// has one — preserving its one-snapshot consistency guarantee — and logs
// every item that produced a decision. Engines without a batch path are
// driven item by item through Decide.
func (a *AuditedSystem) DecideBatch(reqs []core.Request) []core.BatchResult {
	type batchDecider interface {
		DecideBatch([]core.Request) []core.BatchResult
	}
	if bd, ok := a.inner.(batchDecider); ok {
		results := bd.DecideBatch(reqs)
		for i, res := range results {
			if res.Err == nil {
				a.logger.Log(reqs[i], res.Decision)
			}
		}
		return results
	}
	out := make([]core.BatchResult, len(reqs))
	for i, r := range reqs {
		out[i].Decision, out[i].Err = a.Decide(r)
	}
	return out
}

// AppendJSON appends the record's JSON, byte for byte what json.Marshal
// produces, without reflection: it is the one encoder behind both
// WriteJSON and the decision log's chunks. A Time that MarshalJSON rejects
// fails with encoding/json's error.
func (r Record) AppendJSON(dst []byte) ([]byte, error) {
	n0 := len(dst)
	b := append(dst, `{"seq":`...)
	b = strconv.AppendUint(b, r.Seq, 10)
	b = append(b, `,"time":`...)
	b, ok := jsonw.AppendTime(b, r.Time)
	if !ok {
		raw, err := json.Marshal(r)
		return append(dst[:n0], raw...), err
	}
	b = append(b, `,"subject":`...)
	b = jsonw.AppendString(b, string(r.Subject))
	b = append(b, `,"object":`...)
	b = jsonw.AppendString(b, string(r.Object))
	b = append(b, `,"transaction":`...)
	b = jsonw.AppendString(b, string(r.Transaction))
	b = append(b, `,"allowed":`...)
	b = jsonw.AppendBool(b, r.Allowed)
	b = append(b, `,"effect":`...)
	b = jsonw.AppendString(b, r.Effect)
	if r.DefaultDeny {
		b = append(b, `,"default_deny":true`...)
	}
	if r.Stale {
		b = append(b, `,"stale":true`...)
	}
	b = append(b, `,"strategy":`...)
	b = jsonw.AppendString(b, r.Strategy)
	b = append(b, `,"reason":`...)
	b = jsonw.AppendString(b, r.Reason)
	b = append(b, `,"matched_rules":`...)
	b = strconv.AppendInt(b, int64(r.MatchedRules), 10)
	if r.CorrelationID != "" {
		b = append(b, `,"correlation_id":`...)
		b = jsonw.AppendString(b, r.CorrelationID)
	}
	if r.Route != "" {
		b = append(b, `,"route":`...)
		b = jsonw.AppendString(b, r.Route)
	}
	if r.DecodeNS != 0 {
		b = append(b, `,"decode_ns":`...)
		b = strconv.AppendInt(b, r.DecodeNS, 10)
	}
	if r.MediateNS != 0 {
		b = append(b, `,"mediate_ns":`...)
		b = strconv.AppendInt(b, r.MediateNS, 10)
	}
	return append(b, '}'), nil
}

// WriteJSON streams records to w as JSON lines (one record per line), the
// interchange format for external log collectors.
func WriteJSON(w io.Writer, records []Record) error {
	var line []byte
	for _, r := range records {
		var err error
		if line, err = r.AppendJSON(line[:0]); err == nil {
			_, err = w.Write(append(line, '\n'))
		}
		if err != nil {
			return fmt.Errorf("audit: encode record %d: %w", r.Seq, err)
		}
	}
	return nil
}

// ReadJSON parses a JSON-lines audit stream back into records.
func ReadJSON(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var out []Record
	for dec.More() {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("audit: decode record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// Render formats records as an aligned text table for CLI output.
func Render(records []Record) string {
	if len(records) == 0 {
		return "no audit records\n"
	}
	var b strings.Builder
	for _, r := range records {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
