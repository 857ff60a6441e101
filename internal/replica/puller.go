package replica

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/retry"
)

// Default tuning for the puller's sync loop.
const (
	defaultBackoffMin   = 100 * time.Millisecond
	defaultBackoffMax   = 5 * time.Second
	defaultMaxStaleness = 30 * time.Second
)

// fetchTimeout is the deadline on one snapshot or delta fetch. A watch
// bounds itself by the wait it asks for (Client.Watch).
const fetchTimeout = 30 * time.Second

// Fetcher is the transport the Puller pulls from. Client implements it
// over HTTP; tests implement it in-process. Watch bounds its own long-poll:
// the puller passes its run context, not a deadline.
type Fetcher interface {
	Snapshot(ctx context.Context) (Snapshot, error)
	Watch(ctx context.Context, epoch string, after uint64) (WatchResponse, error)
}

// DeltaFetcher is the optional catch-up extension of Fetcher: a transport
// that can fetch just the mutations after a position. When the configured
// Fetcher implements it (Client does), the puller tries a delta before
// every full snapshot and falls back on ErrDeltaUnavailable — so a
// follower of a durable primary rides out primary restarts without ever
// refetching the whole policy.
type DeltaFetcher interface {
	Delta(ctx context.Context, epoch string, after uint64) (Delta, error)
}

// ErrEpochChanged reports that the primary's epoch changed mid-watch —
// the primary restarted without durable state, or was replaced — so the
// puller's position in the old feed is meaningless and a fresh sync is
// required. It is a liveness signal, not a fault: match with errors.Is to
// distinguish epoch flips from transport failures.
var ErrEpochChanged = errors.New("replica: primary epoch changed")

// EpochChangeError is the concrete error behind ErrEpochChanged, carrying
// both incarnations so logs can show the flip.
type EpochChangeError struct {
	Old, New string
}

func (e *EpochChangeError) Error() string {
	return fmt.Sprintf("replica: primary epoch changed (%s -> %s)", e.Old, e.New)
}

// Is makes errors.Is(err, ErrEpochChanged) hold for EpochChangeError
// values.
func (e *EpochChangeError) Is(target error) bool { return target == ErrEpochChanged }

// Stats is a point-in-time report of replication health, exported through
// the PDP's /v1/statsz and the `grbacctl replication` command. Ages are
// seconds, -1 meaning "never".
type Stats struct {
	// PrimaryURL is the feed being followed (empty for in-process fetchers).
	PrimaryURL string `json:"primary_url,omitempty"`
	// Epoch is the primary incarnation last synced from.
	Epoch string `json:"epoch,omitempty"`
	// PrimaryGeneration is the highest generation observed at the primary.
	PrimaryGeneration uint64 `json:"primary_generation"`
	// AppliedGeneration is the generation of the last applied snapshot.
	AppliedGeneration uint64 `json:"applied_generation"`
	// Lag is PrimaryGeneration - AppliedGeneration: the number of policy
	// mutations the puller has observed but not yet applied.
	Lag uint64 `json:"lag"`
	// Syncs counts successfully applied full snapshots.
	Syncs uint64 `json:"syncs"`
	// DeltaSyncs counts catch-ups served from the primary's journal tail
	// instead of a full snapshot.
	DeltaSyncs uint64 `json:"delta_syncs"`
	// DeltaMutations counts individual mutations applied via delta sync.
	DeltaMutations uint64 `json:"delta_mutations"`
	// Errors counts failed fetch/watch/apply attempts.
	Errors uint64 `json:"errors"`
	// WatchReconnects counts watch streams that broke and forced the
	// puller back through backoff and a fresh snapshot.
	WatchReconnects uint64 `json:"watch_reconnects"`
	// EpochFlips counts primary epoch changes observed mid-watch (primary
	// restarts or replacements). Unlike WatchReconnects these re-sync
	// immediately, without backoff, and are not counted as errors.
	EpochFlips uint64 `json:"epoch_flips"`
	// LastSyncAgeSeconds is the age of the last applied snapshot.
	LastSyncAgeSeconds float64 `json:"last_sync_age_seconds"`
	// LastContactAgeSeconds is the age of the last successful exchange
	// with the primary (watch keepalives count: an idle but reachable
	// primary is not staleness).
	LastContactAgeSeconds float64 `json:"last_contact_age_seconds"`
	// MaxStalenessSeconds is the configured bound; 0 disables staleness.
	MaxStalenessSeconds float64 `json:"max_staleness_seconds"`
	// Stale reports whether the staleness bound has been exceeded.
	Stale bool `json:"stale"`
}

// Puller keeps a local core.System converged with a primary's
// replication feed: bootstrap snapshot, then watch long-polls with
// delta-first catch-up whenever the feed position moves. It is the shared
// sync engine behind both deployment shapes — a follower PDP serving
// read-only HTTP traffic (see Follower) and an embedded SDK client
// mediating in the application's own process (see package sdk).
// Construct with NewPuller, start Run in a goroutine, and serve Decide
// traffic from the system as usual; the consuming layer uses Stale and
// Stats to mark degraded service.
type Puller struct {
	fetch      Fetcher
	deltaFetch DeltaFetcher // non-nil when fetch implements DeltaFetcher
	sys        *core.System
	primaryURL string

	maxStaleness time.Duration
	backoffMin   time.Duration
	backoffMax   time.Duration
	logger       *log.Logger

	syncedCh chan struct{} // closed on the first successful sync

	// stale answers Stale and Stats().Stale. Every contact resets it under
	// mu.
	stale *staleness

	mu          sync.Mutex
	epoch       string
	primaryGen  uint64
	appliedGen  uint64
	synced      bool
	lastSync    time.Time
	lastContact time.Time
	syncs       uint64
	deltaSyncs  uint64
	deltaMuts   uint64
	errs        uint64
	reconnects  uint64
	epochFlips  uint64
}

// PullerOption configures a Puller.
type PullerOption func(*Puller)

// WithMaxStaleness sets how long the puller may go without contact from
// the primary before it reports itself stale (default 30s; d <= 0
// disables staleness entirely).
func WithMaxStaleness(d time.Duration) PullerOption {
	return func(p *Puller) { p.maxStaleness = d }
}

// WithBackoff bounds the exponential retry backoff after transport errors
// (defaults 100ms..5s). Jitter of ±half the current delay is always
// applied. Non-positive bounds are clamped at construction time — min <= 0
// falls back to the default and max is raised to at least min — so a
// misconfigured puller degrades to sane pacing instead of spinning a
// zero-delay retry loop against a struggling primary.
func WithBackoff(min, max time.Duration) PullerOption {
	return func(p *Puller) { p.backoffMin, p.backoffMax = min, max }
}

// WithFetcher substitutes the transport (tests, in-process replication).
func WithFetcher(fetch Fetcher) PullerOption {
	return func(p *Puller) { p.fetch = fetch }
}

// WithFollowerLogger sets the sync loop's logger (default log.Default()).
func WithFollowerLogger(l *log.Logger) PullerOption {
	return func(p *Puller) { p.logger = l }
}

// NewPuller builds a puller that replicates primaryURL's feed into
// sys. sys should be freshly constructed and not administered locally:
// every sync replaces its policy wholesale. The staleness clock and its
// timer are sys's (core.WithClock).
func NewPuller(sys *core.System, primaryURL string, opts ...PullerOption) *Puller {
	p := &Puller{
		sys:          sys,
		primaryURL:   primaryURL,
		maxStaleness: defaultMaxStaleness,
		backoffMin:   defaultBackoffMin,
		backoffMax:   defaultBackoffMax,
		logger:       log.Default(),
		syncedCh:     make(chan struct{}),
	}
	for _, opt := range opts {
		opt(p)
	}
	// Clamp backoff that would otherwise produce a hot retry loop.
	// retry.New owns the clamping rules (min <= 0 falls back, max raised
	// to min).
	b := retry.New(p.backoffMin, p.backoffMax, defaultBackoffMin)
	p.backoffMin, p.backoffMax = b.Min, b.Max
	if p.fetch == nil {
		cl := NewClient(primaryURL, nil)
		// Keepalives must arrive well inside the staleness bound, or an
		// idle-but-reachable primary reads as stale.
		cl.MaxWait = KeepaliveWait(p.maxStaleness)
		p.fetch = cl
	}
	if df, ok := p.fetch.(DeltaFetcher); ok {
		p.deltaFetch = df
	}
	p.stale = newStaleness(sys.Clock(), p.maxStaleness)
	return p
}

// System returns the puller's local decision engine.
func (p *Puller) System() *core.System { return p.sys }

// PrimaryURL returns the feed URL this puller pulls from.
func (p *Puller) PrimaryURL() string { return p.primaryURL }

// WaitSynced blocks until the puller has applied its first snapshot (so
// the local system holds real policy, not the empty default-deny state)
// or ctx is done. Embedded SDK clients call this at bootstrap before
// serving local decisions.
func (p *Puller) WaitSynced(ctx context.Context) error {
	select {
	case <-p.syncedCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Run drives the sync loop until ctx is done: snapshot, then watch; on
// any error, exponential backoff with jitter and a fresh snapshot. An
// epoch flip (ErrEpochChanged from the watch) is the one exception: it
// means the primary restarted, not that it is struggling, so the puller
// re-syncs immediately without backoff and without counting an error.
// Run always returns ctx.Err().
func (p *Puller) Run(ctx context.Context) error {
	bo := retry.New(p.backoffMin, p.backoffMax, defaultBackoffMin)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := p.syncOnce(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			p.noteError()
			p.logger.Printf("replica: sync from %s failed (retrying in ~%v): %v",
				p.primaryURL, bo.Current(), err)
			if !bo.Sleep(ctx) {
				return ctx.Err()
			}
			continue
		}
		bo.Reset()
		if err := p.watchLoop(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, ErrEpochChanged) {
				p.mu.Lock()
				p.epochFlips++
				p.mu.Unlock()
				p.logger.Printf("replica: %v on %s (re-syncing now)", err, p.primaryURL)
				continue
			}
			p.noteError()
			p.mu.Lock()
			p.reconnects++
			p.mu.Unlock()
			p.logger.Printf("replica: watch on %s failed (re-syncing in ~%v): %v",
				p.primaryURL, bo.Current(), err)
			if !bo.Sleep(ctx) {
				return ctx.Err()
			}
		}
	}
}

// syncOnce converges with the primary: a journal delta when the
// transport offers one and this puller already has a position in the
// primary's epoch, a full snapshot otherwise. A failed delta is not a
// sync failure — the snapshot path always stands behind it — so delta
// errors are logged (ErrDeltaUnavailable silently: it is the primary's
// normal "take a snapshot" answer, not a fault) and never counted.
func (p *Puller) syncOnce(ctx context.Context) error {
	if p.deltaFetch != nil {
		epoch, after := p.position()
		if epoch != "" {
			err := p.deltaOnce(ctx, epoch, after)
			if err == nil {
				return nil
			}
			if !errors.Is(err, ErrDeltaUnavailable) && ctx.Err() == nil {
				p.logger.Printf("replica: delta sync from %s failed (falling back to snapshot): %v",
					p.primaryURL, err)
			}
		}
	}
	fctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	snap, err := p.fetch.Snapshot(fctx)
	if err != nil {
		return err
	}
	if err := p.sys.Replace(snap.State); err != nil {
		return err
	}
	now := p.sys.Now()
	p.mu.Lock()
	p.epoch = snap.Epoch
	p.primaryGen = snap.Generation
	p.appliedGen = snap.Generation
	p.lastSync = now
	p.markSyncedLocked(now)
	p.syncs++
	p.mu.Unlock()
	return nil
}

// deltaOnce fetches and applies the mutations after the puller's
// position. The primary guarantees the delta is complete through
// delta.Generation even when Mutations is shorter (ephemeral bumps), so
// the applied position jumps to Generation, not the last mutation.
func (p *Puller) deltaOnce(ctx context.Context, epoch string, after uint64) error {
	fctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	delta, err := p.deltaFetch.Delta(fctx, epoch, after)
	if err != nil {
		return err
	}
	if delta.Epoch != epoch {
		return fmt.Errorf("%w: epoch changed (%s -> %s)", ErrDeltaUnavailable, epoch, delta.Epoch)
	}
	for i := range delta.Mutations {
		if err := p.sys.Apply(delta.Mutations[i]); err != nil {
			// A mutation the local system rejects means puller and
			// primary diverged; only a full snapshot re-converges them.
			return fmt.Errorf("apply delta mutation %s: %w", delta.Mutations[i].Op, err)
		}
	}
	now := p.sys.Now()
	p.mu.Lock()
	if delta.Generation > p.primaryGen {
		p.primaryGen = delta.Generation
	}
	p.appliedGen = delta.Generation
	p.lastSync = now
	p.markSyncedLocked(now)
	p.deltaSyncs++
	p.deltaMuts += uint64(len(delta.Mutations))
	p.mu.Unlock()
	return nil
}

// markSyncedLocked records a successful sync at now. It publishes the
// staleness deadline before it releases WaitSynced waiters (exactly once),
// so a caller woken by the first sync never reads the puller as stale.
// Caller holds p.mu.
func (p *Puller) markSyncedLocked(now time.Time) {
	first := !p.synced
	p.synced = true
	p.contactLocked(now)
	if first {
		close(p.syncedCh)
	}
}

// watchLoop long-polls the primary, re-snapshotting whenever the
// generation advances. An epoch change — the primary restarted or was
// replaced mid-watch — surfaces as ErrEpochChanged so the caller can log
// it distinctly from transport failure and re-sync without backoff.
func (p *Puller) watchLoop(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		epoch, after := p.position()
		resp, err := p.fetch.Watch(ctx, epoch, after)
		if err != nil {
			return err
		}
		p.noteContact(resp)
		if resp.Epoch != epoch {
			return &EpochChangeError{Old: epoch, New: resp.Epoch}
		}
		if resp.Generation != after {
			if err := p.syncOnce(ctx); err != nil {
				return err
			}
		}
	}
}

// contactLocked records a successful exchange with the primary at now and,
// once synced, resets the staleness to fresh against the deadline the
// contact implies. Caller holds p.mu.
func (p *Puller) contactLocked(now time.Time) {
	p.lastContact = now
	if p.synced {
		p.stale.contact(now)
	}
}

func (p *Puller) position() (string, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch, p.appliedGen
}

func (p *Puller) noteContact(resp WatchResponse) {
	now := p.sys.Now()
	p.mu.Lock()
	p.contactLocked(now)
	if resp.Epoch == p.epoch && resp.Generation > p.primaryGen {
		p.primaryGen = resp.Generation
	}
	p.mu.Unlock()
}

func (p *Puller) noteError() {
	p.mu.Lock()
	p.errs++
	p.mu.Unlock()
}

// Stale reports whether the puller has gone longer than the staleness
// bound without hearing from the primary (or has never synced at all).
// A stale puller still serves decisions; the consuming layer marks them.
// In the first half of the bound after a contact it is one atomic load;
// only in the second half does it read the System's clock.
func (p *Puller) Stale() bool { return p.stale.read() }

// The states of a staleness: the answer is fixed (fresh, stale) or, near
// the deadline, the clock's.
const (
	stateFresh uint32 = iota
	stateNear
	stateStale
)

// staleness answers Stale with no clock read while the answer cannot
// change soon. A contact sets it fresh and arms one timer on the System's
// clock for half the bound; the timer moves it to near, where reads
// compare the clock with the deadline, and to stale once the deadline has
// passed. A Go timer fires late when every P is busy — by tens of
// milliseconds under embedded-warm (BenchmarkStaleFlipLateness, DESIGN
// §6) — so the timer only opens the window in which the clock decides,
// and its lateness costs no exactness while it stays under half the
// bound.
//
// It is its own allocation, and the timer's callback holds nothing else:
// an armed deadline keeps neither the Puller nor its System reachable, so
// a closed, dropped SDK client is collectable while its timer still runs
// it stale on schedule.
type staleness struct {
	state    atomic.Uint32
	deadline atomic.Int64 // last contact + bound, as an offset from start
	clock    clock.Clock
	start    time.Time
	bound    time.Duration // <= 0: staleness disabled, the state stays fresh
	window   time.Duration // the near window: the bound's second half

	mu    sync.Mutex // orders contacts and timer callbacks
	timer clock.Timer
}

// newStaleness starts stale when the bound is enabled: a never-synced
// puller is stale.
func newStaleness(c clock.Clock, bound time.Duration) *staleness {
	s := &staleness{clock: c, start: c.Now(), bound: bound, window: bound / 2}
	if bound > 0 {
		s.state.Store(stateStale)
	}
	return s
}

func (s *staleness) read() bool {
	switch s.state.Load() {
	case stateFresh:
		return false
	case stateNear:
		return s.left() < 0
	}
	return true
}

// left is the time to the deadline; the rule is stale iff it is negative,
// that is, strictly past the deadline of the last contact.
func (s *staleness) left() time.Duration {
	return time.Duration(s.deadline.Load()) - s.clock.Since(s.start)
}

// contact records a successful exchange with the primary at now.
func (s *staleness) contact(now time.Time) {
	if s.bound <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deadline.Store(int64(now.Sub(s.start) + s.bound))
	s.state.Store(stateFresh)
	if s.timer == nil {
		s.timer = s.clock.AfterFunc(s.bound-s.window, s.fire)
	} else {
		s.timer.Reset(s.bound - s.window)
	}
}

// fire is the timer's callback. It moves the state on by where the clock
// stands against the deadline and arms the next step; when a contact has
// moved the deadline since the timer was set, it only re-arms.
func (s *staleness) fire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch left := s.left(); {
	case left < 0:
		s.state.Store(stateStale)
	case left > s.window:
		s.timer.Reset(left - s.window)
	default:
		s.state.Store(stateNear)
		s.timer.Reset(left + 1)
	}
}

// Stats reports replication health.
func (p *Puller) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Read under the lock, so no contact recorded here postdates now.
	now := p.sys.Now()
	st := Stats{
		PrimaryURL:            p.primaryURL,
		Epoch:                 p.epoch,
		PrimaryGeneration:     p.primaryGen,
		AppliedGeneration:     p.appliedGen,
		Lag:                   p.primaryGen - p.appliedGen,
		Syncs:                 p.syncs,
		DeltaSyncs:            p.deltaSyncs,
		DeltaMutations:        p.deltaMuts,
		Errors:                p.errs,
		WatchReconnects:       p.reconnects,
		EpochFlips:            p.epochFlips,
		LastSyncAgeSeconds:    -1,
		LastContactAgeSeconds: -1,
		MaxStalenessSeconds:   p.maxStaleness.Seconds(),
	}
	if !p.lastSync.IsZero() {
		st.LastSyncAgeSeconds = now.Sub(p.lastSync).Seconds()
	}
	if !p.lastContact.IsZero() {
		st.LastContactAgeSeconds = now.Sub(p.lastContact).Seconds()
	}
	st.Stale = p.Stale()
	return st
}
