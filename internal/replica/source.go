package replica

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/watch"
)

// DeltaProvider hands the Source a journaled mutation tail to serve as
// deltas. The durable store (internal/store.Durable) implements it: muts
// are the mutations with generation > after, upTo is the generation the
// list is complete through, and ok=false means the tail no longer
// reaches back to after and the caller needs a full snapshot.
type DeltaProvider interface {
	MutationsSince(after uint64) (muts []core.Mutation, upTo uint64, ok bool)
}

// Source is the primary side of the replication feed: a thin wrapper over
// a core.System that exports generation-stamped snapshots, lets a watcher
// block until the generation advances, and — when a DeltaProvider is
// attached — serves journal deltas so followers can catch up without a
// full snapshot. It is safe for concurrent use by any number of watchers.
type Source struct {
	sys    *core.System
	epoch  string
	deltas DeltaProvider
}

// SourceOption configures NewSource.
type SourceOption func(*Source)

// WithSourceEpoch pins the feed's epoch instead of minting a random one.
// The durable store uses it so a restarted primary resumes the epoch its
// followers already know, making delta catch-up possible across restarts.
func WithSourceEpoch(epoch string) SourceOption {
	return func(s *Source) {
		if epoch != "" {
			s.epoch = epoch
		}
	}
}

// WithDeltaProvider attaches the journal tail served at DeltaPath.
func WithDeltaProvider(p DeltaProvider) SourceOption {
	return func(s *Source) { s.deltas = p }
}

// NewSource builds the feed for sys, minting a fresh epoch unless
// WithSourceEpoch overrides it. Construct it once per process: the epoch
// is what tells followers "this is a new primary incarnation, your
// generation bookkeeping is void".
func NewSource(sys *core.System, opts ...SourceOption) *Source {
	s := &Source{sys: sys, epoch: NewEpoch()}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// NewEpoch mints a fresh epoch token: 16 hex characters from crypto/rand.
// A durable store mints its persisted epoch here too, so every epoch a
// follower compares has one format.
func NewEpoch() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the
		// clock, which still changes across restarts.
		for i := range b {
			b[i] = byte(time.Now().UnixNano() >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// Epoch returns the feed's epoch token.
func (s *Source) Epoch() string { return s.epoch }

// Snapshot exports the current policy, stamped with epoch and generation.
func (s *Source) Snapshot() Snapshot {
	st, gen := s.sys.Snapshot()
	return Snapshot{Epoch: s.epoch, Generation: gen, State: st}
}

// Delta returns the mutations after the follower's position, or ok=false
// when delta sync is unavailable — no provider attached, the caller's
// epoch is not this incarnation's, or the journal tail no longer reaches
// back to after — and the follower must take a full snapshot instead.
func (s *Source) Delta(epoch string, after uint64) (Delta, bool) {
	if s.deltas == nil || epoch != s.epoch {
		return Delta{}, false
	}
	muts, upTo, ok := s.deltas.MutationsSince(after)
	if !ok {
		return Delta{}, false
	}
	return Delta{Epoch: s.epoch, After: after, Generation: upTo, Mutations: muts}, true
}

// Wait blocks until the policy generation exceeds after, the caller's
// epoch no longer matches the feed's, or ctx is done — whichever comes
// first — and returns the current generation. Callers bound the poll with
// a context deadline; Wait itself never errors, because "nothing changed
// yet" is a normal answer that doubles as a liveness signal.
func (s *Source) Wait(ctx context.Context, epoch string, after uint64) uint64 {
	if epoch != s.epoch {
		return s.sys.Generation()
	}
	return s.sys.WaitGeneration(ctx, after)
}

// WatchHandler serves WatchPath: the long-poll on the policy generation
// under ?epoch=, answered with the feed's position.
func (s *Source) WatchHandler() http.HandlerFunc {
	return watch.Handler(
		func(ctx context.Context, r *http.Request, after uint64) uint64 {
			return s.Wait(ctx, r.URL.Query().Get("epoch"), after)
		},
		func(gen uint64) any { return WatchResponse{Epoch: s.epoch, Generation: gen} })
}
