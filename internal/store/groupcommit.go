package store

import (
	"fmt"
	"sync"
	"time"

	"github.com/aware-home/grbac/internal/disk"
	"github.com/aware-home/grbac/internal/faults"
	"github.com/aware-home/grbac/internal/obs"
)

// WithGroupCommit makes the store coalesce concurrent WAL appends into
// shared fsyncs. Record appends the mutation under the System write lock
// but defers the fsync; the mutator then blocks in WaitDurable — outside
// the lock — until a group fsync (or a checkpoint) covers its generation.
// The first waiter to arrive becomes the sync leader, captures the
// highest appended generation, issues one fsync, and wakes everyone it
// covered, so a burst of N concurrent mutators costs ~1 fsync instead
// of N while every acknowledged mutation is still durable before its
// mutator returns.
//
// The durability contract is unchanged at the ack boundary, but the
// visibility window differs from the default mode: a concurrent reader
// may observe a mutation whose fsync is still in flight. If the process
// crashes inside that window the mutator never acked (it was still in
// WaitDurable), which is the standard group-commit contract.
func WithGroupCommit() DurableOption {
	return func(d *Durable) { d.group = true }
}

// committer is the group-commit engine: a monotonic (pending, durable)
// generation pair and a leader-election loop around one shared fsync.
// It has its own mutex so waiters never touch d.mu (Record holds d.mu
// while calling noteAppend, establishing the d.mu → committer.mu order;
// wait never takes d.mu).
type committer struct {
	wal *disk.Log

	mu      sync.Mutex
	cond    *sync.Cond
	pending uint64 // highest generation whose WAL append completed
	durable uint64 // highest generation covered by an fsync or checkpoint
	syncing bool   // a leader's fsync is in flight
	closed  bool

	fsyncs uint64 // group fsyncs issued
	waits  uint64 // WaitDurable calls that actually had to wait

	hist *obs.Histogram // nil until RegisterMetrics; nil-safe
}

func newCommitter(wal *disk.Log) *committer {
	g := &committer{wal: wal}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// noteAppend records that gen's WAL write completed (fsync still owed).
func (g *committer) noteAppend(gen uint64) {
	g.mu.Lock()
	if gen > g.pending {
		g.pending = gen
	}
	g.mu.Unlock()
}

// noteDurable advances the durable watermark without an fsync of our own
// — a checkpoint's snapshot covers every generation it includes.
func (g *committer) noteDurable(gen uint64) {
	g.mu.Lock()
	if gen > g.durable {
		g.durable = gen
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// shutdown releases all waiters; called by Close after its final
// checkpoint has advanced the durable watermark past every real append.
func (g *committer) shutdown() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// wait blocks until gen is durable. The first blocked waiter leads: it
// captures the pending watermark, fsyncs once outside the lock, advances
// durable to the captured target, and broadcasts. Waiters that arrive
// while a sync is in flight simply wait — either the in-flight fsync
// already covers their generation, or they lead the next round.
func (g *committer) wait(gen uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	waited := false
	for {
		if err := g.wal.Err(); err != nil {
			// The log's sticky failure: the store is read-only.
			return fmt.Errorf("store: wal: %w", err)
		}
		if g.durable >= gen {
			return nil
		}
		if g.closed {
			return fmt.Errorf("store: durable store closed before generation %d was fsynced", gen)
		}
		if !waited {
			waited = true
			g.waits++
		}
		if g.syncing {
			g.cond.Wait()
			continue
		}
		g.syncing = true
		target := g.pending
		g.mu.Unlock()
		ferr := faults.Inject(faults.WALFsync)
		var serr error
		var took time.Duration
		if ferr == nil {
			start := time.Now()
			serr = g.wal.Sync() // sticky on failure; the loop top reports it
			took = time.Since(start)
		}
		g.mu.Lock()
		g.syncing = false
		if ferr == nil && serr == nil {
			g.fsyncs++
			g.hist.Observe(took.Seconds())
			if target > g.durable {
				g.durable = target
			}
		}
		g.cond.Broadcast()
		if ferr != nil {
			// Injected transient failure: this leader's mutation is appended
			// but not certainly durable — report it; co-waiters elect a new
			// leader and retry.
			return fmt.Errorf("store: wal fsync: %w", ferr)
		}
	}
}

// stats snapshots the committer counters.
func (g *committer) stats() (pending, durable, fsyncs, waits uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pending, g.durable, g.fsyncs, g.waits
}

// WaitDurable implements core.CommitWaiter. In the default
// fsync-per-record mode every mutation is durable before Record returns,
// so it is a no-op.
func (d *Durable) WaitDurable(gen uint64) error {
	if d.gc == nil {
		return nil
	}
	return d.gc.wait(gen)
}
