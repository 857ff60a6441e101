package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/aware-home/grbac/internal/disk"
	"github.com/aware-home/grbac/internal/faults"
)

// Rebalance coordinator: moves the subjects a map change displaces from
// their old owners to their new ones while the cluster keeps serving,
// then commits the new map. A shard answers for the subjects it holds and
// forwards the rest by the router's committed map, then its pending one
// (internal/pdp), so a run is, in journal order (DESIGN §14):
//
//	ready      every shard of either map answers and follows the feed;
//	           otherwise Start fails, and nothing is journaled or published
//	begin      journaled: old map, new map
//	pending    the new map is published beside the committed one
//	plan       every shard of either map lists its residents once its
//	           feed holds the pending map; journaled as planned
//	handoff    per subject, the old owner copies it to the new owner
//	           under its write gate, then deletes its own copy
//	moved      journaled
//	committed  journaled when every move is acked
//	commit     the new map is committed and pending cleared at once
//	done       journaled; the journal resets for the next run
//
// Every step is idempotent, so a crash anywhere resumes from the journal:
// a run with no plan republishes pending and plans again, one with a plan
// republishes pending and hands off what is not yet moved, one that
// reached committed commits. So a published pending map always reaches a
// commit; that is why Start checks readiness first. The journal is JSONL
// on disk.Log, fsynced per record.

// Move relocates one subject between shards.
type Move struct {
	Subject string `json:"subject"`
	From    Info   `json:"from"`
	To      Info   `json:"to"`
}

// NodeClient is the per-shard migration surface the coordinator drives;
// internal/pdp.MigrationNode is the HTTP implementation.
type NodeClient interface {
	// Subjects lists the shard's residents once its map feed holds a
	// map, committed or pending, of at least the given version.
	Subjects(ctx context.Context, version uint64) ([]string, error)
	// Handoff copies each subject the shard still holds to its new owner
	// and then deletes it, so a re-run never copies twice.
	Handoff(ctx context.Context, moves []Move) error
}

// Dialer returns the migration client for one shard.
type Dialer func(Info) NodeClient

// ErrRebalanceActive reports a second rebalance starting while one runs.
var ErrRebalanceActive = errors.New("shard: a rebalance is already running")

// ErrShardNotReady reports a Start refused because a shard of the run
// cannot be reached or follows no map feed.
var ErrShardNotReady = errors.New("shard: not ready for a rebalance")

// Status is a point-in-time snapshot of the coordinator.
type Status struct {
	Active      bool   `json:"active"`
	Phase       string `json:"phase,omitempty"`
	FromVersion uint64 `json:"from_version,omitempty"`
	ToVersion   uint64 `json:"to_version,omitempty"`
	TotalMoves  int    `json:"total_moves"`
	Moved       int    `json:"moved"`
	Error       string `json:"error,omitempty"`
}

// journalRecord is one line of the rebalance journal.
type journalRecord struct {
	Op      string `json:"op"` // begin | planned | moved | committed | done
	Old     *Wire  `json:"old,omitempty"`
	New     *Wire  `json:"new,omitempty"`
	Moves   []Move `json:"moves,omitempty"`
	Subject string `json:"subject,omitempty"`
}

// Coordinator runs online rebalances. One instance per routing process;
// at most one rebalance runs at a time.
type Coordinator struct {
	path    string
	dial    Dialer
	pending func(ctx context.Context, m *Map) error
	commit  func(ctx context.Context, m *Map) error
	logf    func(format string, args ...any)

	mu     sync.Mutex
	status Status // Active doubles as the single-flight slot
}

// NewCoordinator builds a coordinator journaling to path. dial opens
// per-shard migration clients. pending publishes a run's new map beside
// the committed one; commit installs it and clears pending in one
// publication (router swap + persistence). Both must take the same map
// again on resume. logf may be nil.
func NewCoordinator(path string, dial Dialer, pending, commit func(ctx context.Context, m *Map) error, logf func(string, ...any)) *Coordinator {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Coordinator{path: path, dial: dial, pending: pending, commit: commit, logf: logf}
}

// Status returns the coordinator's current progress snapshot.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

func (c *Coordinator) setStatus(mutate func(*Status)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mutate(&c.status)
}

// claim takes the coordinator's single-flight slot.
func (c *Coordinator) claim() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.status.Active {
		return ErrRebalanceActive
	}
	c.status.Active = true
	return nil
}

func (c *Coordinator) release(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.status.Active = false
	if err != nil {
		c.status.Phase = "failed"
		c.status.Error = err.Error()
	} else {
		c.status.Phase = "done"
	}
}

// plan lists the residents of every shard of cur and next, each once its
// feed holds next, and returns the move set: every subject whose next
// owner is not the shard that holds it. A subject registered after the
// listing is born on its next owner.
func (c *Coordinator) plan(ctx context.Context, cur, next *Map) ([]Move, error) {
	var moves []Move
	for _, from := range participants(cur, next) {
		subjects, err := c.dial(from).Subjects(ctx, next.Version())
		if err != nil {
			return nil, fmt.Errorf("shard: list subjects on %q: %w", from.ID, err)
		}
		for _, sub := range subjects {
			if to := next.Owner(sub); to.ID != from.ID {
				moves = append(moves, Move{Subject: sub, From: from, To: to})
			}
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].Subject < moves[j].Subject })
	return moves, nil
}

// ready checks that every shard of cur and next lists its residents at
// cur's version: it is reachable, and its feed has fetched the committed
// map (a shard that follows no feed refuses).
func (c *Coordinator) ready(ctx context.Context, cur, next *Map) error {
	for _, sh := range participants(cur, next) {
		if _, err := c.dial(sh).Subjects(ctx, cur.Version()); err != nil {
			return fmt.Errorf("%w: shard %q: %v", ErrShardNotReady, sh.ID, err)
		}
	}
	return nil
}

// participants returns every shard of cur and next, once each.
func participants(cur, next *Map) []Info {
	var out []Info
	seen := make(map[string]bool)
	for _, sh := range append(cur.Shards(), next.Shards()...) {
		if !seen[sh.ID] {
			seen[sh.ID] = true
			out = append(out, sh)
		}
	}
	return out
}

// Start claims the single-flight slot synchronously, so concurrent
// callers get a clean ErrRebalanceActive, checks that every shard of the
// run is ready (ErrShardNotReady otherwise), then journals the cur→next
// run and executes it in the background; progress is polled via Status.
// A journal holding an interrupted run owns the published pending map:
// that run resumes instead, and Start reports ErrRebalanceActive.
func (c *Coordinator) Start(ctx context.Context, cur, next *Map) (Status, error) {
	if err := c.claim(); err != nil {
		return Status{}, err
	}
	j, run, err := c.openJournal()
	if err != nil {
		c.setStatus(func(s *Status) { s.Active = false })
		return Status{}, err
	}
	if run.begin != nil && !run.done {
		c.background(j, run)
		return Status{}, fmt.Errorf("%w: resuming the interrupted run to map v%d first", ErrRebalanceActive, run.begin.New.Version)
	}
	// Once its pending map is published a run must reach a commit, so a
	// shard it could not plan on refuses it before anything is written.
	err = c.ready(ctx, cur, next)
	oldW, newW := cur.Wire(), next.Wire()
	begin := journalRecord{Op: "begin", Old: &oldW, New: &newW}
	if err == nil {
		err = j.append(begin)
	}
	if err != nil {
		j.close()
		c.setStatus(func(s *Status) { s.Active = false })
		return Status{}, err
	}
	c.resetStatus(cur, next)
	st := c.Status()
	c.background(j, journalRun{begin: &begin, moved: make(map[string]bool)})
	return st, nil
}

// background executes a claimed run detached from the caller, which it
// outlives.
func (c *Coordinator) background(j *journal, run journalRun) {
	go func() {
		defer j.close()
		err := c.run(context.Background(), j, run)
		if err != nil {
			c.logf("rebalance: %v", err)
		}
		c.release(err)
	}()
}

func (c *Coordinator) resetStatus(from, to *Map) {
	c.setStatus(func(s *Status) {
		*s = Status{Active: true, Phase: "plan", FromVersion: from.Version(), ToVersion: to.Version()}
	})
}

// Resume replays an interrupted run from the journal, if one is
// pending. It reports whether anything was resumed.
func (c *Coordinator) Resume(ctx context.Context) (resumed bool, err error) {
	// Claim the slot before opening the journal: the open may cut a torn
	// tail, which must never race a live run's append.
	if err := c.claim(); err != nil {
		return false, err
	}
	j, run, err := c.openJournal()
	if err != nil {
		c.setStatus(func(s *Status) { s.Active = false })
		return false, err
	}
	defer j.close()
	if run.begin == nil || run.done {
		// A done run crashed between its done record and the journal
		// reset: only the cleanup is owed.
		if run.done {
			err = j.reset()
		}
		c.setStatus(func(s *Status) { s.Active = false })
		return false, err
	}
	err = c.run(ctx, j, run)
	c.release(err)
	return true, err
}

// run executes one journaled run from wherever its journal left it:
// publish pending, plan, hand off, then commit and done.
func (c *Coordinator) run(ctx context.Context, j *journal, run journalRun) error {
	cur, err := FromWire(*run.begin.Old)
	if err != nil {
		return fmt.Errorf("shard: journal old map: %w", err)
	}
	next, err := FromWire(*run.begin.New)
	if err != nil {
		return fmt.Errorf("shard: journal new map: %w", err)
	}
	c.resetStatus(cur, next)
	if !run.committed {
		// Republished on every resume: a restarted router holds only its
		// committed map.
		if err := c.pending(ctx, next); err != nil {
			return fmt.Errorf("shard: publish pending map v%d: %w", next.Version(), err)
		}
		moves := run.moves
		if !run.planned {
			if moves, err = c.plan(ctx, cur, next); err != nil {
				return err
			}
			if err := j.append(journalRecord{Op: "planned", Moves: moves}); err != nil {
				return err
			}
		}
		c.setStatus(func(s *Status) { s.Phase, s.TotalMoves, s.Moved = "copy", len(moves), len(run.moved) })
		c.logf("rebalance: v%d → v%d, %d subjects to move, %d moved", cur.Version(), next.Version(), len(moves), len(run.moved))
		for _, mv := range moves {
			if run.moved[mv.Subject] {
				continue
			}
			if err := c.moveOne(ctx, j, mv); err != nil {
				return err
			}
			c.setStatus(func(s *Status) { s.Moved++ })
		}
		if err := j.append(journalRecord{Op: "committed"}); err != nil {
			return err
		}
	}
	c.setStatus(func(s *Status) { s.Phase = "commit" })
	if err := faults.Inject(faults.RebalanceCommit); err != nil {
		return err
	}
	if err := c.commit(ctx, next); err != nil {
		return fmt.Errorf("shard: commit map v%d: %w", next.Version(), err)
	}
	if err := j.append(journalRecord{Op: "done"}); err != nil {
		return err
	}
	// The run is durable-done; reset the journal for the next one.
	return j.reset()
}

// moveOne hands one subject off and journals it moved. A re-run after a
// crash between the two finds the subject gone from its old owner and
// copies nothing.
func (c *Coordinator) moveOne(ctx context.Context, j *journal, mv Move) error {
	if err := c.dial(mv.From).Handoff(ctx, []Move{mv}); err != nil {
		return fmt.Errorf("shard: handoff %q on %q: %w", mv.Subject, mv.From.ID, err)
	}
	if err := faults.Inject(faults.RebalanceHandoff); err != nil {
		return err
	}
	return j.append(journalRecord{Op: "moved", Subject: mv.Subject})
}

// --- journal --------------------------------------------------------------

// journal is the rebalance run log: one JSON record per line on the
// shared crash-safe line log, fsynced per record.
type journal struct {
	log *disk.Log
}

// journalRun is a journal folded to what a resume needs: the last begin
// and what its run reached since.
type journalRun struct {
	begin     *journalRecord
	planned   bool
	moves     []Move
	moved     map[string]bool
	committed bool
	done      bool
}

// openJournal opens the coordinator's journal and folds its records. A
// torn tail left by a crash mid-append, or a line that does not decode,
// ends the clean prefix; the rest is cut off (and the cut fsynced) before
// anything is appended, since appending after the fragment would glue the
// next record onto it and hide that record, and every later one, from the
// next Resume. The repair is logged.
func (c *Coordinator) openJournal() (*journal, journalRun, error) {
	var recs []journalRecord
	l, rep, err := disk.OpenLog(c.path, true, func(line []byte) error {
		if len(line) == 0 {
			return nil
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, journalRun{}, fmt.Errorf("shard: rebalance journal: %w", err)
	}
	if rep.TruncatedBytes > 0 {
		c.logf("rebalance: journal repair dropped %d-byte tail: %s", rep.TruncatedBytes, rep.Reason)
	}
	return &journal{log: l}, foldJournal(recs), nil
}

// append writes one record and fsyncs it — a record the coordinator
// acted on must never be lost to a crash.
func (j *journal) append(rec journalRecord) error {
	if err := faults.Inject(faults.RebalanceJournal); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("shard: encode journal record: %w", err)
	}
	if err := j.log.Append(append(b, '\n')); err != nil {
		return fmt.Errorf("shard: append journal record: %w", err)
	}
	if err := j.log.Sync(); err != nil {
		return fmt.Errorf("shard: journal: %w", err)
	}
	return nil
}

// reset empties the journal.
func (j *journal) reset() error {
	if err := j.log.Reset(); err != nil {
		return fmt.Errorf("shard: journal: %w", err)
	}
	return nil
}

func (j *journal) close() { _ = j.log.Close() }

// foldJournal reduces a record sequence to the last begin's run.
func foldJournal(recs []journalRecord) journalRun {
	run := journalRun{moved: make(map[string]bool)}
	for i := range recs {
		switch recs[i].Op {
		case "begin":
			run = journalRun{begin: &recs[i], moved: make(map[string]bool)}
		case "planned":
			run.planned, run.moves = true, recs[i].Moves
		case "moved":
			run.moved[recs[i].Subject] = true
		case "committed":
			run.committed = true
		case "done":
			run.done = true
		}
	}
	return run
}
