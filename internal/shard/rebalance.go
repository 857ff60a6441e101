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
// then commits the new map version. The protocol per subject:
//
//	copy     export from old owner → import on new owner
//	handoff  old owner starts forwarding the subject's traffic to new
//	delta    re-export → re-import; forwarding is already on, so this
//	         second (idempotent) pass closes the race with mutations
//	         that landed between the first copy and the handoff flip
//	moved    journaled — the subject's move is durable
//
// and for the run as a whole:
//
//	begin      journaled before any copy: old map, new map, move set
//	committed  journaled when every move is acked; the commit callback
//	           then installs + publishes the new map
//	complete   old owners drop moved subjects, forwarding flips from
//	           proxy to typed 421 redirects
//	done       journaled; the journal resets for the next run
//
// Every step is idempotent (imports upsert, handoff and complete
// re-apply, the commit callback version-gates), so a coordinator crash
// at ANY point resumes by replaying the journal: finished moves are
// skipped, the in-flight one re-runs, and the run converges to the
// committed map version. The journal is JSONL on disk.Log, the line
// log the store WAL also uses, fsynced per record, one record per
// transition.

// Move relocates one subject between shards.
type Move struct {
	Subject string `json:"subject"`
	From    Info   `json:"from"`
	To      Info   `json:"to"`
}

// NodeClient is the per-shard migration surface the coordinator drives.
// Subject bundles stay opaque JSON: the coordinator streams them
// old→new without understanding them. internal/pdp.MigrationNode is the
// HTTP implementation.
type NodeClient interface {
	// Subjects lists the shard's resident subject IDs.
	Subjects(ctx context.Context) ([]string, error)
	// ExportSubject fetches one subject's migration bundle.
	ExportSubject(ctx context.Context, subject string) (json.RawMessage, error)
	// ImportSubject idempotently restores a bundle on the shard.
	ImportSubject(ctx context.Context, bundle json.RawMessage) error
	// Handoff opens the dual-ownership window: the shard forwards
	// traffic for the moved subjects to their new owners.
	Handoff(ctx context.Context, mapVersion uint64, moves []Move) error
	// Complete drops the moved subjects locally and switches the
	// forwarding entries to typed 421 redirects.
	Complete(ctx context.Context, mapVersion uint64, moves []Move) error
}

// Dialer returns the migration client for one shard.
type Dialer func(Info) NodeClient

// ErrRebalanceActive reports a second rebalance starting while one runs.
var ErrRebalanceActive = errors.New("shard: a rebalance is already running")

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
	Op      string `json:"op"` // begin | moved | committed | done
	Old     *Wire  `json:"old,omitempty"`
	New     *Wire  `json:"new,omitempty"`
	Moves   []Move `json:"moves,omitempty"`
	Subject string `json:"subject,omitempty"`
}

// Coordinator runs online rebalances. One instance per routing process;
// at most one rebalance runs at a time.
type Coordinator struct {
	path   string
	dial   Dialer
	commit func(ctx context.Context, m *Map) error
	logf   func(format string, args ...any)

	mu      sync.Mutex
	running bool
	status  Status
}

// NewCoordinator builds a coordinator journaling to path. dial opens
// per-shard migration clients; commit installs a fully-acked new map
// (router swap + persistence) and must tolerate being called again with
// the same map on resume. logf may be nil.
func NewCoordinator(path string, dial Dialer, commit func(ctx context.Context, m *Map) error, logf func(string, ...any)) *Coordinator {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Coordinator{path: path, dial: dial, commit: commit, logf: logf}
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
	if c.running {
		return ErrRebalanceActive
	}
	c.running = true
	return nil
}

// acquire claims the slot for one run and resets its progress.
func (c *Coordinator) acquire(from, to *Map, total int) error {
	if err := c.claim(); err != nil {
		return err
	}
	c.resetStatus(from, to, total)
	return nil
}

func (c *Coordinator) resetStatus(from, to *Map, total int) {
	c.setStatus(func(s *Status) {
		*s = Status{Active: true, Phase: "copy", FromVersion: from.Version(), ToVersion: to.Version(), TotalMoves: total}
	})
}

func (c *Coordinator) release(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.running = false
	c.status.Active = false
	if err != nil {
		c.status.Phase = "failed"
		c.status.Error = err.Error()
	} else {
		c.status.Phase = "done"
	}
}

// Plan computes the move set a cur→next map change displaces: every
// subject resident on a cur shard whose next owner differs. Shards
// leaving the map contribute all their subjects.
func (c *Coordinator) Plan(ctx context.Context, cur, next *Map) ([]Move, error) {
	var moves []Move
	for _, from := range cur.Shards() {
		subjects, err := c.dial(from).Subjects(ctx)
		if err != nil {
			return nil, fmt.Errorf("shard: list subjects on %q: %w", from.ID, err)
		}
		for _, sub := range subjects {
			to := next.Owner(sub)
			if to.ID != from.ID {
				moves = append(moves, Move{Subject: sub, From: from, To: to})
			}
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].Subject < moves[j].Subject })
	return moves, nil
}

// AddShard plans and executes the rebalance that grows cur by s,
// returning the committed map.
func (c *Coordinator) AddShard(ctx context.Context, cur *Map, s Info) (*Map, error) {
	next, err := cur.Add(s)
	if err != nil {
		return nil, err
	}
	return next, c.rebalance(ctx, cur, next)
}

// RemoveShard plans and executes the rebalance that drains shard id out
// of cur, returning the committed map.
func (c *Coordinator) RemoveShard(ctx context.Context, cur *Map, id string) (*Map, error) {
	next, err := cur.Remove(id)
	if err != nil {
		return nil, err
	}
	return next, c.rebalance(ctx, cur, next)
}

// rebalance plans, journals, and executes one cur→next run.
func (c *Coordinator) rebalance(ctx context.Context, cur, next *Map) (err error) {
	moves, err := c.Plan(ctx, cur, next)
	if err != nil {
		return err
	}
	if err := c.acquire(cur, next, len(moves)); err != nil {
		return err
	}
	defer func() { c.release(err) }()
	return c.execute(ctx, cur, next, moves)
}

// Start plans the cur→next run, claims the coordinator's single-flight
// slot synchronously — so concurrent callers get a clean
// ErrRebalanceActive, never two runs — and executes the migration in
// the background. The returned Status is the starting snapshot (with
// the planned move count); progress is polled via Status.
func (c *Coordinator) Start(ctx context.Context, cur, next *Map) (Status, error) {
	moves, err := c.Plan(ctx, cur, next)
	if err != nil {
		return Status{}, err
	}
	if err := c.acquire(cur, next, len(moves)); err != nil {
		return Status{}, err
	}
	st := c.Status()
	go func() {
		// Detached from the caller: a rebalance outlives the request
		// that started it. The journal makes a crash mid-run resumable.
		var runErr error
		defer func() { c.release(runErr) }()
		runErr = c.execute(context.Background(), cur, next, moves)
		if runErr != nil {
			c.logf("rebalance: %v", runErr)
		}
	}()
	return st, nil
}

// execute journals and runs one already-planned, already-acquired
// cur→next migration. Callers own acquire/release.
func (c *Coordinator) execute(ctx context.Context, cur, next *Map, moves []Move) error {
	j, _, err := c.openJournal()
	if err != nil {
		return err
	}
	defer j.close()
	oldW, newW := cur.Wire(), next.Wire()
	if err := j.append(journalRecord{Op: "begin", Old: &oldW, New: &newW, Moves: moves}); err != nil {
		return err
	}
	c.logf("rebalance: v%d → v%d, %d subjects to move", cur.Version(), next.Version(), len(moves))
	return c.run(ctx, j, next, moves, false)
}

// Resume replays an interrupted run from the journal, if one is
// pending. It reports whether anything was resumed.
func (c *Coordinator) Resume(ctx context.Context) (resumed bool, err error) {
	// Claim the slot before opening the journal: the open may cut a torn
	// tail, which must never race a live run's append.
	if err := c.claim(); err != nil {
		return false, err
	}
	defer func() {
		if resumed {
			c.release(err)
			return
		}
		c.mu.Lock()
		c.running = false
		c.mu.Unlock()
	}()
	j, recs, err := c.openJournal()
	if err != nil {
		return false, err
	}
	defer j.close()
	begin, movedSet, committed, done := foldJournal(recs)
	if begin == nil {
		return false, nil
	}
	if done {
		// Crash landed between the done record and the journal reset:
		// the run finished, only the cleanup is owed.
		return false, j.reset()
	}
	cur, err := FromWire(*begin.Old)
	if err != nil {
		return false, fmt.Errorf("shard: journal old map: %w", err)
	}
	next, err := FromWire(*begin.New)
	if err != nil {
		return false, fmt.Errorf("shard: journal new map: %w", err)
	}
	remaining := make([]Move, 0, len(begin.Moves))
	for _, mv := range begin.Moves {
		if !movedSet[mv.Subject] {
			remaining = append(remaining, mv)
		}
	}
	c.resetStatus(cur, next, len(begin.Moves))
	c.setStatus(func(s *Status) { s.Moved = len(begin.Moves) - len(remaining) })
	c.logf("rebalance: resuming v%d → v%d, %d of %d moves left (committed=%v)",
		cur.Version(), next.Version(), len(remaining), len(begin.Moves), committed)
	return true, c.run(ctx, j, next, remaining, committed)
}

// run executes the copy/handoff/delta loop for the given moves, then
// commit + complete + done. committed short-circuits straight to the
// commit phase on resume.
func (c *Coordinator) run(ctx context.Context, j *journal, next *Map, moves []Move, committed bool) error {
	version := next.Version()
	if !committed {
		for _, mv := range moves {
			if err := c.moveOne(ctx, j, version, mv); err != nil {
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
		return fmt.Errorf("shard: commit map v%d: %w", version, err)
	}

	c.setStatus(func(s *Status) { s.Phase = "complete" })
	// All moves from the run, not just this call's remainder: complete
	// is idempotent and a resumed run must flip every old owner.
	all := movesFromJournal(j, moves)
	byFrom := make(map[string][]Move)
	fromInfo := make(map[string]Info)
	for _, mv := range all {
		byFrom[mv.From.ID] = append(byFrom[mv.From.ID], mv)
		fromInfo[mv.From.ID] = mv.From
	}
	ids := make([]string, 0, len(byFrom))
	for id := range byFrom {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := c.dial(fromInfo[id]).Complete(ctx, version, byFrom[id]); err != nil {
			return fmt.Errorf("shard: complete on %q: %w", id, err)
		}
	}
	if err := faults.Inject(faults.RebalanceComplete); err != nil {
		return err
	}
	if err := j.append(journalRecord{Op: "done"}); err != nil {
		return err
	}
	// The run is durable-done; reset the journal for the next one.
	return j.reset()
}

// moveOne runs the copy → handoff → delta → moved sequence for one
// subject. Every step re-runs cleanly: exports are reads, imports
// upsert, handoff re-applies.
func (c *Coordinator) moveOne(ctx context.Context, j *journal, version uint64, mv Move) error {
	from, to := c.dial(mv.From), c.dial(mv.To)

	bundle, err := from.ExportSubject(ctx, mv.Subject)
	if err != nil {
		return fmt.Errorf("shard: export %q from %q: %w", mv.Subject, mv.From.ID, err)
	}
	if err := faults.Inject(faults.RebalanceExport); err != nil {
		return err
	}
	if err := to.ImportSubject(ctx, bundle); err != nil {
		return fmt.Errorf("shard: import %q to %q: %w", mv.Subject, mv.To.ID, err)
	}
	if err := faults.Inject(faults.RebalanceImport); err != nil {
		return err
	}
	if err := from.Handoff(ctx, version, []Move{mv}); err != nil {
		return fmt.Errorf("shard: handoff %q on %q: %w", mv.Subject, mv.From.ID, err)
	}
	if err := faults.Inject(faults.RebalanceHandoff); err != nil {
		return err
	}
	// Forwarding is on: no further mutation can land on the old copy, so
	// this second pass captures everything the first one raced with.
	delta, err := from.ExportSubject(ctx, mv.Subject)
	if err != nil {
		return fmt.Errorf("shard: delta export %q from %q: %w", mv.Subject, mv.From.ID, err)
	}
	if err := to.ImportSubject(ctx, delta); err != nil {
		return fmt.Errorf("shard: delta import %q to %q: %w", mv.Subject, mv.To.ID, err)
	}
	if err := faults.Inject(faults.RebalanceDelta); err != nil {
		return err
	}
	return j.append(journalRecord{Op: "moved", Subject: mv.Subject})
}

// movesFromJournal returns the full move set of the active run: the
// begin record's moves when the journal has one (resume), else the
// passed set (fresh run — moves IS the full set).
func movesFromJournal(j *journal, fallback []Move) []Move {
	if j.begin != nil {
		return j.begin.Moves
	}
	return fallback
}

// --- journal --------------------------------------------------------------

// journal is the rebalance run log: one JSON record per line on the
// shared crash-safe line log, fsynced per record.
type journal struct {
	log   *disk.Log
	begin *journalRecord
}

// openJournal opens the coordinator's journal and returns its records. A
// torn tail left by a crash mid-append, or a line that does not decode,
// ends the clean prefix; the rest is cut off (and the cut fsynced) before
// anything is appended, since appending after the fragment would glue the
// next record onto it and hide that record, and every later one, from the
// next Resume. The repair is logged.
func (c *Coordinator) openJournal() (*journal, []journalRecord, error) {
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
		return nil, nil, fmt.Errorf("shard: rebalance journal: %w", err)
	}
	if rep.TruncatedBytes > 0 {
		c.logf("rebalance: journal repair dropped %d-byte tail: %s", rep.TruncatedBytes, rep.Reason)
	}
	begin, _, _, _ := foldJournal(recs)
	return &journal{log: l, begin: begin}, recs, nil
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
	if rec.Op == "begin" {
		j.begin = &rec
	}
	return nil
}

// reset empties the journal after a durable done record.
func (j *journal) reset() error {
	j.begin = nil
	if err := j.log.Reset(); err != nil {
		return fmt.Errorf("shard: journal: %w", err)
	}
	return nil
}

func (j *journal) close() { _ = j.log.Close() }

// foldJournal reduces a record sequence to the resume inputs: the last
// begin, the subjects moved since it, and whether committed/done were
// reached.
func foldJournal(recs []journalRecord) (begin *journalRecord, moved map[string]bool, committed, done bool) {
	moved = make(map[string]bool)
	for i := range recs {
		switch recs[i].Op {
		case "begin":
			begin = &recs[i]
			moved = make(map[string]bool)
			committed, done = false, false
		case "moved":
			moved[recs[i].Subject] = true
		case "committed":
			committed = true
		case "done":
			done = true
		}
	}
	return begin, moved, committed, done
}
