package store

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/disk"
	"github.com/aware-home/grbac/internal/faults"
	"github.com/aware-home/grbac/internal/obs"
	"github.com/aware-home/grbac/internal/replica"
)

// On-disk layout of a durable data directory.
const (
	// SnapshotFile is the latest checkpoint: a Snapshot envelope stamped
	// with the generation it covers.
	SnapshotFile = "snapshot.json"
	// WALFile holds one walRecord line per mutation since the checkpoint.
	WALFile = "wal.log"
	// EpochFile persists the replication epoch and the generation
	// reservation, so a restarted primary resumes the same epoch at a
	// generation no follower has seen yet.
	EpochFile = "epoch.json"
)

// DefaultCheckpointEvery is the default number of WAL records between
// checkpoints.
const DefaultCheckpointEvery = 128

// defaultDeltaLogSize bounds the in-memory tail of recent mutations kept
// for follower delta sync.
const defaultDeltaLogSize = 1024

// genReserveChunk is how far ahead the epoch file reserves generations.
// Crossing the reservation costs one synchronous epoch-file rewrite per
// chunk; everything in between is covered by the last write, so a crash
// can never hand out a generation below one already observed externally.
const genReserveChunk = 4096

// epochRecord is the EpochFile document.
type epochRecord struct {
	Epoch string `json:"epoch"`
	// ReservedGeneration is an exclusive upper bound on generations that
	// may have become visible under this epoch. Boot resumes at or above
	// the reservation, keeping (epoch, generation) monotonic across
	// crashes even though session bumps are never journaled.
	ReservedGeneration uint64 `json:"reserved_generation"`
}

// DurableStats is a point-in-time report of the durable store, exported
// through /v1/statsz and the metrics registry.
type DurableStats struct {
	Dir string `json:"dir"`
	// Epoch is the persisted replication epoch this incarnation serves.
	Epoch string `json:"epoch"`
	// Generation is the highest policy generation the store has observed,
	// including ephemeral (session) bumps.
	Generation uint64 `json:"generation"`
	// DurableGeneration is the generation of the last WAL-fsynced
	// mutation: everything at or below it survives a crash.
	DurableGeneration uint64 `json:"durable_generation"`
	// CheckpointGeneration is the generation covered by snapshot.json.
	CheckpointGeneration uint64 `json:"checkpoint_generation"`
	// ReservedGeneration is the epoch file's generation reservation.
	ReservedGeneration uint64 `json:"reserved_generation"`
	// WALRecords and WALBytes describe the log tail since the checkpoint.
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// WALAppends and WALFsyncs count appends and fsyncs this process.
	WALAppends uint64 `json:"wal_appends"`
	WALFsyncs  uint64 `json:"wal_fsyncs"`
	// Checkpoints counts snapshot+truncate checkpoints this process.
	Checkpoints uint64 `json:"checkpoints"`
	// DeltaTailLen is the number of recent mutations held for delta sync.
	DeltaTailLen int `json:"delta_tail_len"`
	// Replay describes the boot-time recovery pass.
	Replay ReplayStats `json:"replay"`
	// Failed carries the sticky failure, empty while healthy. Once a WAL
	// write or fsync fails the store refuses further mutations rather
	// than acknowledge writes it cannot make durable.
	Failed string `json:"failed,omitempty"`
}

// Durable is a crash-safe policy store: it attaches to a core.System as
// its mutation Journal, write-ahead-logs every mutation with an fsync,
// checkpoints a full snapshot every N records, and on Open replays
// snapshot+WAL-tail back into a fresh system. It also persists the
// replication epoch and serves a bounded tail of recent mutations so a
// restarted primary's followers catch up with a delta instead of a full
// snapshot.
type Durable struct {
	dir             string
	checkpointEvery int
	deltaLogSize    int
	seed            *core.State
	logger          *log.Logger

	sys *core.System

	// mu guards everything below. Lock ordering: the System write lock is
	// always taken before mu (Record/ObserveGeneration run under it), so
	// nothing here may call back into sys while holding mu.
	mu          sync.Mutex
	wal         *disk.Log
	walRecords  int
	epoch       string
	reserved    uint64
	baseGen     uint64 // generation covered by snapshot.json
	lastGen     uint64 // last WAL-durable generation
	maxSeen     uint64 // highest observed generation incl. ephemeral bumps
	tail        []core.Mutation
	coveredFrom uint64 // delta tail serves requests with after >= coveredFrom
	appends     uint64
	fsyncs      uint64
	checkpoints uint64
	replay      ReplayStats
	closed      bool

	fsyncHist *obs.Histogram // nil until RegisterMetrics; nil-safe
}

// DurableOption configures Open.
type DurableOption func(*Durable)

// WithCheckpointEvery checkpoints after every n WAL records (default 128;
// n < 1 is clamped to 1).
func WithCheckpointEvery(n int) DurableOption {
	return func(d *Durable) { d.checkpointEvery = n }
}

// WithSeedState seeds a brand-new data directory with st. Ignored when
// the directory already holds a snapshot or WAL — durable state always
// wins over the seed.
func WithSeedState(st *core.State) DurableOption {
	return func(d *Durable) { d.seed = st }
}

// WithDurableLogger sets the store's logger (default log.Default()).
func WithDurableLogger(l *log.Logger) DurableOption {
	return func(d *Durable) { d.logger = l }
}

// Open recovers (or initializes) the durable store in dir and returns it
// with a fully recovered core.System attached: snapshot imported, WAL
// tail replayed, torn tail repaired, generation advanced past the
// persisted reservation, epoch resumed. The returned store is already
// journaling — every subsequent mutation on System() is WAL-logged before
// the mutator returns.
func Open(dir string, opts ...DurableOption) (*Durable, error) {
	d := &Durable{
		dir:             dir,
		checkpointEvery: DefaultCheckpointEvery,
		deltaLogSize:    defaultDeltaLogSize,
		logger:          log.Default(),
	}
	for _, opt := range opts {
		opt(d)
	}
	if d.checkpointEvery < 1 {
		d.checkpointEvery = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: data dir: %w", err)
	}

	// Epoch and generation reservation. An unreadable epoch file mints a
	// fresh epoch with a zero reservation: losing the incarnation identity
	// degrades followers to one full resync, which is safe precisely
	// because the epoch changed.
	ep, haveEpoch := loadEpochRecord(filepath.Join(dir, EpochFile))
	if !haveEpoch {
		ep = epochRecord{Epoch: replica.NewEpoch()}
	}
	d.epoch = ep.Epoch

	// Checkpoint. A missing snapshot is a fresh (or snapshot-less) dir; a
	// corrupt one is fatal — rename atomicity means corruption came from
	// outside, and silently dropping policy would fail open.
	snapPath := filepath.Join(dir, SnapshotFile)
	var sys *core.System
	snapLoaded := false
	if _, err := os.Stat(snapPath); err == nil {
		loaded, snap, err := Load(snapPath)
		if err != nil {
			return nil, fmt.Errorf("store: recover checkpoint: %w", err)
		}
		sys = loaded
		d.baseGen = snap.Generation
		snapLoaded = true
	} else {
		sys = core.NewSystem()
	}

	// WAL replay with tail repair.
	lastGen := d.baseGen
	wal, stats, err := openWAL(filepath.Join(dir, WALFile), d.baseGen, func(m core.Mutation) error {
		if err := sys.Apply(m); err != nil {
			return err
		}
		lastGen = m.Gen
		d.pushTailLocked(m) // single-threaded here; mu not needed yet
		return nil
	})
	if err != nil {
		return nil, err
	}
	walExisted := wal.Size()+stats.TruncatedBytes > 0
	stats.Snapshot = snapLoaded
	d.replay = stats
	if stats.TruncatedBytes > 0 {
		d.logger.Printf("store: wal replay dropped %d-byte tail: %s", stats.TruncatedBytes, stats.Reason)
	}
	d.wal = wal
	d.walRecords = stats.Records + stats.Skipped
	d.lastGen = lastGen

	// Seed only a genuinely empty directory: durable state, even an empty
	// snapshot, always wins.
	if !snapLoaded && !walExisted && d.seed != nil {
		if err := sys.Import(*d.seed); err != nil {
			_ = d.wal.Close()
			return nil, fmt.Errorf("store: seed state: %w", err)
		}
	}

	// Resume the generation past everything any observer can have seen:
	// the replayed WAL, the snapshot, and the persisted reservation.
	gen0 := lastGen
	if g := sys.Generation(); g > gen0 {
		gen0 = g
	}
	if ep.ReservedGeneration > gen0 {
		gen0 = ep.ReservedGeneration
	}
	sys.AdvanceGeneration(gen0)
	d.maxSeen = gen0
	d.reserved = gen0 + genReserveChunk
	if err := d.writeEpochLocked(); err != nil {
		_ = d.wal.Close()
		return nil, fmt.Errorf("store: persist epoch: %w", err)
	}

	// First boot (no checkpoint yet): write one immediately so the seed —
	// or the empty initial state — is durable before the store reports
	// itself open.
	d.sys = sys
	if !snapLoaded {
		st, gen := sys.Snapshot()
		d.baseGen = gen
		if err := d.checkpointLocked(st, gen); err != nil {
			_ = d.wal.Close()
			return nil, fmt.Errorf("store: initial checkpoint: %w", err)
		}
	}
	if d.coveredFrom == 0 {
		d.coveredFrom = d.baseGen
	}
	sys.SetJournal(d)
	return d, nil
}

// loadEpochRecord reads the epoch file, reporting ok=false for a missing
// or unreadable file.
func loadEpochRecord(path string) (epochRecord, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return epochRecord{}, false
	}
	var ep epochRecord
	if err := json.Unmarshal(raw, &ep); err != nil || ep.Epoch == "" {
		return epochRecord{}, false
	}
	return ep, true
}

// writeEpochLocked persists the epoch and the current reservation
// atomically. Callers hold mu (or, during Open, have exclusive access).
func (d *Durable) writeEpochLocked() error {
	raw, err := json.Marshal(epochRecord{Epoch: d.epoch, ReservedGeneration: d.reserved})
	if err != nil {
		return err
	}
	return disk.WriteFile(filepath.Join(d.dir, EpochFile), append(raw, '\n'), true)
}

// System returns the recovered decision engine the store journals for.
func (d *Durable) System() *core.System { return d.sys }

// Epoch returns the persisted replication epoch.
func (d *Durable) Epoch() string { return d.epoch }

// Record implements core.Journal: write-ahead-log the mutation, fsync,
// and checkpoint when the log is due. It runs under the System's write
// lock, so the WAL order is exactly the generation order, and no reader,
// follower or SDK sees the mutation before its fsync has returned.
//
// Once Append succeeds the record is in the log and replays at the next
// boot whatever the fsync does, so it is counted and joins the delta tail
// before the fsync; only lastGen (the fsynced watermark) waits for it.
func (d *Durable) Record(m core.Mutation, export func() core.State) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.wal.Err(); err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	if d.closed {
		return fmt.Errorf("store: durable store closed")
	}
	if err := faults.Inject(faults.WALAppend); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	line, err := encodeWALRecord(m)
	if err != nil {
		return err
	}
	if err := d.wal.Append(line); err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	d.appends++
	d.walRecords++
	if m.Gen > d.maxSeen {
		d.maxSeen = m.Gen
	}
	d.pushTailLocked(m)
	d.ensureReservedLocked(m.Gen)
	if err := faults.Inject(faults.WALFsync); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	start := time.Now()
	if err := d.wal.Sync(); err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	d.fsyncHist.ObserveSince(start)
	d.fsyncs++
	d.lastGen = m.Gen
	if d.walRecords >= d.checkpointEvery {
		// The mutation is already durable in the WAL; a failed checkpoint
		// only delays compaction, so it is logged, not returned.
		if err := d.checkpointLocked(export(), m.Gen); err != nil {
			d.logger.Printf("store: checkpoint at gen %d failed (will retry): %v", m.Gen, err)
		}
	}
	return nil
}

// ObserveGeneration implements core.Journal for ephemeral bumps: no WAL
// record, but the reservation must still stay ahead of anything a
// follower could observe through the watch feed.
func (d *Durable) ObserveGeneration(gen uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if gen > d.maxSeen {
		d.maxSeen = gen
	}
	d.ensureReservedLocked(gen)
}

// ensureReservedLocked extends the persisted generation reservation when
// gen reaches it. The write is synchronous and happens under the System
// write lock (via Record/ObserveGeneration), so a generation never
// becomes visible to readers before its reservation is on disk.
func (d *Durable) ensureReservedLocked(gen uint64) {
	if gen < d.reserved {
		return
	}
	prev := d.reserved
	d.reserved = gen + genReserveChunk
	if err := d.writeEpochLocked(); err != nil {
		// Keep the in-memory reservation (retrying every bump would turn
		// one bad write into a write storm) but log loudly: if the process
		// crashes before a later write succeeds, the next boot may reuse
		// generations between prev and gen under the same epoch.
		d.logger.Printf("store: persist generation reservation %d (was %d): %v", d.reserved, prev, err)
	}
}

// checkpointLocked writes st as the new snapshot and truncates the WAL it
// covers. Callers hold mu.
func (d *Durable) checkpointLocked(st core.State, gen uint64) error {
	if err := faults.Inject(faults.Checkpoint); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	snap := Snapshot{Version: Version, SavedAt: time.Now().UTC(), Generation: gen, State: st}
	if err := writeSnapshot(filepath.Join(d.dir, SnapshotFile), snap); err != nil {
		return err
	}
	d.baseGen = gen
	d.checkpoints++
	// From here the snapshot covers every logged record: a failed reset
	// leaves stale records that replay will skip (gen <= baseGen), so it
	// degrades space, not correctness.
	if err := d.wal.Reset(); err != nil {
		d.logger.Printf("store: reset wal after checkpoint: %v", err)
		return nil
	}
	d.walRecords = 0
	return nil
}

// pushTailLocked appends m to the bounded delta tail.
func (d *Durable) pushTailLocked(m core.Mutation) {
	d.tail = append(d.tail, m)
	for len(d.tail) > d.deltaLogSize {
		d.coveredFrom = d.tail[0].Gen
		d.tail = d.tail[1:]
	}
}

// MutationsSince returns the journaled mutations with generation > after,
// plus upTo — the highest generation the result is complete through
// (covering ephemeral bumps that produced no record) — and ok=false when
// the tail no longer reaches back to after, in which case the caller
// needs a full snapshot.
func (d *Durable) MutationsSince(after uint64) (muts []core.Mutation, upTo uint64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if after < d.coveredFrom || after > d.maxSeen {
		return nil, 0, false
	}
	for _, m := range d.tail {
		if m.Gen > after {
			muts = append(muts, m)
		}
	}
	return muts, d.maxSeen, true
}

// Stats reports the store's counters. It takes only d.mu (never the
// System's lock — see the lock-ordering note on Durable.mu).
func (d *Durable) Stats() DurableStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DurableStats{
		Dir:                  d.dir,
		Epoch:                d.epoch,
		Generation:           d.maxSeen,
		DurableGeneration:    d.lastGen,
		CheckpointGeneration: d.baseGen,
		ReservedGeneration:   d.reserved,
		WALRecords:           d.walRecords,
		WALBytes:             d.wal.Size(),
		WALAppends:           d.appends,
		WALFsyncs:            d.fsyncs,
		Checkpoints:          d.checkpoints,
		DeltaTailLen:         len(d.tail),
		Replay:               d.replay,
	}
	if err := d.wal.Err(); err != nil {
		st.Failed = err.Error()
	}
	return st
}

// RegisterMetrics exports the store's health on a metrics registry.
func (d *Durable) RegisterMetrics(reg *obs.Registry) {
	if d == nil || reg == nil {
		return
	}
	d.mu.Lock()
	d.fsyncHist = reg.NewHistogram("grbac_wal_fsync_seconds",
		"Latency of one WAL fsync.", nil)
	d.mu.Unlock()
	reg.NewCounterFunc("grbac_wal_appends_total",
		"Mutations appended to the write-ahead log.",
		func() float64 { return float64(d.Stats().WALAppends) })
	reg.NewCounterFunc("grbac_store_checkpoints_total",
		"Snapshot checkpoints written.",
		func() float64 { return float64(d.Stats().Checkpoints) })
	reg.NewGaugeFunc("grbac_wal_records",
		"WAL records accumulated since the last checkpoint.",
		func() float64 { return float64(d.Stats().WALRecords) })
	reg.NewGaugeFunc("grbac_wal_bytes",
		"WAL size in bytes since the last checkpoint.",
		func() float64 { return float64(d.Stats().WALBytes) })
	reg.NewGaugeFunc("grbac_store_durable_generation",
		"Generation of the last WAL-fsynced mutation.",
		func() float64 { return float64(d.Stats().DurableGeneration) })
	reg.NewGaugeFunc("grbac_store_replay_records",
		"WAL records replayed at the last boot.",
		func() float64 { return float64(d.Stats().Replay.Records) })
	reg.NewGaugeFunc("grbac_store_replay_truncated_bytes",
		"Torn/corrupt WAL tail bytes dropped at the last boot.",
		func() float64 { return float64(d.Stats().Replay.TruncatedBytes) })
	reg.NewGaugeFunc("grbac_store_failed",
		"1 once the store has hit a sticky durability failure, else 0.",
		func() float64 {
			if d.Stats().Failed != "" {
				return 1
			}
			return 0
		})
}

// closedJournal takes the store's place as the system's journal on Close.
// It keeps post-Close mutations failing loudly (a silent in-memory-only
// mutation would lie about durability) without touching the store's lock,
// so swapping it in can never deadlock against an in-flight checkpoint.
type closedJournal struct{}

func (closedJournal) Record(m core.Mutation, _ func() core.State) error {
	return fmt.Errorf("store: durable store closed: %s not persisted", m.Op)
}

func (closedJournal) ObserveGeneration(uint64) {}

// Close detaches the journal, writes a final checkpoint, and closes the
// WAL. The system stays readable afterwards; mutations fail with a closed
// error rather than silently losing durability.
func (d *Durable) Close() error {
	// Swap the journal BEFORE exporting: a mutation journaled after the
	// export but before the truncate would be compacted away unseen.
	// Swapped-then-exported, a racing mutation fails its journal call
	// instead — never silently dropped from a log it reached.
	d.sys.SetJournal(closedJournal{})
	st, gen := d.sys.Snapshot()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var firstErr error
	if d.wal.Err() == nil {
		if err := d.checkpointLocked(st, gen); err != nil {
			firstErr = err
		}
	}
	if err := d.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
