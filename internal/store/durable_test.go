package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/faults"
	"github.com/aware-home/grbac/internal/replica"
)

// TestDurableRoundTrip covers the plain lifecycle: seed a fresh dir,
// mutate, Close (which checkpoints), reopen, and get the same policy,
// generation floor, and epoch back.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	seed := buildSystem(t).Export()
	d1, err := Open(dir, WithSeedState(&seed), quiet)
	if err != nil {
		t.Fatal(err)
	}
	sys := d1.System()
	if err := sys.AddSubject("bob"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AssignSubjectRole("bob", "child"); err != nil {
		t.Fatal(err)
	}
	want := sys.Export()
	gen := sys.Generation()
	epoch := d1.Epoch()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !reflect.DeepEqual(d2.System().Export(), want) {
		t.Fatal("reopened state differs")
	}
	if d2.Epoch() != epoch {
		t.Fatalf("epoch changed across restart: %s -> %s", epoch, d2.Epoch())
	}
	if g := d2.System().Generation(); g < gen {
		t.Fatalf("generation regressed: %d < %d", g, gen)
	}
	// Close checkpointed, so the reboot replayed nothing.
	if st := d2.Stats(); st.Replay.Records != 0 || !st.Replay.Snapshot {
		t.Fatalf("replay after clean Close = %+v, want snapshot only", st.Replay)
	}
	// The recovered policy still decides.
	ok, err := d2.System().CheckAccess(core.Request{Subject: "bob", Object: "tv",
		Transaction: "use", Environment: []core.RoleID{"weekday-free-time"}})
	if err != nil || !ok {
		t.Fatalf("recovered decision = %v, %v; want permit", ok, err)
	}
}

// TestDurableSeedOnlyWhenEmpty pins "durable state wins": the seed applies
// to a virgin directory once, and is ignored on every later boot even if
// it changed.
func TestDurableSeedOnlyWhenEmpty(t *testing.T) {
	dir := t.TempDir()
	seed := buildSystem(t).Export()
	d1, err := Open(dir, WithSeedState(&seed), quiet)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.System().AddSubject("bob"); err != nil {
		t.Fatal(err)
	}
	want := d1.System().Export()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	other := core.State{MinConfidence: 0.9}
	d2, err := Open(dir, WithSeedState(&other), quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !reflect.DeepEqual(d2.System().Export(), want) {
		t.Fatal("a non-empty directory took the seed state")
	}
}

// TestDurableCheckpointCompactsWAL checks that crossing the checkpoint
// interval snapshots and truncates the log instead of growing it forever.
func TestDurableCheckpointCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, WithCheckpointEvery(3), quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 7; i++ {
		if err := d.System().AddSubject(core.SubjectID(fmt.Sprintf("resident-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d, want >= 2 after 7 records at interval 3", st.Checkpoints)
	}
	if st.WALRecords >= 3 {
		t.Fatalf("WAL holds %d records after a checkpoint, want < 3", st.WALRecords)
	}
	if st.CheckpointGeneration == 0 || st.CheckpointGeneration > st.Generation {
		t.Fatalf("checkpoint generation %d out of range (gen %d)", st.CheckpointGeneration, st.Generation)
	}
}

// TestDurableJournalErrorSurfaces wires an injected WAL-append failure all
// the way to the mutator's caller as ErrJournal, with the in-memory
// mutation still applied (volatile) and the store healthy afterwards.
func TestDurableJournalErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	faults.Activate(faults.NewPlan(1, faults.Rule{
		Point: faults.WALAppend, Limit: 1,
		Action: faults.Action{Err: errors.New("disk full")},
	}))
	defer faults.Deactivate()

	err = d.System().AddSubject("carol")
	if !errors.Is(err, core.ErrJournal) {
		t.Fatalf("err = %v, want ErrJournal", err)
	}
	if !d.System().HasSubject("carol") {
		t.Fatal("in-memory mutation rolled back; journal failures are volatile, not reverting")
	}
	faults.Deactivate()
	// The failure was transient (append never reached the file), so the
	// store keeps accepting writes.
	if err := d.System().AddSubject("dave"); err != nil {
		t.Fatalf("store stuck after transient journal error: %v", err)
	}
	if d.Stats().Failed != "" {
		t.Fatalf("store marked failed after a pre-write error: %s", d.Stats().Failed)
	}
}

// TestDurableFsyncFaultKeepsRecordInFeed: a failed fsync comes after the
// append, so the record is in the log and replays at the next boot. The
// delta feed must carry it too, or a delta-synced follower never learns
// a mutation the primary serves and keeps across a crash.
func TestDurableFsyncFaultKeepsRecordInFeed(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, WithCheckpointEvery(1<<20), quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sys := d.System()
	src := replica.NewSource(sys, replica.WithSourceEpoch(d.Epoch()), replica.WithDeltaProvider(d))
	g0 := sys.Generation()
	faults.Activate(faults.NewPlan(1, faults.Rule{
		Point: faults.WALFsync, Limit: 1,
		Action: faults.Action{Err: errors.New("injected fsync failure")},
	}))
	defer faults.Deactivate()

	if err := sys.AddSubject("a"); !errors.Is(err, core.ErrJournal) {
		t.Fatalf("AddSubject during fsync fault = %v, want ErrJournal", err)
	}
	faults.Deactivate()
	if err := sys.AddSubject("b"); err != nil {
		t.Fatalf("store stuck after a transient fsync fault: %v", err)
	}
	st := d.Stats()
	if st.Failed != "" {
		t.Fatalf("injected fault must not be sticky: %q", st.Failed)
	}
	if st.WALAppends != 2 || st.WALRecords != 2 || st.DurableGeneration != sys.Generation() {
		t.Fatalf("stats = %+v, want 2 appends and records, durable through %d", st, sys.Generation())
	}

	delta, ok := src.Delta(d.Epoch(), g0)
	var got []core.SubjectID
	for _, m := range delta.Mutations {
		got = append(got, m.Subject)
	}
	if !ok || !reflect.DeepEqual(got, []core.SubjectID{"a", "b"}) {
		t.Fatalf("Delta(g0) = %v (ok=%v), want the adds of a and b", got, ok)
	}
	// A crash here replays both records.
	wal, err := os.ReadFile(filepath.Join(dir, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	d2 := reopenWithWAL(t, dir, wal)
	defer d2.Close()
	if !d2.System().HasSubject("a") || !d2.System().HasSubject("b") {
		t.Fatal("replay lost a journaled subject")
	}
}

// TestDurableFeedWaitsForFsync pins the commit path's visibility rule:
// a mutation reaches readers and the replication feed only once its WAL
// fsync has returned. A delayed fsync holds the mutator; neither Snapshot
// nor Delta may serve the mutation before that delay has run out, and
// both serve it once the mutator returns.
func TestDurableFeedWaitsForFsync(t *testing.T) {
	d, err := Open(t.TempDir(), quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sys := d.System()
	src := replica.NewSource(sys, replica.WithSourceEpoch(d.Epoch()), replica.WithDeltaProvider(d))
	g0 := sys.Generation()
	const hold = 300 * time.Millisecond
	plan := faults.NewPlan(1, faults.Rule{
		Point: faults.WALFsync, Limit: 1,
		Action: faults.Action{Delay: hold},
	})
	faults.Activate(plan)
	defer faults.Deactivate()

	// snapHas and deltaHas report whether each read serves the mutation.
	snapHas := func() bool {
		for _, s := range src.Snapshot().State.Subjects {
			if s.ID == "slow" {
				return true
			}
		}
		return false
	}
	deltaHas := func() bool {
		delta, ok := src.Delta(d.Epoch(), g0)
		return ok && len(delta.Mutations) == 1 && delta.Mutations[0].Subject == "slow"
	}
	type read struct {
		name string
		has  bool
		at   time.Time
	}

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- sys.AddSubject("slow") }()
	for plan.Fired(faults.WALFsync) == 0 {
		if time.Since(start) > 10*time.Second {
			t.Fatal("mutator never reached its fsync")
		}
		time.Sleep(time.Millisecond)
	}
	// The mutator is inside its fsync, which cannot end before start+hold.
	reads := make(chan read, 2)
	go func() { has := snapHas(); reads <- read{"Snapshot", has, time.Now()} }()
	go func() { has := deltaHas(); reads <- read{"Delta", has, time.Now()} }()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r := <-reads
		if r.has && r.at.Sub(start) < hold {
			t.Fatalf("%s served the mutation %v after the mutator started, inside its %v fsync",
				r.name, r.at.Sub(start), hold)
		}
	}
	if !snapHas() || !deltaHas() {
		t.Fatal("acknowledged mutation missing from Snapshot or Delta")
	}
}

// TestDurableClosedRefusesMutations: after Close, mutations fail loudly
// instead of silently losing durability.
func TestDurableClosedRefusesMutations(t *testing.T) {
	d, err := Open(t.TempDir(), quiet)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.System().AddSubject("late"); !errors.Is(err, core.ErrJournal) {
		t.Fatalf("mutation after Close = %v, want ErrJournal", err)
	}
}

// TestDurableCorruptCheckpointRefusesBoot: the WAL repairs torn tails, but
// a corrupt checkpoint snapshot is external damage — Open must fail with a
// typed error rather than boot an empty (fail-open) policy.
func TestDurableCorruptCheckpointRefusesBoot(t *testing.T) {
	dir := t.TempDir()
	seed := buildSystem(t).Export()
	d, err := Open(dir, WithSeedState(&seed), quiet)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, SnapshotFile)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, quiet); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt checkpoint = %v, want ErrCorrupt", err)
	}
}

// TestDurableMutationsSince covers the delta feed contract: complete
// tails serve, positions before the covered window or past the head force
// a full sync, and ephemeral bumps advance the completeness bound without
// producing records.
func TestDurableMutationsSince(t *testing.T) {
	dir := t.TempDir()
	seed := buildSystem(t).Export()
	d, err := Open(dir, WithSeedState(&seed), quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sys := d.System()
	base := sys.Generation()

	if err := sys.AddSubject("bob"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSubject("carol"); err != nil {
		t.Fatal(err)
	}
	// Ephemeral churn on top: bumps the generation, writes no record.
	sid, err := sys.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CloseSession(sid); err != nil {
		t.Fatal(err)
	}
	head := sys.Generation()

	muts, upTo, ok := d.MutationsSince(base)
	if !ok {
		t.Fatal("tail did not serve a position it covers")
	}
	if len(muts) != 2 || muts[0].Op != core.OpAddSubject || muts[1].Op != core.OpAddSubject {
		t.Fatalf("mutations = %+v, want the two subject adds", muts)
	}
	if upTo != head {
		t.Fatalf("upTo = %d, want head %d (ephemeral bumps must be covered)", upTo, head)
	}
	// Caught-up follower: empty delta, position still advances to head.
	muts, upTo, ok = d.MutationsSince(head - 1)
	if !ok || len(muts) != 0 || upTo != head {
		t.Fatalf("near-head delta = (%v, %d, %v), want (none, %d, true)", muts, upTo, ok, head)
	}
	// A position from the future (stale epoch bookkeeping, clock games)
	// cannot be served: full sync.
	if _, _, ok := d.MutationsSince(head + 1); ok {
		t.Fatal("future position served as a delta")
	}
	// A position before the covered window cannot be served either.
	if _, _, ok := d.MutationsSince(0); ok {
		t.Fatal("position before the covered window served as a delta")
	}
}

// TestDurableDeltaTailBounded: the in-memory tail stays within its budget
// and old positions fall off into full-sync territory.
func TestDurableDeltaTailBounded(t *testing.T) {
	dir := t.TempDir()
	tail4 := func(d *Durable) { d.deltaLogSize = 4 }
	d, err := Open(dir, tail4, WithCheckpointEvery(1<<20), quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sys := d.System()
	start := sys.Generation()
	for i := 0; i < 10; i++ {
		if err := sys.AddSubject(core.SubjectID(fmt.Sprintf("n-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.Stats().DeltaTailLen; n > 4 {
		t.Fatalf("tail length %d exceeds budget 4", n)
	}
	if _, _, ok := d.MutationsSince(start); ok {
		t.Fatal("evicted position still served as a delta")
	}
	muts, _, ok := d.MutationsSince(sys.Generation() - 2)
	if !ok || len(muts) != 2 {
		t.Fatalf("recent delta = (%d muts, %v), want (2, true)", len(muts), ok)
	}
}
