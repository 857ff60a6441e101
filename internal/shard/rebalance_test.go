package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/faults"
)

// fakeCluster is an in-memory shard fleet implementing the migration
// protocol the coordinator drives, with the same rules as the real pdp
// endpoints: a request goes to its committed owner, and a shard that
// does not hold the subject forwards it by the committed map, then by
// the pending one; handoff copies a subject the shard still holds and
// deletes it there. A copy is its write count, so a copy taken from a
// stale owner shows as lost writes.
type fakeCluster struct {
	mu       sync.Mutex
	resident map[string]map[string]int // shard → subject → writes applied
	active   *Map                      // last committed map
	pending  *Map                      // the running rebalance's map, if any
	writes   map[string]int            // subject → writes acked
	down     map[string]bool           // shards whose migration calls fail
}

func newFakeCluster(m *Map) *fakeCluster {
	cl := &fakeCluster{
		resident: make(map[string]map[string]int),
		active:   m,
		writes:   make(map[string]int),
	}
	for _, s := range m.Shards() {
		cl.ensure(s.ID)
	}
	return cl
}

func (cl *fakeCluster) ensure(id string) {
	if cl.resident[id] == nil {
		cl.resident[id] = make(map[string]int)
	}
}

func (cl *fakeCluster) seed(m *Map, subjects []string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, sub := range subjects {
		owner := m.Owner(sub).ID
		cl.ensure(owner)
		cl.resident[owner][sub] = 0
	}
}

func (cl *fakeCluster) dial(info Info) NodeClient {
	return &fakeNode{cl: cl, id: info.ID}
}

func (cl *fakeCluster) newCoordinator(path string, logf func(string, ...any)) *Coordinator {
	return NewCoordinator(path, cl.dial, cl.publishPending, cl.commit, logf)
}

// publishPending is the router's pending publication: version-gated
// like a commit, so a resume may publish the same map again.
func (cl *fakeCluster) publishPending(_ context.Context, m *Map) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if m.Version() <= cl.active.Version() {
		return fmt.Errorf("pending map v%d not past committed v%d", m.Version(), cl.active.Version())
	}
	cl.pending = m
	return nil
}

func (cl *fakeCluster) commit(_ context.Context, m *Map) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	// Version-gated like the router: re-committing the same map on
	// resume is fine, rolling back is not.
	if m.Version() >= cl.active.Version() {
		cl.active = m
	}
	if cl.pending != nil && cl.pending.Version() <= cl.active.Version() {
		cl.pending = nil
	}
	return nil
}

// resolve routes one subject the way the serving path would: to its
// committed owner, then by the ownership rule, ending at a resident
// copy. It errors when the subject is unreachable — the invariant every
// crash point must preserve.
func (cl *fakeCluster) resolve(sub string) (string, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.resolveLocked(sub)
}

func (cl *fakeCluster) resolveLocked(sub string) (string, error) {
	id := cl.active.Owner(sub).ID
	for hop := 0; ; hop++ {
		if _, ok := cl.resident[id][sub]; ok {
			return id, nil
		}
		next := ""
		if c := cl.active.Owner(sub).ID; hop == 0 && c != id {
			next = c
		} else if cl.pending != nil && hop < 2 && cl.pending.Owner(sub).ID != id {
			next = cl.pending.Owner(sub).ID
		}
		if next == "" {
			return "", fmt.Errorf("subject %q not resident on %q after %d hops", sub, id, hop)
		}
		id = next
	}
}

// write applies one acked mutation to sub where the serving path would
// route it: the resolved copy.
func (cl *fakeCluster) write(sub string) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	id, err := cl.resolveLocked(sub)
	if err != nil {
		return err
	}
	cl.resident[id][sub]++
	cl.writes[sub]++
	return nil
}

// checkWrites asserts every subject resolves to its owner under the
// active map, that owner's copy holds every acked write, and no other
// shard holds a copy.
func (cl *fakeCluster) checkWrites(t *testing.T, subs []string) {
	t.Helper()
	for _, sub := range subs {
		owner, err := cl.resolve(sub)
		if err != nil {
			t.Fatalf("resolve(%s): %v", sub, err)
		}
		if want := cl.active.Owner(sub).ID; owner != want {
			t.Fatalf("subject %s resolves to %s, want %s", sub, owner, want)
		}
		if got, want := cl.resident[owner][sub], cl.writes[sub]; got != want {
			t.Fatalf("subject %s on %s holds %d of %d acked writes", sub, owner, got, want)
		}
		for id, held := range cl.resident {
			if _, ok := held[sub]; ok && id != owner {
				t.Fatalf("subject %s still held by %s beside its owner %s", sub, id, owner)
			}
		}
	}
}

type fakeNode struct {
	cl *fakeCluster
	id string
}

func (n *fakeNode) Subjects(_ context.Context, version uint64) ([]string, error) {
	n.cl.mu.Lock()
	defer n.cl.mu.Unlock()
	if n.cl.down[n.id] {
		return nil, fmt.Errorf("shard %q unreachable", n.id)
	}
	if n.cl.active.Version() < version && (n.cl.pending == nil || n.cl.pending.Version() < version) {
		return nil, fmt.Errorf("shard %q: map v%d not published", n.id, version)
	}
	out := make([]string, 0, len(n.cl.resident[n.id]))
	for sub := range n.cl.resident[n.id] {
		out = append(out, sub)
	}
	sort.Strings(out)
	return out, nil
}

func (n *fakeNode) Handoff(_ context.Context, moves []Move) error {
	n.cl.mu.Lock()
	defer n.cl.mu.Unlock()
	for _, mv := range moves {
		copied, ok := n.cl.resident[n.id][mv.Subject]
		if !ok {
			continue
		}
		n.cl.ensure(mv.To.ID)
		n.cl.resident[mv.To.ID][mv.Subject] = copied
		delete(n.cl.resident[n.id], mv.Subject)
	}
	return nil
}

// runRebalance runs the cur→next rebalance the way RebalanceHandler
// does, with Start, waits for it to settle and returns its error.
func runRebalance(t *testing.T, coord *Coordinator, cur, next *Map) error {
	t.Helper()
	if _, err := coord.Start(context.Background(), cur, next); err != nil {
		return err
	}
	for deadline := time.Now().Add(10 * time.Second); coord.Status().Active; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("rebalance never settled: %+v", coord.Status())
		}
	}
	if st := coord.Status(); st.Phase == "failed" {
		return errors.New(st.Error)
	}
	return nil
}

func testSubjects(n int) []string {
	subs := make([]string, n)
	for i := range subs {
		subs[i] = fmt.Sprintf("user-%02d", i)
	}
	return subs
}

// TestRebalanceAddShard pins the happy path: growing the map moves
// exactly the displaced subjects, commits the new version, and leaves
// every subject on its new owner alone.
func TestRebalanceAddShard(t *testing.T) {
	base, err := New(0, Info{ID: "a", Addr: "addr-a"}, Info{ID: "b", Addr: "addr-b"})
	if err != nil {
		t.Fatal(err)
	}
	cl := newFakeCluster(base)
	subs := testSubjects(40)
	cl.seed(base, subs)

	path := filepath.Join(t.TempDir(), "rebalance.journal")
	coord := cl.newCoordinator(path, t.Logf)
	next, err := base.Add(Info{ID: "c", Addr: "addr-c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := runRebalance(t, coord, base, next); err != nil {
		t.Fatal(err)
	}
	if next.Version() != base.Version()+1 {
		t.Fatalf("committed version = %d, want %d", next.Version(), base.Version()+1)
	}
	if cl.active.Version() != next.Version() {
		t.Fatalf("commit callback saw v%d, want v%d", cl.active.Version(), next.Version())
	}
	moved := 0
	for _, sub := range subs {
		owner, err := cl.resolve(sub)
		if err != nil {
			t.Fatalf("resolve(%s): %v", sub, err)
		}
		if want := next.Owner(sub).ID; owner != want {
			t.Fatalf("subject %s resolves to %s, want %s", sub, owner, want)
		}
		if base.Owner(sub).ID != next.Owner(sub).ID {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("test map moved no subjects — pick more subjects or vnodes")
	}
	cl.checkWrites(t, subs)
	if cl.pending != nil {
		t.Fatalf("pending map v%d still published after the commit", cl.pending.Version())
	}
	st := coord.Status()
	if st.Active || st.Phase != "done" || st.Moved != st.TotalMoves || st.TotalMoves != moved {
		t.Fatalf("status = %+v, want done with %d/%d moves", st, moved, moved)
	}
	// The journal must be reset for the next run.
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not reset after done: err=%v size=%d", err, fi.Size())
	}
	// Re-running Resume on the empty journal is a no-op.
	if resumed, err := coord.Resume(context.Background()); err != nil || resumed {
		t.Fatalf("Resume on clean journal = (%v, %v), want (false, nil)", resumed, err)
	}
}

// TestRebalanceStartRefusesUnreadyShard pins the readiness check: a
// Start naming a shard that cannot list its residents fails at once with
// ErrShardNotReady, journals and publishes nothing, and leaves the
// coordinator free, so the corrected run starts and commits.
func TestRebalanceStartRefusesUnreadyShard(t *testing.T) {
	base, err := New(0, Info{ID: "a", Addr: "addr-a"}, Info{ID: "b", Addr: "addr-b"})
	if err != nil {
		t.Fatal(err)
	}
	cl := newFakeCluster(base)
	subs := testSubjects(24)
	cl.seed(base, subs)
	path := filepath.Join(t.TempDir(), "rebalance.journal")
	coord := cl.newCoordinator(path, t.Logf)
	next, err := base.Add(Info{ID: "c", Addr: "addr-c"})
	if err != nil {
		t.Fatal(err)
	}
	cl.down = map[string]bool{"c": true}
	if _, err := coord.Start(context.Background(), base, next); !errors.Is(err, ErrShardNotReady) {
		t.Fatalf("Start with shard c down = %v, want ErrShardNotReady", err)
	}
	if cl.pending != nil {
		t.Fatalf("pending map v%d published by a refused Start", cl.pending.Version())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after a refused Start: err=%v, want empty", err)
	}
	if st := coord.Status(); st.Active {
		t.Fatalf("status after a refused Start = %+v, want inactive", st)
	}
	if resumed, err := coord.Resume(context.Background()); err != nil || resumed {
		t.Fatalf("Resume after a refused Start = (%v, %v), want (false, nil)", resumed, err)
	}

	cl.down = nil
	if err := runRebalance(t, coord, base, next); err != nil {
		t.Fatalf("corrected run: %v", err)
	}
	cl.checkWrites(t, subs)
}

// TestRebalanceRemoveShard drains a leaving shard: every one of its
// subjects must move and the committed map must no longer name it.
func TestRebalanceRemoveShard(t *testing.T) {
	base, err := New(0, Info{ID: "a", Addr: "addr-a"}, Info{ID: "b", Addr: "addr-b"}, Info{ID: "c", Addr: "addr-c"})
	if err != nil {
		t.Fatal(err)
	}
	cl := newFakeCluster(base)
	subs := testSubjects(40)
	cl.seed(base, subs)

	path := filepath.Join(t.TempDir(), "rebalance.journal")
	coord := cl.newCoordinator(path, t.Logf)
	next, err := base.Remove("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := runRebalance(t, coord, base, next); err != nil {
		t.Fatal(err)
	}
	if _, ok := next.Get("c"); ok {
		t.Fatal("removed shard still in committed map")
	}
	for _, sub := range subs {
		owner, err := cl.resolve(sub)
		if err != nil {
			t.Fatalf("resolve(%s): %v", sub, err)
		}
		if want := next.Owner(sub).ID; owner != want {
			t.Fatalf("subject %s resolves to %s, want %s", sub, owner, want)
		}
	}
	if len(cl.resident["c"]) != 0 {
		t.Fatalf("drained shard still holds %d subjects", len(cl.resident["c"]))
	}
}

// TestRebalanceCrashMatrix is the migration crash matrix: a coordinator
// crash at every kill point (an injected fault that stops the run where
// it fires; the run is in the background, where a panic would end the
// test binary, not the coordinator) must leave each subject
// decidable on exactly one owner via the active map, and a resumed run
// must converge to the committed new map version with every write acked
// between the crash and the resume on the final owner. Kill points cover
// every journaled transition: the handoff of a move, the journal
// appends themselves and the commit.
func TestRebalanceCrashMatrix(t *testing.T) {
	kills := []struct {
		name  string
		point string
		after int // skip the first N hits, so later appends get killed too
	}{
		{"journal-begin", faults.RebalanceJournal, 0},
		{"journal-planned", faults.RebalanceJournal, 1},
		{"journal-first-moved", faults.RebalanceJournal, 2},
		{"journal-committed", faults.RebalanceJournal, 0}, // resolved below
		{"handoff", faults.RebalanceHandoff, 0},
		{"handoff-later", faults.RebalanceHandoff, 2},
		{"commit", faults.RebalanceCommit, 0},
	}
	for _, kp := range kills {
		t.Run(kp.name, func(t *testing.T) {
			base, err := New(0, Info{ID: "a", Addr: "addr-a"}, Info{ID: "b", Addr: "addr-b"})
			if err != nil {
				t.Fatal(err)
			}
			cl := newFakeCluster(base)
			subs := testSubjects(24)
			cl.seed(base, subs)
			path := filepath.Join(t.TempDir(), "rebalance.journal")
			next, err := base.Add(Info{ID: "c", Addr: "addr-c"})
			if err != nil {
				t.Fatal(err)
			}

			after := kp.after
			if kp.name == "journal-committed" {
				// The committed append follows begin, planned and one
				// moved record per move.
				after = 2
				for _, sub := range subs {
					if base.Owner(sub).ID != next.Owner(sub).ID {
						after++
					}
				}
			}

			faults.Activate(faults.NewPlan(1, faults.Rule{
				Point:  kp.point,
				After:  after,
				Limit:  1,
				Action: faults.Action{Err: errors.New("kill " + kp.name)},
			}))
			err = runRebalance(t, cl.newCoordinator(path, nil), base, next)
			faults.Deactivate()
			if err == nil {
				t.Fatalf("kill point %s never fired", kp.name)
			}
			if !strings.Contains(err.Error(), "kill "+kp.name) {
				t.Fatalf("run failed at another point: %v", err)
			}

			// Invariant at the crash: every subject still resolves through
			// the active (possibly old) map to exactly one resident copy,
			// which takes a write before the coordinator comes back.
			for _, sub := range subs {
				if err := cl.write(sub); err != nil {
					t.Fatalf("post-crash write(%s): %v", sub, err)
				}
			}

			// A fresh coordinator (the restarted process) resumes from the
			// journal. A crash before the begin record is durable means
			// nothing to resume — re-running the rebalance covers it.
			resumed := cl.newCoordinator(path, t.Logf)
			didResume, err := resumed.Resume(context.Background())
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if !didResume {
				if err := runRebalance(t, resumed, base, next); err != nil {
					t.Fatalf("re-run after empty journal: %v", err)
				}
			}

			// Convergence: committed version advanced and every subject
			// resolves on its new-map owner, with the post-crash write.
			if want := base.Version() + 1; cl.active.Version() != want {
				t.Fatalf("active map v%d after resume, want v%d", cl.active.Version(), want)
			}
			cl.checkWrites(t, subs)
			// The finished run must have reset the journal.
			if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
				t.Fatalf("journal not reset after resume: err=%v size=%d", err, fi.Size())
			}
		})
	}
}

// TestRebalanceResumeAfterDone covers the narrow crash between the done
// record and the journal reset: Resume must only truncate, not re-run.
func TestRebalanceResumeAfterDone(t *testing.T) {
	base, err := New(0, Info{ID: "a", Addr: "addr-a"}, Info{ID: "b", Addr: "addr-b"})
	if err != nil {
		t.Fatal(err)
	}
	w := base.Wire()
	path := filepath.Join(t.TempDir(), "rebalance.journal")
	j, _, err := NewCoordinator(path, nil, nil, nil, nil).openJournal()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journalRecord{
		{Op: "begin", Old: &w, New: &w},
		{Op: "committed"},
		{Op: "done"},
	} {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.close()

	coord := NewCoordinator(path, func(Info) NodeClient { panic("must not dial") }, nil, nil, nil)
	resumed, err := coord.Resume(context.Background())
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if resumed {
		t.Fatal("done run must not resume")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not truncated: err=%v size=%d", err, fi.Size())
	}
}

// TestRebalanceJournalTornTail cuts a begin+planned+moved journal, left
// by a coordinator killed at its fourth append, at every byte offset. The
// open keeps the longest clean prefix, cuts the torn tail so the next
// append lands on a line of its own, and logs the repair; Resume (or, with
// no begin left, a re-run) then finishes the migration.
func TestRebalanceJournalTornTail(t *testing.T) {
	base, err := New(0, Info{ID: "a", Addr: "addr-a"}, Info{ID: "b", Addr: "addr-b"})
	if err != nil {
		t.Fatal(err)
	}
	next, err := base.Add(Info{ID: "c", Addr: "addr-c"})
	if err != nil {
		t.Fatal(err)
	}
	subs := testSubjects(12)
	// crashed returns a cluster and journal as the kill left them.
	crashed := func(path string) *fakeCluster {
		cl := newFakeCluster(base)
		cl.seed(base, subs)
		faults.Activate(faults.NewPlan(1, faults.Rule{
			Point: faults.RebalanceJournal, After: 3, Limit: 1,
			Action: faults.Action{Err: errors.New("kill")},
		}))
		defer faults.Deactivate()
		if err := runRebalance(t, cl.newCoordinator(path, nil), base, next); err == nil || !strings.Contains(err.Error(), "kill") {
			t.Fatalf("coordinator survived its kill point: %v", err)
		}
		return cl
	}
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.journal")
	crashed(ref)
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(full), "\n"); n != 3 {
		t.Fatalf("killed run left %d journal records, want begin+planned+moved", n)
	}

	path := filepath.Join(dir, "rebalance.journal")
	for off := 0; off <= len(full); off++ {
		cl := crashed(path)
		if err := os.WriteFile(path, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		var logged []string
		logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
		coord := cl.newCoordinator(path, logf)
		didResume, err := coord.Resume(context.Background())
		if err != nil {
			t.Fatalf("cut %d: Resume: %v", off, err)
		}
		if !didResume {
			if err := runRebalance(t, coord, base, next); err != nil {
				t.Fatalf("cut %d: re-run: %v", off, err)
			}
		}

		clean := strings.LastIndexByte(string(full[:off]), '\n') + 1
		want := fmt.Sprintf("rebalance: journal repair dropped %d-byte tail: torn final record (no newline)", off-clean)
		repaired := len(logged) > 0 && logged[0] == want
		if torn := off > clean; repaired != torn {
			t.Fatalf("cut %d: torn=%v but log = %q", off, torn, logged)
		}
		if want := base.Version() + 1; cl.active.Version() != want {
			t.Fatalf("cut %d: active map v%d, want v%d", off, cl.active.Version(), want)
		}
		cl.checkWrites(t, subs)
		if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
			t.Fatalf("cut %d: journal not reset: err=%v", off, err)
		}
	}
}

// TestRebalanceSingleFlight pins that only one rebalance runs at a time.
func TestRebalanceSingleFlight(t *testing.T) {
	base, err := New(0, Info{ID: "a", Addr: "addr-a"}, Info{ID: "b", Addr: "addr-b"})
	if err != nil {
		t.Fatal(err)
	}
	cl := newFakeCluster(base)
	cl.seed(base, testSubjects(8))
	coord := cl.newCoordinator(filepath.Join(t.TempDir(), "j"), nil)
	if err := coord.claim(); err != nil {
		t.Fatal(err)
	}
	next, err := base.Add(Info{ID: "c", Addr: "addr-c"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Start(context.Background(), base, next); !errors.Is(err, ErrRebalanceActive) {
		t.Fatalf("second rebalance = %v, want ErrRebalanceActive", err)
	}
	coord.release(nil)
}
