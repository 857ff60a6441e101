package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/aware-home/grbac/internal/faults"
)

// fakeCluster is an in-memory shard fleet implementing the migration
// protocol the coordinator drives: resident subject bundles plus the
// per-shard forwarding table, with the same idempotence rules as the
// real pdp endpoints (imports upsert and clear stale entries, handoff
// never demotes a redirect, complete drops the local copy).
type fakeCluster struct {
	mu         sync.Mutex
	resident   map[string]map[string]json.RawMessage // shard → subject → bundle
	forwarding map[string]map[string]fakeEntry       // shard → subject → entry
	active     *Map                                  // last committed map
}

type fakeEntry struct {
	target   string
	redirect bool
}

func newFakeCluster(m *Map) *fakeCluster {
	cl := &fakeCluster{
		resident:   make(map[string]map[string]json.RawMessage),
		forwarding: make(map[string]map[string]fakeEntry),
		active:     m,
	}
	for _, s := range m.Shards() {
		cl.resident[s.ID] = make(map[string]json.RawMessage)
		cl.forwarding[s.ID] = make(map[string]fakeEntry)
	}
	return cl
}

func (cl *fakeCluster) ensure(id string) {
	if cl.resident[id] == nil {
		cl.resident[id] = make(map[string]json.RawMessage)
	}
	if cl.forwarding[id] == nil {
		cl.forwarding[id] = make(map[string]fakeEntry)
	}
}

func (cl *fakeCluster) seed(m *Map, subjects []string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, sub := range subjects {
		owner := m.Owner(sub).ID
		cl.ensure(owner)
		cl.resident[owner][sub] = json.RawMessage(fmt.Sprintf(`{"subject":%q}`, sub))
	}
}

func (cl *fakeCluster) dial(info Info) NodeClient {
	return &fakeNode{cl: cl, id: info.ID}
}

func (cl *fakeCluster) commit(_ context.Context, m *Map) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	// Version-gated like the router: re-committing the same map on
	// resume is fine, rolling back is not.
	if cl.active == nil || m.Version() >= cl.active.Version() {
		cl.active = m
	}
	return nil
}

// resolve routes one subject the way the serving path would: active-map
// owner, then at most a couple of forwarding hops, ending at a resident
// copy. It errors when the subject is unreachable — the invariant every
// crash point must preserve.
func (cl *fakeCluster) resolve(sub string) (string, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	id := cl.active.Owner(sub).ID
	for hops := 0; hops < 3; hops++ {
		if e, ok := cl.forwarding[id][sub]; ok {
			id = e.target
			continue
		}
		if _, ok := cl.resident[id][sub]; ok {
			return id, nil
		}
		return "", fmt.Errorf("subject %q not resident on %q (no forwarding entry)", sub, id)
	}
	return "", fmt.Errorf("subject %q: forwarding loop", sub)
}

type fakeNode struct {
	cl *fakeCluster
	id string
}

func (n *fakeNode) Subjects(context.Context) ([]string, error) {
	n.cl.mu.Lock()
	defer n.cl.mu.Unlock()
	out := make([]string, 0, len(n.cl.resident[n.id]))
	for sub := range n.cl.resident[n.id] {
		out = append(out, sub)
	}
	sort.Strings(out)
	return out, nil
}

func (n *fakeNode) ExportSubject(_ context.Context, subject string) (json.RawMessage, error) {
	n.cl.mu.Lock()
	defer n.cl.mu.Unlock()
	b, ok := n.cl.resident[n.id][subject]
	if !ok {
		return nil, fmt.Errorf("subject %q not on shard %q", subject, n.id)
	}
	return b, nil
}

func (n *fakeNode) ImportSubject(_ context.Context, bundle json.RawMessage) error {
	var b struct {
		Subject string `json:"subject"`
	}
	if err := json.Unmarshal(bundle, &b); err != nil {
		return err
	}
	n.cl.mu.Lock()
	defer n.cl.mu.Unlock()
	n.cl.ensure(n.id)
	n.cl.resident[n.id][b.Subject] = bundle
	delete(n.cl.forwarding[n.id], b.Subject)
	return nil
}

func (n *fakeNode) Handoff(_ context.Context, _ uint64, moves []Move) error {
	n.cl.mu.Lock()
	defer n.cl.mu.Unlock()
	for _, mv := range moves {
		if cur, ok := n.cl.forwarding[n.id][mv.Subject]; ok && cur.redirect {
			continue
		}
		n.cl.forwarding[n.id][mv.Subject] = fakeEntry{target: mv.To.ID}
	}
	return nil
}

func (n *fakeNode) Complete(_ context.Context, _ uint64, moves []Move) error {
	n.cl.mu.Lock()
	defer n.cl.mu.Unlock()
	for _, mv := range moves {
		delete(n.cl.resident[n.id], mv.Subject)
		n.cl.forwarding[n.id][mv.Subject] = fakeEntry{target: mv.To.ID, redirect: true}
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
// every subject resolvable on its new owner with redirects behind.
func TestRebalanceAddShard(t *testing.T) {
	base, err := New(0, Info{ID: "a", Addr: "addr-a"}, Info{ID: "b", Addr: "addr-b"})
	if err != nil {
		t.Fatal(err)
	}
	cl := newFakeCluster(base)
	subs := testSubjects(40)
	cl.seed(base, subs)

	path := filepath.Join(t.TempDir(), "rebalance.journal")
	coord := NewCoordinator(path, cl.dial, cl.commit, t.Logf)
	next, err := coord.AddShard(context.Background(), base, Info{ID: "c", Addr: "addr-c"})
	if err != nil {
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
	coord := NewCoordinator(path, cl.dial, cl.commit, t.Logf)
	next, err := coord.RemoveShard(context.Background(), base, "c")
	if err != nil {
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
// crash (injected panic) at every kill point must leave each subject
// decidable on exactly one owner via the active map, and a resumed run
// must converge to the committed new map version. Kill points cover
// every journaled transition: each remote step of a move, the journal
// appends themselves, the commit, and the completion flip.
func TestRebalanceCrashMatrix(t *testing.T) {
	kills := []struct {
		name  string
		point string
		after int // skip the first N hits, so later appends get killed too
	}{
		{"journal-begin", faults.RebalanceJournal, 0},
		{"journal-first-moved", faults.RebalanceJournal, 1},
		{"journal-committed", faults.RebalanceJournal, 0}, // resolved below
		{"export", faults.RebalanceExport, 0},
		{"export-later", faults.RebalanceExport, 3},
		{"import", faults.RebalanceImport, 0},
		{"handoff", faults.RebalanceHandoff, 0},
		{"handoff-later", faults.RebalanceHandoff, 2},
		{"delta", faults.RebalanceDelta, 0},
		{"commit", faults.RebalanceCommit, 0},
		{"complete", faults.RebalanceComplete, 0},
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
			grow := Info{ID: "c", Addr: "addr-c"}

			after := kp.after
			if kp.name == "journal-committed" {
				// The committed append is the (moves+2)th journal write
				// (begin + one per move); compute it from the plan.
				coord := NewCoordinator(path, cl.dial, cl.commit, nil)
				next, err := base.Add(grow)
				if err != nil {
					t.Fatal(err)
				}
				moves, err := coord.Plan(context.Background(), base, next)
				if err != nil {
					t.Fatal(err)
				}
				after = 1 + len(moves)
			}

			faults.Activate(faults.NewPlan(1, faults.Rule{
				Point:  kp.point,
				After:  after,
				Limit:  1,
				Action: faults.Action{Panic: "kill " + kp.name},
			}))
			coord := NewCoordinator(path, cl.dial, cl.commit, nil)
			panicked := func() (p bool) {
				defer func() {
					if r := recover(); r != nil {
						p = true
						if !strings.Contains(fmt.Sprint(r), "kill "+kp.name) {
							t.Fatalf("unexpected panic: %v", r)
						}
					}
				}()
				_, err := coord.AddShard(context.Background(), base, grow)
				if err != nil {
					t.Fatalf("AddShard failed without panicking: %v", err)
				}
				return false
			}()
			faults.Deactivate()
			if !panicked {
				t.Fatalf("kill point %s never fired", kp.name)
			}

			// Invariant at the crash: every subject still resolves through
			// the active (possibly old) map to exactly one resident copy.
			for _, sub := range subs {
				if _, err := cl.resolve(sub); err != nil {
					t.Fatalf("post-crash resolve(%s): %v", sub, err)
				}
			}

			// A fresh coordinator (the restarted process) resumes from the
			// journal. A crash before the begin record is durable means
			// nothing to resume — re-running the rebalance covers it.
			resumed := NewCoordinator(path, cl.dial, cl.commit, t.Logf)
			didResume, err := resumed.Resume(context.Background())
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if !didResume {
				if _, err := resumed.AddShard(context.Background(), base, grow); err != nil {
					t.Fatalf("re-run after empty journal: %v", err)
				}
			}

			// Convergence: committed version advanced and every subject
			// resolves on its new-map owner.
			if want := base.Version() + 1; cl.active.Version() != want {
				t.Fatalf("active map v%d after resume, want v%d", cl.active.Version(), want)
			}
			for _, sub := range subs {
				owner, err := cl.resolve(sub)
				if err != nil {
					t.Fatalf("post-resume resolve(%s): %v", sub, err)
				}
				if want := cl.active.Owner(sub).ID; owner != want {
					t.Fatalf("subject %s resolves to %s, want %s", sub, owner, want)
				}
			}
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
	j, _, err := NewCoordinator(path, nil, nil, nil).openJournal()
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

	coord := NewCoordinator(path, func(Info) NodeClient { panic("must not dial") }, nil, nil)
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

// TestRebalanceJournalTornTail cuts a begin+moved+moved journal, left by
// a coordinator killed at its fourth append, at every byte offset. The
// open keeps the longest clean prefix, cuts the torn tail so the next
// append lands on a line of its own, and logs the repair; Resume (or, with
// no begin left, a re-run) then finishes the migration.
func TestRebalanceJournalTornTail(t *testing.T) {
	base, err := New(0, Info{ID: "a", Addr: "addr-a"}, Info{ID: "b", Addr: "addr-b"})
	if err != nil {
		t.Fatal(err)
	}
	grow := Info{ID: "c", Addr: "addr-c"}
	subs := testSubjects(12)
	// crashed returns a cluster and journal as the kill left them.
	crashed := func(path string) *fakeCluster {
		cl := newFakeCluster(base)
		cl.seed(base, subs)
		faults.Activate(faults.NewPlan(1, faults.Rule{
			Point: faults.RebalanceJournal, After: 3, Limit: 1,
			Action: faults.Action{Panic: "kill"},
		}))
		defer faults.Deactivate()
		func() {
			defer func() { _ = recover() }()
			_, err := NewCoordinator(path, cl.dial, cl.commit, nil).AddShard(context.Background(), base, grow)
			t.Fatalf("coordinator survived its kill point: %v", err)
		}()
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
		t.Fatalf("killed run left %d journal records, want begin+moved+moved", n)
	}

	path := filepath.Join(dir, "rebalance.journal")
	for off := 0; off <= len(full); off++ {
		cl := crashed(path)
		if err := os.WriteFile(path, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		var logged []string
		logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
		coord := NewCoordinator(path, cl.dial, cl.commit, logf)
		didResume, err := coord.Resume(context.Background())
		if err != nil {
			t.Fatalf("cut %d: Resume: %v", off, err)
		}
		if !didResume {
			if _, err := coord.AddShard(context.Background(), base, grow); err != nil {
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
		for _, sub := range subs {
			owner, err := cl.resolve(sub)
			if err != nil {
				t.Fatalf("cut %d: resolve(%s): %v", off, sub, err)
			}
			if want := cl.active.Owner(sub).ID; owner != want {
				t.Fatalf("cut %d: subject %s resolves to %s, want %s", off, sub, owner, want)
			}
		}
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
	coord := NewCoordinator(filepath.Join(t.TempDir(), "j"), cl.dial, cl.commit, nil)
	if err := coord.acquire(base, base, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.AddShard(context.Background(), base, Info{ID: "c", Addr: "addr-c"}); err == nil || !strings.Contains(err.Error(), "already running") {
		t.Fatalf("second rebalance = %v, want ErrRebalanceActive", err)
	}
	coord.release(nil)
}
