package replica

import (
	"context"
	"errors"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/retry"
	"github.com/aware-home/grbac/internal/watch"
)

// primarySystem builds a small policy with one permit rule.
func primarySystem(t testing.TB) *core.System {
	t.Helper()
	sys := core.NewSystem()
	for _, step := range []func() error{
		func() error { return sys.AddRole(core.Role{ID: "family", Kind: core.SubjectRole}) },
		func() error { return sys.AddRole(core.Role{ID: "device", Kind: core.ObjectRole}) },
		func() error { return sys.AddSubject("alice") },
		func() error { return sys.AddObject("tv") },
		func() error { return sys.AssignSubjectRole("alice", "family") },
		func() error { return sys.AssignObjectRole("tv", "device") },
		func() error {
			return sys.AddTransaction(core.Transaction{
				ID: "use", Steps: []core.Access{{Action: "use"}}})
		},
		func() error {
			return sys.Grant(core.Permission{
				Subject: "family", Object: "device",
				Environment: core.AnyEnvironment, Transaction: "use",
				Effect: core.Permit})
		},
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestSourceWaitReturnsImmediatelyWhenBehind(t *testing.T) {
	sys := primarySystem(t)
	src := NewSource(sys)
	gen := src.Wait(context.Background(), src.Epoch(), 0)
	if gen != sys.Generation() {
		t.Fatalf("Wait returned %d, want %d", gen, sys.Generation())
	}
}

func TestSourceWaitBlocksUntilMutation(t *testing.T) {
	sys := primarySystem(t)
	src := NewSource(sys)
	cur := sys.Generation()

	done := make(chan uint64, 1)
	go func() {
		done <- src.Wait(context.Background(), src.Epoch(), cur)
	}()
	select {
	case g := <-done:
		t.Fatalf("Wait returned %d before any mutation", g)
	case <-time.After(50 * time.Millisecond):
	}
	if err := sys.AddSubject("bob"); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-done:
		if g <= cur {
			t.Fatalf("Wait returned stale generation %d", g)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on mutation")
	}
}

func TestSourceWaitHonorsContext(t *testing.T) {
	sys := primarySystem(t)
	src := NewSource(sys)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	gen := src.Wait(ctx, src.Epoch(), sys.Generation())
	if time.Since(start) > time.Second {
		t.Fatal("Wait ignored the context deadline")
	}
	if gen != sys.Generation() {
		t.Fatalf("Wait returned %d, want current %d", gen, sys.Generation())
	}
}

func TestSourceWaitUnblocksOnEpochMismatch(t *testing.T) {
	sys := primarySystem(t)
	src := NewSource(sys)
	// A follower carrying another incarnation's epoch must not block, no
	// matter how far "ahead" its generation is.
	gen := src.Wait(context.Background(), "old-epoch", 1<<40)
	if gen != sys.Generation() {
		t.Fatalf("Wait returned %d, want current %d", gen, sys.Generation())
	}
}

// localFetcher serves a Source in-process, optionally failing.
type localFetcher struct {
	mu   sync.Mutex
	src  *Source
	fail error
}

func (l *localFetcher) setSource(src *Source) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.src = src
}

func (l *localFetcher) setFail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fail = err
}

func (l *localFetcher) current() (*Source, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.src, l.fail
}

func (l *localFetcher) Snapshot(ctx context.Context) (Snapshot, error) {
	src, fail := l.current()
	if fail != nil {
		return Snapshot{}, fail
	}
	return src.Snapshot(), nil
}

func (l *localFetcher) Watch(ctx context.Context, epoch string, after uint64) (WatchResponse, error) {
	src, fail := l.current()
	if fail != nil {
		return WatchResponse{}, fail
	}
	wctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	gen := src.Wait(wctx, epoch, after)
	return WatchResponse{Epoch: src.Epoch(), Generation: gen}, nil
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFollowerConvergesAndTracksMutations(t *testing.T) {
	primary := primarySystem(t)
	fetch := &localFetcher{}
	fetch.setSource(NewSource(primary))

	followerSys := core.NewSystem()
	f := NewFollower(followerSys, "", WithFetcher(fetch),
		WithBackoff(time.Millisecond, 10*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	waitFor(t, "initial sync", func() bool {
		return f.Stats().AppliedGeneration == primary.Generation()
	})
	if !followerSys.HasSubject("alice") {
		t.Fatal("follower missing replicated subject")
	}

	// Mutate the primary; the follower must converge through watch.
	if err := primary.AddSubject("carol"); err != nil {
		t.Fatal(err)
	}
	if err := primary.AssignSubjectRole("carol", "family"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-mutation convergence", func() bool {
		return f.Stats().AppliedGeneration == primary.Generation()
	})
	allowed, err := followerSys.CheckAccess(core.Request{
		Subject: "carol", Object: "tv", Transaction: "use",
		Environment: []core.RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if !allowed {
		t.Fatal("follower did not replicate the new assignment")
	}
	if st := f.Stats(); st.Lag != 0 {
		t.Fatalf("lag %d after convergence", st.Lag)
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

func TestFollowerRetriesWithBackoffAndRecovers(t *testing.T) {
	primary := primarySystem(t)
	fetch := &localFetcher{}
	fetch.setFail(errors.New("connection refused"))
	fetch.setSource(NewSource(primary))

	f := NewFollower(core.NewSystem(), "", WithFetcher(fetch),
		WithBackoff(time.Millisecond, 5*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()

	waitFor(t, "errors counted", func() bool { return f.Stats().Errors >= 2 })
	if f.Stats().Syncs != 0 {
		t.Fatal("sync succeeded while transport failing")
	}

	fetch.setFail(nil)
	waitFor(t, "recovery sync", func() bool {
		return f.Stats().AppliedGeneration == primary.Generation()
	})
}

func TestFollowerResyncsAcrossEpochChange(t *testing.T) {
	primary := primarySystem(t)
	fetch := &localFetcher{}
	fetch.setSource(NewSource(primary))

	f := NewFollower(core.NewSystem(), "", WithFetcher(fetch),
		WithBackoff(time.Millisecond, 5*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()
	waitFor(t, "initial sync", func() bool { return f.Stats().Syncs >= 1 })

	// "Restart" the primary: a fresh system with different policy and a
	// lower generation, under a new epoch.
	restarted := core.NewSystem()
	if err := restarted.AddSubject("zed"); err != nil {
		t.Fatal(err)
	}
	fetch.setSource(NewSource(restarted))

	waitFor(t, "epoch re-sync", func() bool {
		st := f.Stats()
		return st.AppliedGeneration == restarted.Generation() &&
			f.System().HasSubject("zed")
	})

	// The flip is accounted as an epoch flip, not a transport failure:
	// no backoff-triggering error and no reconnect counted for it.
	waitFor(t, "epoch flip counted", func() bool { return f.Stats().EpochFlips >= 1 })
	if st := f.Stats(); st.Errors != 0 {
		t.Fatalf("epoch flip counted as %d errors, want 0", st.Errors)
	}
}

// TestWatchEpochChangeReturnsTypedError is the regression test for the
// epoch-flip error contract: a primary restart mid-watch must surface as
// ErrEpochChanged carrying both incarnations, not as a generic transport
// error, so followers and embedded SDK clients can log flips distinctly.
func TestWatchEpochChangeReturnsTypedError(t *testing.T) {
	primary := primarySystem(t)
	fetch := &localFetcher{}
	fetch.setSource(NewSource(primary))

	p := NewPuller(core.NewSystem(), "", WithFetcher(fetch))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.syncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	oldEpoch, _ := p.position()

	// "Restart" the primary under a fresh epoch; the next watch exchange
	// reports the new epoch and the loop must return the typed error.
	fetch.setSource(NewSource(core.NewSystem()))
	err := p.watchLoop(ctx)
	if !errors.Is(err, ErrEpochChanged) {
		t.Fatalf("watchLoop returned %v, want ErrEpochChanged", err)
	}
	var flip *EpochChangeError
	if !errors.As(err, &flip) {
		t.Fatalf("watchLoop returned %T, want *EpochChangeError", err)
	}
	if flip.Old != oldEpoch || flip.New == "" || flip.New == oldEpoch {
		t.Fatalf("flip = %s -> %s, want old %s and a distinct new epoch",
			flip.Old, flip.New, oldEpoch)
	}
}

func TestFollowerStaleness(t *testing.T) {
	primary := primarySystem(t)
	fetch := &localFetcher{}
	fetch.setSource(NewSource(primary))

	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	f := NewFollower(core.NewSystem(core.WithClock(clk)), "", WithFetcher(fetch),
		WithMaxStaleness(time.Second))
	if !f.Stale() {
		t.Fatal("never-synced follower should be stale")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()
	waitFor(t, "initial sync", func() bool { return f.Stats().Syncs >= 1 })

	// Fresh contact: not stale. (The loop keeps poking the 50ms watch, so
	// contact stays fresh at simulated-time zero.)
	if f.Stale() {
		t.Fatal("freshly synced follower reported stale")
	}

	// Cut the primary off and advance the clock past the bound: stale.
	cancel()
	clk.Advance(10 * time.Second)
	if !f.Stale() {
		t.Fatal("follower not stale after max-staleness elapsed")
	}
	st := f.Stats()
	if !st.Stale {
		t.Fatal("Stats.Stale disagrees with Stale()")
	}

	// Disabled bound: never stale.
	f2 := NewFollower(core.NewSystem(), "", WithFetcher(fetch), WithMaxStaleness(0))
	if f2.Stale() {
		t.Fatal("staleness disabled but Stale() true")
	}
}

// TestStalenessDeadline pins the rule behind the lock-free Stale to the one
// it replaced — stale iff now - lastContact > bound, strictly — at the
// boundary, and holds Stats().Stale to the same deadline while many
// goroutines read both beside the sync loop's contacts (run with -race).
func TestStalenessDeadline(t *testing.T) {
	fetch := &localFetcher{}
	fetch.setSource(NewSource(primarySystem(t)))

	base := time.Unix(1_700_000_000, 0)
	clk := clock.NewFake(base)
	f := NewFollower(core.NewSystem(core.WithClock(clk)), "", WithFetcher(fetch),
		WithMaxStaleness(time.Second))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = f.Run(ctx) }()
	waitFor(t, "initial sync", func() bool { return f.Stats().Syncs >= 1 })

	// The clock stands still, so however many keepalives land, no reader
	// may see a stale follower.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 2000; i++ {
				if f.Stale() || f.Stats().Stale {
					t.Error("follower in contact at a standing clock reported stale")
					return
				}
			}
		}()
	}
	readers.Wait()
	cancel()
	<-done

	for _, tc := range []struct {
		at    time.Duration
		stale bool
	}{{time.Second, false}, {time.Second + 1, true}} {
		clk.Set(base.Add(tc.at))
		st := f.Stats()
		if f.Stale() != tc.stale || st.Stale != tc.stale {
			t.Fatalf("%v after the last contact: Stale() = %v, Stats().Stale = %v, want %v",
				tc.at, f.Stale(), st.Stale, tc.stale)
		}
		if st.LastContactAgeSeconds != tc.at.Seconds() {
			t.Fatalf("LastContactAgeSeconds = %v, want %v", st.LastContactAgeSeconds, tc.at.Seconds())
		}
	}
}

// flipClock is the real clock whose timers report the time each
// callback returned.
type flipClock struct {
	clock.Real
	fired chan time.Time
}

func (c flipClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	return time.AfterFunc(d, func() { f(); c.fired <- time.Now() })
}

// BenchmarkStaleFlipLateness measures the slack of the staleness bound
// while 2 goroutines run the warm embedded check (Stale, then a cache hit)
// as embedded-warm does. Each iteration is one contact under a 100 ms
// bound, followed by the timer opening the near window and then flipping
// the state to stale. It reports, at p50, p99 and p99.9:
//   - timer_*: how late the stale flip fires after the deadline, the
//     timer's own firing latency;
//   - slack_*: how long after the deadline a reader can still be told
//     fresh, which is how late the near window opened, if after the
//     deadline. DESIGN §6 quotes its p99.9.
func BenchmarkStaleFlipLateness(b *testing.B) {
	fetch := &localFetcher{}
	fetch.setSource(NewSource(primarySystem(b)))
	clk := flipClock{fired: make(chan time.Time)}
	p := NewPuller(core.NewSystem(core.WithClock(clk)), "", WithFetcher(fetch),
		WithMaxStaleness(100*time.Millisecond))
	// untilStale returns when the first timer callback after a contact
	// returned, and when the one that flipped the state to stale did.
	untilStale := func() (first, flip time.Time) {
		for {
			t := <-clk.fired
			if first.IsZero() {
				first = t
			}
			if p.stale.state.Load() == stateStale {
				return first, t
			}
		}
	}
	if err := p.syncOnce(context.Background()); err != nil {
		b.Fatal(err)
	}
	untilStale()

	req := core.Request{Subject: "alice", Object: "tv", Transaction: "use", Environment: []core.RoleID{}}
	var stop atomic.Bool
	var checkers sync.WaitGroup
	for g := 0; g < 2; g++ {
		checkers.Add(1)
		go func() {
			defer checkers.Done()
			for !stop.Load() {
				if ok, err := p.sys.CheckAccess(req); !p.Stale() && (err != nil || !ok) {
					b.Errorf("warm check = %v, %v; want permit", ok, err)
					return
				}
			}
		}()
	}
	timer := make([]time.Duration, b.N)
	slack := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range timer {
		p.noteContact(WatchResponse{})
		deadline := p.stale.start.Add(time.Duration(p.stale.deadline.Load()))
		opened, flipped := untilStale()
		timer[i] = flipped.Sub(deadline)
		slack[i] = max(0, opened.Sub(deadline))
	}
	b.StopTimer()
	stop.Store(true)
	checkers.Wait()
	for _, m := range []struct {
		name string
		d    []time.Duration
	}{{"timer", timer}, {"slack", slack}} {
		slices.Sort(m.d)
		for _, q := range []struct {
			name string
			at   float64
		}{{"p50", 0.5}, {"p99", 0.99}, {"p99.9", 0.999}} {
			b.ReportMetric(float64(m.d[int(q.at*float64(len(m.d)-1))])/1e3, m.name+"_"+q.name+"_us")
		}
	}
}

// TestFollowerOptionClamps proves degenerate tuning cannot produce a
// hot retry loop or panic the jitter: zero and negative backoff bounds
// fall back to defaults, and an inverted max is raised to min.
func TestFollowerOptionClamps(t *testing.T) {
	f := NewFollower(core.NewSystem(), "",
		WithFetcher(&localFetcher{}),
		WithBackoff(0, -time.Second))
	if f.backoffMin != defaultBackoffMin {
		t.Fatalf("backoffMin = %v, want default %v", f.backoffMin, defaultBackoffMin)
	}
	if f.backoffMax != defaultBackoffMin {
		t.Fatalf("backoffMax = %v, want raised to min %v", f.backoffMax, defaultBackoffMin)
	}
	// Inverted but positive bounds: max raised to min, min kept.
	f2 := NewFollower(core.NewSystem(), "",
		WithFetcher(&localFetcher{}),
		WithBackoff(2*time.Second, time.Second))
	if f2.backoffMin != 2*time.Second || f2.backoffMax != 2*time.Second {
		t.Fatalf("inverted bounds clamped to %v/%v, want 2s/2s", f2.backoffMin, f2.backoffMax)
	}
	// The shared jitter's own guard: non-positive inputs pass through
	// (full coverage lives in internal/retry's table tests).
	if got := retry.Jitter(-time.Second); got != -time.Second {
		t.Fatalf("retry.Jitter(-1s) = %v", got)
	}
	if got := retry.Jitter(0); got != 0 {
		t.Fatalf("retry.Jitter(0) = %v", got)
	}
}

// roundTripFunc answers a feed request in-process.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestClientWatchDeadline pins a watch's deadline to the poll it asks the
// primary to hold, the smaller of MaxWait and watch.MaxWait, plus the 10s
// slack the primary adds to its reply's write deadline.
func TestClientWatchDeadline(t *testing.T) {
	for _, tc := range []struct{ maxWait, want time.Duration }{
		{0, watch.MaxWait + 10*time.Second},
		{100 * time.Millisecond, 100*time.Millisecond + 10*time.Second},
		{time.Hour, watch.MaxWait + 10*time.Second},
	} {
		var left time.Duration
		c := NewClient("http://primary", &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			deadline, ok := r.Context().Deadline()
			if !ok {
				t.Errorf("MaxWait %v: watch sent without a deadline", tc.maxWait)
			}
			left = time.Until(deadline)
			return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
				Body: io.NopCloser(strings.NewReader(`{"epoch":"e","generation":1}`))}, nil
		})})
		c.MaxWait = tc.maxWait
		if _, err := c.Watch(context.Background(), "e", 0); err != nil {
			t.Fatal(err)
		}
		if left > tc.want || left < tc.want-time.Second {
			t.Errorf("MaxWait %v: watch deadline %v away, want %v", tc.maxWait, left, tc.want)
		}
	}
}

// TestFollowerCountsWatchReconnects breaks the watch stream and checks the
// reconnect counter moves.
func TestFollowerCountsWatchReconnects(t *testing.T) {
	primary := primarySystem(t)
	fetch := &localFetcher{}
	fetch.setSource(NewSource(primary))

	f := NewFollower(core.NewSystem(), "", WithFetcher(fetch),
		WithBackoff(time.Millisecond, 5*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()

	waitFor(t, "initial sync", func() bool { return f.Stats().Syncs > 0 })
	// Fail the transport: the in-flight watch returns an error, Run counts
	// a reconnect and backs off.
	fetch.setFail(errors.New("transport down"))
	waitFor(t, "watch reconnect counted", func() bool {
		return f.Stats().WatchReconnects > 0
	})
	// Heal and confirm the loop recovers.
	fetch.setFail(nil)
	waitFor(t, "recovery after reconnect", func() bool {
		st := f.Stats()
		return st.AppliedGeneration == primary.Generation() && !st.Stale
	})
}
