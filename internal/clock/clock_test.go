package clock

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

var base = time.Date(2000, 1, 17, 8, 0, 0, 0, time.UTC)

// TestFakeFiresDueTimersInDeadlineOrder: one step past several deadlines
// fires each timer once, earliest first and ties in arming order, with
// the clock reading the timer's own deadline; a stopped timer and one not
// yet due stay silent; a callback's re-arm fires within the same step when
// the step reaches it.
func TestFakeFiresDueTimersInDeadlineOrder(t *testing.T) {
	c := NewFake(base)
	var got []string
	var seen []time.Duration
	note := func(name string) func() {
		return func() {
			got = append(got, name)
			seen = append(seen, c.Since(base))
		}
	}
	c.AfterFunc(3*time.Second, note("c"))
	c.AfterFunc(time.Second, note("a"))
	c.AfterFunc(2*time.Second, note("b1"))
	c.AfterFunc(2*time.Second, note("b2"))
	stopped := c.AfterFunc(time.Second, note("stopped"))
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop should report armed once, then disarmed")
	}
	c.AfterFunc(time.Hour, note("late"))
	var rearm Timer
	rearm = c.AfterFunc(500*time.Millisecond, func() {
		note("r")()
		if len(got) == 1 {
			rearm.Reset(2 * time.Second) // due at 2.5 s
		}
	})

	if now := c.Advance(3 * time.Second); !now.Equal(base.Add(3 * time.Second)) {
		t.Fatalf("Advance returned %v", now)
	}
	if want := []string{"r", "a", "b1", "b2", "r", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	want := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second,
		2 * time.Second, 2500 * time.Millisecond, 3 * time.Second}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("clock during callbacks %v, want %v", seen, want)
	}
	if c.Since(base) != 3*time.Second {
		t.Fatalf("clock after step = %v, want 3s", c.Since(base))
	}
}

// TestFakeSetAndReset: Set jumps both ways; Reset reports whether the
// timer was armed; a timer armed for d <= 0 waits for the next step.
func TestFakeSetAndReset(t *testing.T) {
	c := NewFake(base)
	fired := 0
	tm := c.AfterFunc(time.Minute, func() { fired++ })
	c.Set(base.Add(-time.Hour))
	if fired != 0 || !c.Now().Equal(base.Add(-time.Hour)) {
		t.Fatalf("backward Set: fired %d, now %v", fired, c.Now())
	}
	if !tm.Reset(0) {
		t.Fatal("Reset of an armed timer reported disarmed")
	}
	if fired != 0 {
		t.Fatal("a timer armed for 0 fired inside Reset")
	}
	c.Advance(0)
	if fired != 1 || tm.Reset(time.Second) {
		t.Fatalf("fired %d, want 1, and Reset after firing should report disarmed", fired)
	}
	c.Set(base)
	if fired != 2 {
		t.Fatalf("forward Set fired %d in total, want 2", fired)
	}
}

// TestFakeConcurrentUse steps the clock while other goroutines read it and
// re-arm timers (run with -race).
func TestFakeConcurrentUse(t *testing.T) {
	c := NewFake(base)
	var mu sync.Mutex
	fired := 0
	tm := c.AfterFunc(time.Millisecond, func() { mu.Lock(); fired++; mu.Unlock() })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = c.Since(base)
				tm.Reset(time.Millisecond)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		c.Advance(time.Millisecond)
	}
	wg.Wait()
	c.Advance(time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if fired == 0 {
		t.Fatal("no timer fired")
	}
}

func TestRealAfterFunc(t *testing.T) {
	var c Clock = Real{}
	start := c.Now()
	done := make(chan struct{})
	tm := c.AfterFunc(time.Millisecond, func() { close(done) })
	<-done
	if c.Since(start) < time.Millisecond {
		t.Fatal("Real timer fired early")
	}
	if tm.Stop() {
		t.Fatal("Stop of a fired timer reported armed")
	}
}
