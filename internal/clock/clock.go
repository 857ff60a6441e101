// Package clock is the injectable time source of a GRBAC node. A Clock
// reads the time and arms timers; Real is the wall and monotonic clock of
// the standard library, and Fake is a clock a test or a simulation steps
// by hand, firing the timers its steps pass in deadline order.
package clock

import (
	"sync"
	"time"
)

// Clock reads the time and arms callback timers.
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
	// AfterFunc calls f in its own goroutine (Real) or in the goroutine
	// that steps the clock past the deadline (Fake), once d has elapsed.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is an armed AfterFunc callback. Stop disarms it and Reset re-arms
// it d from now; each reports whether the timer was armed.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Real is the standard library's clock.
type Real struct{}

// Now is time.Now.
func (Real) Now() time.Time { return time.Now() }

// Since is time.Since, which reads the monotonic clock alone.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// AfterFunc is time.AfterFunc.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Fake is a clock that moves only when Advance or Set moves it. Stepping it
// fires every timer whose deadline the step reaches, earliest first (ties
// in arming order), each with the clock reading its deadline, in the
// stepping goroutine and with no lock held, so a callback may read the
// clock and re-arm timers. A timer armed for d <= 0 fires at the next step.
// It is safe for concurrent use.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers map[*fakeTimer]struct{} // armed timers
}

// NewFake returns a Fake reading start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start, timers: make(map[*fakeTimer]struct{})}
}

// Now returns the clock's reading.
func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since is the clock's reading minus t.
func (c *Fake) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// AfterFunc arms f to fire once the clock has moved d past its reading.
func (c *Fake) AfterFunc(d time.Duration, f func()) Timer {
	t := &fakeTimer{c: c, f: f}
	t.Reset(d)
	return t
}

// Advance moves the clock forward by d (a negative d fires only what is
// already due) and returns the new reading.
func (c *Fake) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	t := c.now.Add(max(d, 0))
	c.mu.Unlock()
	c.Set(t)
	return t
}

// Set jumps the clock to t, backwards as well as forwards, firing the
// timers due by t.
func (c *Fake) Set(t time.Time) {
	for {
		c.mu.Lock()
		var next *fakeTimer
		for ft := range c.timers {
			if !ft.when.After(t) && (next == nil || ft.when.Before(next.when) ||
				ft.when.Equal(next.when) && ft.seq < next.seq) {
				next = ft
			}
		}
		if next == nil {
			c.now = t
			c.mu.Unlock()
			return
		}
		delete(c.timers, next)
		if next.when.After(c.now) {
			c.now = next.when
		}
		c.mu.Unlock()
		next.f()
	}
}

type fakeTimer struct {
	c *Fake
	f func()
	// when and seq are guarded by c.mu.
	when time.Time
	seq  uint64
}

func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	_, armed := t.c.timers[t]
	delete(t.c.timers, t)
	return armed
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	_, armed := c.timers[t]
	c.seq++
	t.when, t.seq = c.now.Add(d), c.seq
	c.timers[t] = struct{}{}
	return armed
}
