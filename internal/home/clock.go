// Package home simulates the Aware Home of the GRBAC paper (§2): rooms,
// devices, residents with tracked locations, a controllable clock, and an
// activity/workload generator. The paper's physical prototype house is the
// one artifact this reproduction cannot build; per DESIGN.md, a
// discrete-event simulation that produces the same observable state stream
// (who is where, what time it is, what is being used) substitutes for it.
package home

import (
	"time"

	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/event"
)

// Clock is the simulation clock: a clock.Fake whose every step also
// publishes one clock.tick event, so the environment engine re-evaluates
// time-based roles. A Household gives this one clock to its event bus,
// environment engine, System and audit logger, so every timestamp they
// take is simulated time and a step fires the timers armed on it.
type Clock struct {
	*clock.Fake
	bus *event.Bus
}

// NewClock starts a clock at the given instant, optionally attached to a
// bus (nil is allowed).
func NewClock(start time.Time, bus *event.Bus) *Clock {
	return &Clock{Fake: clock.NewFake(start), bus: bus}
}

// Advance moves the clock forward by d (negative d is ignored), firing the
// timers it passes, and publishes one clock.tick event.
func (c *Clock) Advance(d time.Duration) time.Time {
	now := c.Fake.Advance(d)
	c.tick(now)
	return now
}

// Set jumps the clock to an absolute instant and publishes one tick.
func (c *Clock) Set(t time.Time) {
	c.Fake.Set(t)
	c.tick(t)
}

func (c *Clock) tick(now time.Time) {
	if c.bus != nil {
		c.bus.Publish(event.Event{
			Type:   event.TypeClockTick,
			Source: "home.clock",
			Attrs:  map[string]string{"now": now.Format(time.RFC3339)},
		})
	}
}
