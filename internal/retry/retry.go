// Package retry holds the one backoff-and-jitter policy every
// reconnecting client in this repository follows. The replication
// follower's sync loop, the PDP client's transient-failure retries, and
// the embedded SDK's puller all face the same adversary — a struggling or
// restarting server that a fleet of lockstep retriers would finish off —
// so they share one implementation instead of three slightly-different
// copies of the same arithmetic.
//
// The policy is exponential doubling clamped to a maximum, with "full
// jitter" spreading each sleep over [d/2, 3d/2] so a fleet that failed
// together does not retry together.
package retry

import (
	"context"
	"math/rand"
	"time"
)

// Jitter spreads d uniformly over [d/2, 3d/2] so concurrent retriers
// decorrelate instead of hammering a recovering server in lockstep.
// Non-positive d passes through untouched rather than reaching
// rand.Int63n, which panics on n <= 0 — callers clamp their bounds at
// construction, but a zero sleep must stay a zero sleep either way.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)+1))
}

// Next doubles d and clamps the result to max, the standard exponential
// step between retry attempts. A d already at or above max stays at max;
// max <= 0 means "no cap" and returns the plain doubling. Doubling from a
// non-positive d would loop at zero forever, so it advances to max (or
// stays put when uncapped) — callers always make progress toward their
// ceiling.
func Next(d, max time.Duration) time.Duration {
	if d <= 0 {
		if max > 0 {
			return max
		}
		return d
	}
	d *= 2
	if max > 0 && d > max {
		return max
	}
	return d
}

// Backoff is the stateful form: Delay returns the jittered sleep for the
// current attempt and advances the exponential schedule; Reset rewinds it
// after a success. The zero value is not usable — both bounds must be
// positive, which New enforces by clamping (Min <= 0 falls back to def,
// Max is raised to at least Min), so a misconfigured caller degrades to
// sane pacing instead of a hot retry loop.
type Backoff struct {
	Min, Max time.Duration
	cur      time.Duration
}

// New builds a Backoff with min clamped to fallback when non-positive and
// max raised to at least the resulting min.
func New(min, max, fallback time.Duration) Backoff {
	if min <= 0 {
		min = fallback
	}
	if max < min {
		max = min
	}
	return Backoff{Min: min, Max: max}
}

// Delay returns the jittered sleep for this attempt and advances the
// schedule: the first call draws around Min, each later call around
// double the previous, never past Max.
func (b *Backoff) Delay() time.Duration {
	if b.cur <= 0 {
		b.cur = b.Min
	}
	d := Jitter(b.cur)
	b.cur = Next(b.cur, b.Max)
	return d
}

// Current returns the undithered base delay the next Delay call will
// jitter, for log messages ("retrying in ~%v").
func (b *Backoff) Current() time.Duration {
	if b.cur <= 0 {
		return b.Min
	}
	return b.cur
}

// Reset rewinds the schedule to Min after a successful exchange.
func (b *Backoff) Reset() { b.cur = 0 }

// Sleep sleeps for the next Delay or until ctx is done, reporting whether
// the full sleep elapsed.
func (b *Backoff) Sleep(ctx context.Context) bool {
	t := time.NewTimer(b.Delay())
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
