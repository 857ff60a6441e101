package sensor

import (
	"sort"
	"sync"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/event"
)

// Authenticator accumulates observations from all of the home's sensors
// and answers "what credentials does the evidence support right now?". It
// realizes the paper's non-intrusive authentication requirement: residents
// are "identified implicitly by sensors throughout the home" rather than
// logging in.
//
// Observations expire after five minutes; within that window,
// observations about the same hypothesis from *different* sensors fuse as
// independent evidence (Fuse), while repeated observations from the same
// sensor only keep the strongest (a sensor re-confirming itself is not new
// evidence).
type Authenticator struct {
	mu     sync.Mutex
	window time.Duration
	obs    []Observation
	bus    *event.Bus
}

// AuthOption configures an Authenticator.
type AuthOption func(*Authenticator)

// WithAuthBus attaches a bus; every recorded observation is published as a
// sensor.observation event.
func WithAuthBus(b *event.Bus) AuthOption {
	return func(a *Authenticator) { a.bus = b }
}

// NewAuthenticator builds an empty authenticator.
func NewAuthenticator(opts ...AuthOption) *Authenticator {
	a := &Authenticator{window: 5 * time.Minute}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

// Record adds observations to the evidence pool. Invalid observations are
// rejected.
func (a *Authenticator) Record(observations ...Observation) error {
	for _, o := range observations {
		if err := o.Validate(); err != nil {
			return err
		}
	}
	a.mu.Lock()
	a.obs = append(a.obs, observations...)
	bus := a.bus
	a.mu.Unlock()
	if bus != nil {
		for _, o := range observations {
			attrs := map[string]string{"sensor": o.Sensor}
			if o.Subject != "" {
				attrs["subject"] = string(o.Subject)
			}
			if o.Role != "" {
				attrs["role"] = string(o.Role)
			}
			bus.Publish(event.Event{
				Type:   event.TypeSensorObservation,
				Source: o.Sensor,
				Attrs:  attrs,
			})
		}
	}
	return nil
}

// Credentials fuses the live evidence into a credential set as of the
// given instant. Observations older than the window (or from the future)
// are ignored.
func (a *Authenticator) Credentials(at time.Time) core.CredentialSet {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.expire(at)

	type hypothesis struct {
		subject core.SubjectID
		role    core.RoleID
	}
	// Strongest observation per (hypothesis, sensor); then fuse across
	// sensors.
	bySensor := make(map[hypothesis]map[string]float64)
	for _, o := range a.obs {
		if o.Time.After(at) {
			continue
		}
		h := hypothesis{o.Subject, o.Role}
		m := bySensor[h]
		if m == nil {
			m = make(map[string]float64)
			bySensor[h] = m
		}
		if o.Confidence > m[o.Sensor] {
			m[o.Sensor] = o.Confidence
		}
	}
	out := make(core.CredentialSet, 0, len(bySensor))
	for h, sensors := range bySensor {
		confs := make([]float64, 0, len(sensors))
		names := make([]string, 0, len(sensors))
		for name, c := range sensors {
			confs = append(confs, c)
			names = append(names, name)
		}
		sort.Strings(names)
		source := names[0]
		if len(names) > 1 {
			source = "fused(" + names[0]
			for _, n := range names[1:] {
				source += "+" + n
			}
			source += ")"
		}
		out = append(out, core.Credential{
			Subject:    h.subject,
			Role:       h.role,
			Confidence: Fuse(confs),
			Source:     source,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Subject != out[j].Subject {
			return out[i].Subject < out[j].Subject
		}
		return out[i].Role < out[j].Role
	})
	return out
}

// expire drops observations outside the window ending at `at`. The caller
// must hold the lock.
func (a *Authenticator) expire(at time.Time) {
	cutoff := at.Add(-a.window)
	kept := a.obs[:0]
	for _, o := range a.obs {
		if !o.Time.Before(cutoff) {
			kept = append(kept, o)
		}
	}
	a.obs = kept
}

// Len reports the number of live observations as of the given instant.
func (a *Authenticator) Len(at time.Time) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.expire(at)
	return len(a.obs)
}

// Reset discards all evidence.
func (a *Authenticator) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.obs = a.obs[:0]
}
