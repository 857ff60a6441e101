package environment

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aware-home/grbac/internal/event"
	"github.com/aware-home/grbac/internal/faults"
)

// entry is one stored attribute with its freshness bound. A zero expires
// means the value never goes stale.
type entry struct {
	val     Value
	expires time.Time
}

// Store is the current environment snapshot: a concurrency-safe map from
// attribute keys ("temperature", "system.load", "location.alice") to typed
// values. Updates optionally publish event.TypeStateChanged on a bus so the
// Engine (and auditors) can observe every change.
//
// Values may carry a freshness TTL (SetTTL), measured on the store's
// clock: time.Now, or the clock of an Engine built over it with WithClock.
// The paper's environment roles are only trustworthy
// while the sensors feeding them are live; once a value outlives its TTL
// the store fails safe: Get reports the attribute as absent, so conditions
// over it evaluate false, environment roles defined on it deactivate, and
// permissions requiring those roles deny. ExpiredKeys names the expired
// values so those denials can be annotated.
type Store struct {
	mu         sync.RWMutex
	attrs      map[string]entry
	bus        *event.Bus
	now        func() time.Time
	staleReads atomic.Uint64
}

// StoreOption configures a Store.
type StoreOption func(*Store)

// WithStoreBus attaches an event bus; every Set publishes a state.changed
// event with attrs {key, value}.
func WithStoreBus(b *event.Bus) StoreOption {
	return func(s *Store) { s.bus = b }
}

// NewStore builds an empty attribute store.
func NewStore(opts ...StoreOption) *Store {
	s := &Store{attrs: make(map[string]entry), now: time.Now}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Set updates one attribute, with no TTL, and publishes the change.
func (s *Store) Set(key string, v Value) {
	s.SetTTL(key, v, 0)
}

// SetTTL updates one attribute with a freshness TTL (0 = never expires)
// and publishes the change. Setting an attribute to its current value
// refreshes its freshness silently (the environment did not change; the
// sensor merely re-confirmed it) and publishes nothing.
func (s *Store) SetTTL(key string, v Value, ttl time.Duration) {
	_ = faults.Inject(faults.EnvironmentSet) // delay = stalled sensor feed
	var expires time.Time
	if ttl > 0 {
		expires = s.now().Add(ttl)
	}
	s.mu.Lock()
	old, had := s.attrs[key]
	s.attrs[key] = entry{val: v, expires: expires}
	bus := s.bus
	s.mu.Unlock()
	if had && old.val.Equal(v) {
		return // freshness refreshed, value unchanged: no event
	}
	if bus != nil {
		bus.Publish(event.Event{
			Type:   event.TypeStateChanged,
			Source: "environment.store",
			Attrs:  map[string]string{"key": key, "value": v.Render()},
		})
	}
}

// Delete removes one attribute.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	_, had := s.attrs[key]
	delete(s.attrs, key)
	bus := s.bus
	s.mu.Unlock()
	if had && bus != nil {
		bus.Publish(event.Event{
			Type:   event.TypeStateChanged,
			Source: "environment.store",
			Attrs:  map[string]string{"key": key, "value": "<deleted>"},
		})
	}
}

// expired reports whether e has outlived its TTL at instant t.
func (e entry) expired(t time.Time) bool {
	return !e.expires.IsZero() && t.After(e.expires)
}

// Get returns the attribute value, if set and fresh. An expired value is
// reported as absent (fail-safe) and the stale read is counted.
func (s *Store) Get(key string) (Value, bool) {
	s.mu.RLock()
	e, ok := s.attrs[key]
	now := s.now
	s.mu.RUnlock()
	if !ok {
		return Value{}, false
	}
	if e.expired(now()) {
		s.staleReads.Add(1)
		return Value{}, false
	}
	return e.val, true
}

// StaleReads counts Gets that touched an expired value.
func (s *Store) StaleReads() uint64 { return s.staleReads.Load() }

// ExpiredKeys returns the keys whose values have outlived their TTL, in
// sorted order. Expired entries stay listed until overwritten or deleted,
// so the PDP can explain fail-safe denies by naming the stale context.
func (s *Store) ExpiredKeys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.now()
	var out []string
	for k, e := range s.attrs {
		if e.expired(t) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Keys returns all fresh attribute keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.now()
	out := make([]string, 0, len(s.attrs))
	for k, e := range s.attrs {
		if e.expired(t) {
			continue
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a copy of the fresh attribute map.
func (s *Store) Snapshot() map[string]Value {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.now()
	out := make(map[string]Value, len(s.attrs))
	for k, e := range s.attrs {
		if e.expired(t) {
			continue
		}
		out[k] = e.val
	}
	return out
}
