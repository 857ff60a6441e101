package environment

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/event"
)

// Engine maps environment role IDs to their defining conditions and
// answers activation queries. It implements core.EnvironmentSource, so a
// core.System wired with WithEnvironmentSource(engine) consults the live
// environment on every decision whose request leaves Environment nil.
//
// When attached to a bus, the engine re-evaluates all roles on every
// state.changed and clock.tick event and publishes role.activated /
// role.deactivated transitions, realizing the paper's "trusted event
// system ... generating events based on various system state changes".
type Engine struct {
	mu         sync.RWMutex
	defs       map[core.RoleID]Condition
	store      *Store
	now        func() time.Time
	bus        *event.Bus
	lastActive map[core.RoleID]bool
	// Transition counters are atomics so a metrics scrape never touches
	// the engine mutex.
	activations   atomic.Uint64
	deactivations atomic.Uint64
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithClock overrides the engine's time source. It becomes the freshness
// clock of the engine's store too, so a TTL and a time-of-day condition
// read one clock.
func WithClock(now func() time.Time) EngineOption {
	return func(e *Engine) {
		e.now = now
		if e.store != nil {
			e.store.mu.Lock()
			e.store.now = now
			e.store.mu.Unlock()
		}
	}
}

// WithBus attaches a bus: the engine subscribes to state changes and clock
// ticks, and publishes role activation transitions.
func WithBus(b *event.Bus) EngineOption {
	return func(e *Engine) { e.bus = b }
}

// NewEngine builds an engine over the given attribute store.
func NewEngine(store *Store, opts ...EngineOption) *Engine {
	e := &Engine{
		defs:       make(map[core.RoleID]Condition),
		store:      store,
		now:        time.Now,
		lastActive: make(map[core.RoleID]bool),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.bus != nil {
		e.subscribe()
	}
	return e
}

// AttachBus wires a bus onto an engine built without one: the engine
// subscribes to state changes and clock ticks and starts publishing role
// activation transitions, exactly as if it had been constructed with
// WithBus. It exists for callers — grbacd among them — that obtain the
// engine from a policy loader that does not thread bus options through.
// Attaching when a bus is already wired is a no-op.
func (e *Engine) AttachBus(b *event.Bus) {
	if b == nil {
		return
	}
	e.mu.Lock()
	if e.bus != nil {
		e.mu.Unlock()
		return
	}
	e.bus = b
	e.mu.Unlock()
	e.subscribe()
}

func (e *Engine) subscribe() {
	e.bus.Subscribe(func(event.Event) { e.publishTransitions() },
		event.TypeStateChanged, event.TypeClockTick)
}

// Define registers (or replaces) the condition behind an environment role.
func (e *Engine) Define(role core.RoleID, c Condition) error {
	if role == "" {
		return fmt.Errorf("%w: empty environment role ID", core.ErrInvalid)
	}
	if c == nil {
		return fmt.Errorf("%w: nil condition for role %q", core.ErrInvalid, role)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.defs[role] = c
	return nil
}

// Undefine removes a role definition.
func (e *Engine) Undefine(role core.RoleID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.defs[role]; !ok {
		return fmt.Errorf("%w: environment role %q", core.ErrNotFound, role)
	}
	delete(e.defs, role)
	delete(e.lastActive, role)
	return nil
}

// Definition returns the condition behind a role.
func (e *Engine) Definition(role core.RoleID) (Condition, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c, ok := e.defs[role]
	if !ok {
		return nil, fmt.Errorf("%w: environment role %q", core.ErrNotFound, role)
	}
	return c, nil
}

// Roles returns all defined environment role IDs in sorted order.
func (e *Engine) Roles() []core.RoleID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]core.RoleID, 0, len(e.defs))
	for r := range e.defs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// context builds an evaluation context for the given instant and subject.
func (e *Engine) context(at time.Time, subject core.SubjectID) Context {
	var attrs func(string) (Value, bool)
	if e.store != nil {
		attrs = e.store.Get
	}
	return Context{Now: at, Attrs: attrs, Subject: subject}
}

// ActiveEnvironmentRoles returns the roles active now, with no requesting
// subject. It implements core.EnvironmentSource.
func (e *Engine) ActiveEnvironmentRoles() []core.RoleID {
	return e.ActiveRolesAt(e.now(), "")
}

var _ core.EnvironmentSource = (*Engine)(nil)
var _ core.ExpiringEnvironmentSource = (*Engine)(nil)

// ExpiredContext reports the attribute keys whose freshness TTL has
// lapsed in the backing store. It implements
// core.ExpiringEnvironmentSource: while any context is expired, the
// engine's roles defined over that context read their attributes as
// absent (fail-safe inactive), and the core annotates denies with the
// stale keys so audit trails can tell a freshness deny from a policy
// deny.
func (e *Engine) ExpiredContext() []string {
	if e.store == nil {
		return nil
	}
	return e.store.ExpiredKeys()
}

// ActiveRolesAt returns the roles active at the given instant for the
// given subject ("" for global evaluation), sorted.
func (e *Engine) ActiveRolesAt(at time.Time, subject core.SubjectID) []core.RoleID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ctx := e.context(at, subject)
	out := make([]core.RoleID, 0, len(e.defs))
	for r, c := range e.defs {
		if c.Eval(ctx) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ActiveRolesFor returns the roles active now for a specific requesting
// subject, including subject-relative roles such as "in-kitchen".
func (e *Engine) ActiveRolesFor(subject core.SubjectID) []core.RoleID {
	return e.ActiveRolesAt(e.now(), subject)
}

// IsActive reports whether one role is active now for the given subject.
func (e *Engine) IsActive(role core.RoleID, subject core.SubjectID) (bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c, ok := e.defs[role]
	if !ok {
		return false, fmt.Errorf("%w: environment role %q", core.ErrNotFound, role)
	}
	return c.Eval(e.context(e.now(), subject)), nil
}

// SubjectSource adapts the engine into a core.EnvironmentSource that
// evaluates subject-relative roles for a fixed subject. Use it to mediate
// one subject's requests against their personal environment view:
//
//	req.Environment = engine.ActiveRolesFor(subject)
//
// or install NewSubjectSource(engine, subject) on a per-subject System.
type SubjectSource struct {
	engine  *Engine
	subject core.SubjectID
}

var _ core.EnvironmentSource = (*SubjectSource)(nil)

// NewSubjectSource builds a subject-scoped environment source.
func NewSubjectSource(e *Engine, subject core.SubjectID) *SubjectSource {
	return &SubjectSource{engine: e, subject: subject}
}

// ActiveEnvironmentRoles returns the roles active now for the bound subject.
func (s *SubjectSource) ActiveEnvironmentRoles() []core.RoleID {
	return s.engine.ActiveRolesFor(s.subject)
}

// publishTransitions recomputes global activation and publishes one event
// per role whose state changed since the last evaluation.
func (e *Engine) publishTransitions() {
	if e.bus == nil {
		return
	}
	e.mu.Lock()
	ctx := e.context(e.now(), "")
	type change struct {
		role   core.RoleID
		active bool
	}
	var changes []change
	for r, c := range e.defs {
		active := c.Eval(ctx)
		if active != e.lastActive[r] {
			e.lastActive[r] = active
			changes = append(changes, change{r, active})
			if active {
				e.activations.Add(1)
			} else {
				e.deactivations.Add(1)
			}
		}
	}
	bus := e.bus
	e.mu.Unlock()

	sort.Slice(changes, func(i, j int) bool { return changes[i].role < changes[j].role })
	for _, ch := range changes {
		typ := event.TypeRoleActivated
		if !ch.active {
			typ = event.TypeRoleDeactivated
		}
		bus.Publish(event.Event{
			Type:   typ,
			Source: "environment.engine",
			Attrs:  map[string]string{"role": string(ch.role)},
		})
	}
}

// Tick forces a re-evaluation and transition publication; simulators call
// it after advancing their clock. With a bus attached this is equivalent to
// publishing a clock.tick event.
func (e *Engine) Tick() { e.publishTransitions() }

// Activations reports how many role activation transitions the engine has
// published; Deactivations the reverse transitions.
func (e *Engine) Activations() uint64   { return e.activations.Load() }
func (e *Engine) Deactivations() uint64 { return e.deactivations.Load() }
