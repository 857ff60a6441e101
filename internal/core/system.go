package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/watch"
)

// EnvironmentSource supplies the set of currently active environment roles.
// The environment engine (internal/environment) implements it; System
// consults it for requests that do not carry an explicit environment
// snapshot.
type EnvironmentSource interface {
	// ActiveEnvironmentRoles returns the IDs of all environment roles
	// active at the time of the call.
	ActiveEnvironmentRoles() []RoleID
}

// ExpiringEnvironmentSource is an optional extension of EnvironmentSource
// for sources whose context can go stale — sensor-fed attribute stores
// with freshness TTLs. When a request is mediated against the live source
// and the source reports expired context, a resulting deny is annotated
// in Decision.Reason (and therefore in Decision.Explain and the audit
// trail) so a fail-safe freshness deny is distinguishable from an
// ordinary policy deny.
type ExpiringEnvironmentSource interface {
	EnvironmentSource
	// ExpiredContext returns identifiers of context items past their
	// freshness bound, empty when the context is fully fresh.
	ExpiredContext() []string
}

// subjectRec and objectRec hold per-entity role assignments.
// Each roles field is a role set: sorted and duplicate-free. A subject
// also lists its open sessions' IDs, so the calls that act on one
// subject's sessions never scan every session on the system.
type subjectRec struct {
	roles    []RoleID
	sessions []SessionID
}

type objectRec struct {
	roles []RoleID
}

// System is a complete GRBAC policy store and decision engine. It is safe
// for concurrent use: administration methods take the write lock and
// membership queries the read lock, while Decide, CheckAccess, DecideBatch,
// WhoCan and WhatCan take none — they run against the compiled snapshot.
//
// The zero value is not usable; construct with NewSystem.
type System struct {
	mu sync.RWMutex

	subjectRoles *roleGraph
	objectRoles  *roleGraph
	envRoles     *roleGraph

	subjects     map[SubjectID]*subjectRec
	objects      map[ObjectID]*objectRec
	transactions map[TransactionID]Transaction
	perms        []Permission
	sods         []SoDConstraint
	sessions     map[SessionID]*session
	sessionSeq   uint64

	strategy  ConflictStrategy
	threshold float64
	envSource EnvironmentSource
	// clock is the System's time source: clock.Real unless WithClock
	// replaced it.
	clock clock.Clock

	// journal, when set, observes every generation bump under the write
	// lock: serializable mutations through Record, ephemeral bumps through
	// ObserveGeneration (see the Journal contract in mutation.go).
	journal Journal

	// gen is the monotonic policy generation. Every mutating call bumps
	// it under the write lock. policyGen is the generation of the last
	// mutation that was not a session change. A cached decision for a
	// request naming a session is stamped with gen, a sessionless one with
	// policyGen, so session churn leaves sessionless entries live (see
	// stamps). Readers access both under the read lock.
	gen       uint64
	policyGen uint64
	// gens publishes gen on every bump, waking anyone parked on the
	// generation: the replication feed's long-poll and PolicyChanged.
	gens watch.Notifier
	// snap is the published compiled policy snapshot the lock-free Decide
	// path runs against, or nil after a mutation has invalidated it. It is
	// recompiled lazily by the first post-mutation Decide (see
	// currentSnapshot), so bulk policy building pays nothing per call.
	snap atomic.Pointer[snapshot]
	// compileMu serializes snapshot recompilation so a stampede of cold
	// readers builds the snapshot once.
	compileMu sync.Mutex
	// cache memoizes Decide results; nil when caching is disabled.
	cache    *decisionCache
	cacheCap int
	// decStripes counts cache hits and misses. Every Decide bumps one of
	// them with no lock held, on the stripe of the calling goroutine (see
	// stripe): a decider keeps adding to a line its own core already holds
	// instead of passing one back and forth with the others, however hot
	// the request they share. Stats sums the stripes; totals are exact.
	// The pad keeps stripe 0 off the line of the read-mostly fields above.
	_              [64]byte
	decStripes     [1 << decisionStripeBits]decisionStripe
	decEvictions   atomic.Uint64
	invalidations  atomic.Uint64
	snapCompiles   atomic.Uint64
	failSafeDenies atomic.Uint64
}

// decisionStripeBits sizes System.decStripes: with 64 stripes, two
// deciding goroutines share one 1 time in 64.
const decisionStripeBits = 6

// decisionStripe is one cache line of the hit/miss counters. A decision
// bumps exactly one of the two, so they share the line.
type decisionStripe struct {
	hits, misses atomic.Uint64
	_            [48]byte
}

// stripe returns the calling goroutine's counters. Goroutine stacks do not
// overlap and each spans whole 2 KiB blocks, so the block a stack local
// sits in names the goroutine for as long as its stack stays put; a
// Fibonacci hash of the block number spreads neighbouring stacks over the
// stripes. A goroutine whose stack grows or moves just lands on another
// stripe, which costs a shared line and never a count.
func (s *System) stripe() *decisionStripe {
	var local byte
	block := uint64(uintptr(unsafe.Pointer(&local))) >> 11
	return &s.decStripes[(block*0x9e3779b97f4a7c15)>>(64-decisionStripeBits)]
}

// Option configures a System at construction time.
type Option func(*System)

// WithConflictStrategy sets the role-precedence resolution strategy
// (default: DenyOverrides).
func WithConflictStrategy(cs ConflictStrategy) Option {
	return func(s *System) { s.strategy = cs }
}

// WithMinConfidence sets the system-wide authentication confidence
// threshold in [0,1] (default 0: per-permission thresholds alone apply).
func WithMinConfidence(t float64) Option {
	return func(s *System) { s.threshold = t }
}

// WithEnvironmentSource installs the provider of active environment roles.
func WithEnvironmentSource(src EnvironmentSource) Option {
	return func(s *System) { s.envSource = src }
}

// WithClock overrides the System's clock (see Now): session timestamps
// and the staleness clock and timer of a replica.Puller replicating into
// it. Tests and the home simulator use it for deterministic time. A nil
// c keeps the real clock.
func WithClock(c clock.Clock) Option {
	return func(s *System) {
		if c != nil {
			s.clock = c
		}
	}
}

// WithDecisionCacheSize bounds the decision cache to n entries. n <= 0
// disables decision caching entirely (role-closure caching stays on).
func WithDecisionCacheSize(n int) Option {
	return func(s *System) { s.cacheCap = n }
}

// WithoutDecisionCache disables the decision cache so every Decide runs
// the full mediation rule. It exists for the ablation benchmarks and the
// differential tests that cross-check cached against uncached decisions.
func WithoutDecisionCache() Option {
	return func(s *System) { s.cacheCap = 0 }
}

// Now reads the System's clock.
func (s *System) Now() time.Time { return s.clock.Now() }

// Clock returns the System's clock.
func (s *System) Clock() clock.Clock { return s.clock }

// NewSystem returns an empty GRBAC system with deny-overrides conflict
// resolution and no confidence threshold.
func NewSystem(opts ...Option) *System {
	s := &System{
		subjectRoles: newRoleGraph(SubjectRole),
		objectRoles:  newRoleGraph(ObjectRole),
		envRoles:     newRoleGraph(EnvironmentRole),
		subjects:     make(map[SubjectID]*subjectRec),
		objects:      make(map[ObjectID]*objectRec),
		transactions: make(map[TransactionID]Transaction),
		sessions:     make(map[SessionID]*session),
		strategy:     DenyOverrides{},
		clock:        clock.Real{},
		cacheCap:     defaultDecisionCacheSize,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.cacheCap > 0 {
		s.cache = newDecisionCache(s.cacheCap)
	} else {
		s.cacheCap = 0
	}
	return s
}

// invalidateLocked bumps the generation and sets the policy generation to
// it, invalidating every cached decision, retiring the published compiled
// snapshot, and waking every generation watcher. Callers hold the write
// lock and have just mutated policy state.
func (s *System) invalidateLocked() {
	s.bumpLocked()
	s.policyGen = s.gen
}

// sessionChangedLocked bumps the generation for a change to sessions only:
// the cached decisions of requests naming a session are retired and the
// snapshot recompiles, but sessionless entries stay live. Sessions are
// ephemeral, so the bump is observed, never journaled. Callers hold the
// write lock.
func (s *System) sessionChangedLocked() {
	s.bumpLocked()
	s.observeLocked()
}

// bumpLocked moves the generation on, retires the compiled snapshot and
// wakes every generation watcher.
func (s *System) bumpLocked() {
	s.gen++
	s.invalidations.Add(1)
	s.snap.Store(nil)
	s.gens.Publish(s.gen)
}

// currentSnapshot returns the newest compiled policy snapshot, compiling
// and publishing one if a mutation has retired it. The compile — and,
// crucially, the publish — happen while the read lock is held: every
// mutator holds the write lock for both its state change and its
// nil-store, so a snapshot can never be published over a newer
// invalidation. compileMu keeps a stampede of cold readers from compiling
// the same snapshot repeatedly.
func (s *System) currentSnapshot() *snapshot {
	if sn := s.snap.Load(); sn != nil {
		return sn
	}
	s.compileMu.Lock()
	defer s.compileMu.Unlock()
	if sn := s.snap.Load(); sn != nil {
		return sn
	}
	s.mu.RLock()
	sn := s.compileSnapshotLocked()
	s.snap.Store(sn)
	s.mu.RUnlock()
	s.snapCompiles.Add(1)
	return sn
}

// Generation returns the current policy generation: a monotonic counter
// bumped by every mutating call. Two systems at the same generation that
// started from the same snapshot hold identical policy.
func (s *System) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// GenerationChange returns a channel that is closed at the next generation
// bump. To wait for a change without missing one, obtain the channel
// FIRST, then read Generation(): a bump between the two calls is visible
// in the generation, and a bump after the read closes the channel already
// held.
func (s *System) GenerationChange() <-chan struct{} { return s.gens.Changed() }

// WaitGeneration blocks until the policy generation exceeds after or ctx
// is done, and returns the generation it ends at.
func (s *System) WaitGeneration(ctx context.Context, after uint64) uint64 {
	return s.gens.Wait(ctx, after)
}

// Stats reports the memoization layer's counters: decision-cache hits,
// misses, and evictions, the number of invalidations (policy mutations),
// and the current cache occupancy. The PDP server serves it at /v1/statsz.
func (s *System) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Generation:        s.gen,
		DecisionEvictions: s.decEvictions.Load(),
		Invalidations:     s.invalidations.Load(),
		SnapshotCompiles:  s.snapCompiles.Load(),
		FailSafeDenies:    s.failSafeDenies.Load(),
		DecisionCapacity:  s.cacheCap,
	}
	for i := range s.decStripes {
		st.DecisionHits += s.decStripes[i].hits.Load()
		st.DecisionMisses += s.decStripes[i].misses.Load()
	}
	if s.cache != nil {
		st.DecisionEntries = s.cache.size()
	}
	return st
}

// graph returns the role graph for kind; the caller must hold the lock.
func (s *System) graph(kind RoleKind) (*roleGraph, error) {
	switch kind {
	case SubjectRole:
		return s.subjectRoles, nil
	case ObjectRole:
		return s.objectRoles, nil
	case EnvironmentRole:
		return s.envRoles, nil
	default:
		return nil, fmt.Errorf("%w: role kind %d", ErrInvalid, kind)
	}
}

// --- Entities -------------------------------------------------------------

// AddSubject registers a user.
func (s *System) AddSubject(id SubjectID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		return fmt.Errorf("%w: empty subject ID", ErrInvalid)
	}
	if _, ok := s.subjects[id]; ok {
		return fmt.Errorf("%w: subject %q", ErrExists, id)
	}
	s.subjects[id] = &subjectRec{}
	s.invalidateLocked()
	return s.recordLocked(Mutation{Op: OpAddSubject, Subject: id})
}

// RemoveSubject deletes a subject and its role assignments. Sessions owned
// by the subject are closed.
func (s *System) RemoveSubject(id SubjectID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.subjects[id]
	if !ok {
		return fmt.Errorf("%w: subject %q", ErrNotFound, id)
	}
	delete(s.subjects, id)
	for _, sid := range rec.sessions {
		delete(s.sessions, sid)
	}
	s.invalidateLocked()
	return s.recordLocked(Mutation{Op: OpRemoveSubject, Subject: id})
}

// Subjects returns all subject IDs in sorted order.
func (s *System) Subjects() []SubjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SubjectID, 0, len(s.subjects))
	for id := range s.subjects {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasSubject reports whether id is registered.
func (s *System) HasSubject(id SubjectID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.subjects[id]
	return ok
}

// AddObject registers a resource.
func (s *System) AddObject(id ObjectID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		return fmt.Errorf("%w: empty object ID", ErrInvalid)
	}
	if _, ok := s.objects[id]; ok {
		return fmt.Errorf("%w: object %q", ErrExists, id)
	}
	s.objects[id] = &objectRec{}
	s.invalidateLocked()
	return s.recordLocked(Mutation{Op: OpAddObject, Object: id})
}

// RemoveObject deletes an object and its role assignments.
func (s *System) RemoveObject(id ObjectID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[id]; !ok {
		return fmt.Errorf("%w: object %q", ErrNotFound, id)
	}
	delete(s.objects, id)
	s.invalidateLocked()
	return s.recordLocked(Mutation{Op: OpRemoveObject, Object: id})
}

// Objects returns all object IDs in sorted order.
func (s *System) Objects() []ObjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ObjectID, 0, len(s.objects))
	for id := range s.objects {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasObject reports whether id is registered.
func (s *System) HasObject(id ObjectID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.objects[id]
	return ok
}

// --- Roles ----------------------------------------------------------------

// AddRole defines a role of any kind. Parents must already exist.
func (s *System) AddRole(r Role) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !r.Kind.Valid() {
		return fmt.Errorf("%w: role %q has invalid kind", ErrInvalid, r.ID)
	}
	if isWildcard(r.ID) {
		return fmt.Errorf("%w: role ID %q is reserved", ErrInvalid, r.ID)
	}
	g, err := s.graph(r.Kind)
	if err != nil {
		return err
	}
	if err := g.add(r); err != nil {
		return err
	}
	s.invalidateLocked()
	rc := r.clone()
	return s.recordLocked(Mutation{Op: OpAddRole, Role: &rc})
}

// AddRoleParent adds a hierarchy edge making parent a generalization of
// child, rejecting cycles.
func (s *System) AddRoleParent(kind RoleKind, child, parent RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, err := s.graph(kind)
	if err != nil {
		return err
	}
	if err := g.addParent(child, parent); err != nil {
		return err
	}
	s.invalidateLocked()
	return s.recordLocked(Mutation{Op: OpAddRoleParent, Kind: kind, RoleID: child, Parent: parent})
}

// RemoveRoleParent removes a hierarchy edge.
func (s *System) RemoveRoleParent(kind RoleKind, child, parent RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, err := s.graph(kind)
	if err != nil {
		return err
	}
	if err := g.removeParent(child, parent); err != nil {
		return err
	}
	s.invalidateLocked()
	return s.recordLocked(Mutation{Op: OpRemoveRoleParent, Kind: kind, RoleID: child, Parent: parent})
}

// RemoveRole deletes a role, its hierarchy edges, every assignment of it,
// and every permission that references it.
func (s *System) RemoveRole(kind RoleKind, id RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, err := s.graph(kind)
	if err != nil {
		return err
	}
	if err := g.remove(id); err != nil {
		return err
	}
	switch kind {
	case SubjectRole:
		for _, rec := range s.subjects {
			rec.roles, _ = deleteRole(rec.roles, id)
		}
		for _, sess := range s.sessions {
			sess.active, _ = deleteRole(sess.active, id)
		}
	case ObjectRole:
		for _, rec := range s.objects {
			rec.roles, _ = deleteRole(rec.roles, id)
		}
	}
	kept := s.perms[:0]
	for _, p := range s.perms {
		if references(p, kind, id) {
			continue
		}
		kept = append(kept, p)
	}
	s.perms = kept
	s.invalidateLocked()
	return s.recordLocked(Mutation{Op: OpRemoveRole, Kind: kind, RoleID: id})
}

func references(p Permission, kind RoleKind, id RoleID) bool {
	switch kind {
	case SubjectRole:
		return p.Subject == id
	case ObjectRole:
		return p.Object == id
	case EnvironmentRole:
		return p.Environment == id
	default:
		return false
	}
}

// Role returns a copy of the named role.
func (s *System) Role(kind RoleKind, id RoleID) (Role, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, err := s.graph(kind)
	if err != nil {
		return Role{}, err
	}
	r, ok := g.get(id)
	if !ok {
		return Role{}, fmt.Errorf("%w: %s role %q", ErrNotFound, kind, id)
	}
	return r.clone(), nil
}

// Roles returns copies of every role of the given kind, sorted by ID.
func (s *System) Roles(kind RoleKind) []Role {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, err := s.graph(kind)
	if err != nil {
		return nil
	}
	return g.all()
}

// RoleAncestors returns all strict ancestors (generalizations) of a role.
func (s *System) RoleAncestors(kind RoleKind, id RoleID) []RoleID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, err := s.graph(kind)
	if err != nil {
		return nil
	}
	return g.ancestors(id)
}

// RoleDescendants returns all strict descendants (specializations) of a role.
func (s *System) RoleDescendants(kind RoleKind, id RoleID) []RoleID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, err := s.graph(kind)
	if err != nil {
		return nil
	}
	return g.descendants(id)
}

// RoleDepth returns the longest generalization chain above the role.
func (s *System) RoleDepth(kind RoleKind, id RoleID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, err := s.graph(kind)
	if err != nil {
		return 0
	}
	return g.depth(id)
}

// --- Assignments ----------------------------------------------------------

// AssignSubjectRole adds role to the subject's authorized role set after
// checking every static separation-of-duty constraint against the upward
// closure of the would-be role set (§4.1.2: "if roles R1 and R2 exhibit
// static SoD and subject S has acted in role R1, he may never act in R2").
func (s *System) AssignSubjectRole(sub SubjectID, role RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.subjects[sub]
	if !ok {
		return fmt.Errorf("%w: subject %q", ErrNotFound, sub)
	}
	if _, ok := s.subjectRoles.get(role); !ok {
		return fmt.Errorf("%w: subject role %q", ErrNotFound, role)
	}
	if hasRole(rec.roles, role) {
		return nil
	}
	next := append(slices.Clip(rec.roles), role)
	held := s.subjectRoles.closure(next)
	for _, c := range s.sods {
		if c.Kind != StaticSoD {
			continue
		}
		if a, b, bad := c.violates(held); bad {
			return fmt.Errorf("%w: constraint %q forbids %q to hold both %q and %q",
				ErrStaticSoD, c.Name, sub, a, b)
		}
	}
	rec.roles = insertRole(rec.roles, role)
	s.invalidateLocked()
	return s.recordLocked(Mutation{Op: OpAssignSubjectRole, Subject: sub, RoleID: role})
}

// RevokeSubjectRole removes a direct role assignment. Active sessions keep
// activated roles only if still authorized; otherwise they are deactivated.
func (s *System) RevokeSubjectRole(sub SubjectID, role RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.subjects[sub]
	if !ok {
		return fmt.Errorf("%w: subject %q", ErrNotFound, sub)
	}
	roles, ok := deleteRole(rec.roles, role)
	if !ok {
		return fmt.Errorf("%w: subject %q does not hold role %q", ErrNotFound, sub, role)
	}
	rec.roles = roles
	authorized := s.subjectRoles.closure(rec.roles)
	for _, sid := range rec.sessions {
		sess := s.sessions[sid]
		sess.active = slices.DeleteFunc(sess.active, func(r RoleID) bool { return !authorized[r] })
	}
	s.invalidateLocked()
	return s.recordLocked(Mutation{Op: OpRevokeSubjectRole, Subject: sub, RoleID: role})
}

// AuthorizedRoles returns the subject's directly assigned roles, sorted.
func (s *System) AuthorizedRoles(sub SubjectID) ([]RoleID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.subjects[sub]
	if !ok {
		return nil, fmt.Errorf("%w: subject %q", ErrNotFound, sub)
	}
	return copyRoles(rec.roles), nil
}

// EffectiveSubjectRoles returns the subject's authorized roles closed
// upward through the hierarchy: every role the subject possesses.
func (s *System) EffectiveSubjectRoles(sub SubjectID) ([]RoleID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.subjects[sub]
	if !ok {
		return nil, fmt.Errorf("%w: subject %q", ErrNotFound, sub)
	}
	return sortedRoleIDs(s.subjectRoles.closure(rec.roles)), nil
}

// AssignObjectRole classifies an object into an object role.
func (s *System) AssignObjectRole(obj ObjectID, role RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.objects[obj]
	if !ok {
		return fmt.Errorf("%w: object %q", ErrNotFound, obj)
	}
	if _, ok := s.objectRoles.get(role); !ok {
		return fmt.Errorf("%w: object role %q", ErrNotFound, role)
	}
	rec.roles = insertRole(rec.roles, role)
	s.invalidateLocked()
	return s.recordLocked(Mutation{Op: OpAssignObjectRole, Object: obj, RoleID: role})
}

// RevokeObjectRole removes an object classification.
func (s *System) RevokeObjectRole(obj ObjectID, role RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.objects[obj]
	if !ok {
		return fmt.Errorf("%w: object %q", ErrNotFound, obj)
	}
	roles, ok := deleteRole(rec.roles, role)
	if !ok {
		return fmt.Errorf("%w: object %q does not hold role %q", ErrNotFound, obj, role)
	}
	rec.roles = roles
	s.invalidateLocked()
	return s.recordLocked(Mutation{Op: OpRevokeObjectRole, Object: obj, RoleID: role})
}

// ObjectRoles returns the object's directly assigned roles, sorted.
func (s *System) ObjectRoles(obj ObjectID) ([]RoleID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.objects[obj]
	if !ok {
		return nil, fmt.Errorf("%w: object %q", ErrNotFound, obj)
	}
	return copyRoles(rec.roles), nil
}

// EffectiveObjectRoles returns the object's roles closed upward.
func (s *System) EffectiveObjectRoles(obj ObjectID) ([]RoleID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.objects[obj]
	if !ok {
		return nil, fmt.Errorf("%w: object %q", ErrNotFound, obj)
	}
	return sortedRoleIDs(s.objectRoles.closure(rec.roles)), nil
}

// --- Transactions ---------------------------------------------------------

// AddTransaction defines a transaction.
func (s *System) AddTransaction(t Transaction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := validateTransaction(t); err != nil {
		return err
	}
	if _, ok := s.transactions[t.ID]; ok {
		return fmt.Errorf("%w: transaction %q", ErrExists, t.ID)
	}
	s.transactions[t.ID] = t.clone()
	s.invalidateLocked()
	tc := t.clone()
	return s.recordLocked(Mutation{Op: OpAddTransaction, Transaction: &tc})
}

// Transaction returns a copy of the named transaction.
func (s *System) Transaction(id TransactionID) (Transaction, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.transactions[id]
	if !ok {
		return Transaction{}, fmt.Errorf("%w: transaction %q", ErrNotFound, id)
	}
	return t.clone(), nil
}

// Transactions returns copies of all transactions, sorted by ID.
func (s *System) Transactions() []Transaction {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Transaction, 0, len(s.transactions))
	for _, t := range s.transactions {
		out = append(out, t.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TransactionsForAction returns the IDs of all transactions containing the
// given action among their steps, sorted.
func (s *System) TransactionsForAction(a Action) []TransactionID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []TransactionID
	for id, t := range s.transactions {
		for _, step := range t.Steps {
			if step.Action == a {
				out = append(out, id)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- Permissions ----------------------------------------------------------

// Grant installs a permission after validating that each leg names an
// existing role of the right kind (or the corresponding wildcard) and that
// the transaction exists (or is AnyTransaction).
func (s *System) Grant(p Permission) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := validatePermission(p); err != nil {
		return err
	}
	if p.Subject != AnySubject {
		if _, ok := s.subjectRoles.get(p.Subject); !ok {
			return fmt.Errorf("%w: subject role %q", ErrNotFound, p.Subject)
		}
	}
	if p.Object != AnyObject {
		if _, ok := s.objectRoles.get(p.Object); !ok {
			return fmt.Errorf("%w: object role %q", ErrNotFound, p.Object)
		}
	}
	if p.Environment != AnyEnvironment {
		if _, ok := s.envRoles.get(p.Environment); !ok {
			return fmt.Errorf("%w: environment role %q", ErrNotFound, p.Environment)
		}
	}
	if p.Transaction != AnyTransaction {
		if _, ok := s.transactions[p.Transaction]; !ok {
			return fmt.Errorf("%w: transaction %q", ErrNotFound, p.Transaction)
		}
	}
	s.perms = append(s.perms, p)
	s.invalidateLocked()
	pc := p
	return s.recordLocked(Mutation{Op: OpGrant, Permission: &pc})
}

// Revoke removes the first permission equal to p.
func (s *System) Revoke(p Permission) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.perms {
		if q == p {
			s.perms = append(s.perms[:i], s.perms[i+1:]...)
			s.invalidateLocked()
			pc := p
			return s.recordLocked(Mutation{Op: OpRevoke, Permission: &pc})
		}
	}
	return fmt.Errorf("%w: no such permission", ErrNotFound)
}

// Permissions returns a copy of all installed permissions in grant order.
func (s *System) Permissions() []Permission {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Permission(nil), s.perms...)
}

// --- Separation of duty ---------------------------------------------------

// AddSoDConstraint installs a separation-of-duty constraint. Static
// constraints are checked retroactively: installation fails if an existing
// subject already violates the constraint.
func (s *System) AddSoDConstraint(c SoDConstraint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := validateSoD(c); err != nil {
		return err
	}
	for _, existing := range s.sods {
		if existing.Name == c.Name {
			return fmt.Errorf("%w: SoD constraint %q", ErrExists, c.Name)
		}
	}
	for _, r := range c.Roles {
		if _, ok := s.subjectRoles.get(r); !ok {
			return fmt.Errorf("%w: subject role %q", ErrNotFound, r)
		}
	}
	if c.Kind == StaticSoD {
		for sub, rec := range s.subjects {
			held := s.subjectRoles.closure(rec.roles)
			if a, b, bad := c.violates(held); bad {
				return fmt.Errorf("%w: subject %q already holds %q and %q",
					ErrStaticSoD, sub, a, b)
			}
		}
	}
	s.sods = append(s.sods, c.clone())
	s.invalidateLocked()
	cc := c.clone()
	return s.recordLocked(Mutation{Op: OpAddSoD, SoD: &cc})
}

// RemoveSoDConstraint deletes the named constraint.
func (s *System) RemoveSoDConstraint(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.sods {
		if c.Name == name {
			s.sods = append(s.sods[:i], s.sods[i+1:]...)
			s.invalidateLocked()
			return s.recordLocked(Mutation{Op: OpRemoveSoD, Name: name})
		}
	}
	return fmt.Errorf("%w: SoD constraint %q", ErrNotFound, name)
}

// SoDConstraints returns copies of every constraint in installation order.
func (s *System) SoDConstraints() []SoDConstraint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SoDConstraint, 0, len(s.sods))
	for _, c := range s.sods {
		out = append(out, c.clone())
	}
	return out
}

// --- Configuration --------------------------------------------------------

// SetConflictStrategy replaces the role-precedence strategy.
func (s *System) SetConflictStrategy(cs ConflictStrategy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs == nil {
		cs = DenyOverrides{}
	}
	s.strategy = cs
	s.invalidateLocked()
	// Strategies are live Go values the replay language cannot carry; the
	// bump is observed (so journal consumers track the generation) but the
	// swap itself is process-local configuration, like an env source.
	s.observeLocked()
}

// SetMinConfidence sets the system-wide authentication threshold. Setting
// the threshold it already has changes nothing: no generation bump, no
// recompile, no journal record.
func (s *System) SetMinConfidence(t float64) error {
	if t < 0 || t > 1 {
		return fmt.Errorf("%w: threshold %v outside [0,1]", ErrInvalid, t)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t == s.threshold {
		return nil
	}
	s.threshold = t
	s.invalidateLocked()
	return s.recordLocked(Mutation{Op: OpSetMinConfidence, Threshold: t})
}

// MinConfidence returns the system-wide authentication threshold.
func (s *System) MinConfidence() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.threshold
}

// SetEnvironmentSource installs the provider of active environment roles
// used for requests that carry no explicit environment snapshot.
func (s *System) SetEnvironmentSource(src EnvironmentSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.envSource = src
	s.invalidateLocked()
	s.observeLocked()
}

func isWildcard(id RoleID) bool {
	return id == AnySubject || id == AnyObject || id == AnyEnvironment
}
