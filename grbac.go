// Package grbac is a complete implementation of Generalized Role-Based
// Access Control (Covington, Moyer, Ahamad: "Generalized Role-Based Access
// Control for Securing Future Applications"), the access model that extends
// traditional RBAC by applying roles uniformly to subjects, objects, and
// environment state.
//
// # Quick start
//
//	sys := grbac.NewSystem()
//	_ = sys.AddRole(grbac.Role{ID: "child", Kind: grbac.SubjectRole})
//	_ = sys.AddRole(grbac.Role{ID: "entertainment-devices", Kind: grbac.ObjectRole})
//	_ = sys.AddRole(grbac.Role{ID: "weekday-free-time", Kind: grbac.EnvironmentRole})
//	_ = sys.AddSubject("alice")
//	_ = sys.AssignSubjectRole("alice", "child")
//	_ = sys.AddObject("tv")
//	_ = sys.AssignObjectRole("tv", "entertainment-devices")
//	_ = sys.AddTransaction(grbac.SimpleTransaction("use"))
//	_ = sys.Grant(grbac.Permission{
//	    Subject:     "child",
//	    Object:      "entertainment-devices",
//	    Environment: "weekday-free-time",
//	    Transaction: "use",
//	    Effect:      grbac.Permit,
//	})
//	d, _ := sys.Decide(grbac.Request{
//	    Subject: "alice", Object: "tv", Transaction: "use",
//	    Environment: []grbac.RoleID{"weekday-free-time"},
//	})
//	fmt.Println(d.Allowed) // true
//
// # Layers
//
// The facade re-exports the full stack:
//
//   - the core model (System, roles, permissions, sessions, SoD,
//     confidence-gated partial authentication);
//   - the policy language (CompilePolicy / BuildPolicy) for declarative,
//     homeowner-readable policies;
//   - the environment engine (NewEnvironmentStore / NewEnvironmentEngine)
//     for time-, state-, and location-activated environment roles;
//   - the temporal expression language (ParsePeriod);
//   - the simulated Aware Home (NewHousehold) used by the examples and the
//     paper-reproduction experiments.
//
// Deeper integrations (event bus, sensors, audit, persistence, the HTTP
// policy decision point) live in the corresponding internal packages and
// are exercised by the cmd/ tools; see README.md for the map.
//
// # Lock-free mediation and decision caching
//
// Mutating calls — role and hierarchy edits, grants and revocations,
// assignments, session changes, configuration — compile the policy into an
// immutable snapshot (role IDs interned to dense integers, role closures as
// bitsets, permissions pre-bucketed per transaction) that is published
// atomically, so Decide, CheckAccess, and DecideBatch mediate without
// taking any lock and scale linearly with concurrent callers. Decide also
// memoizes its results in a bounded, lock-free cache keyed by (subject,
// session, object, transaction, credential set, resolved environment
// snapshot). Every cache entry is stamped with the snapshot's monotonic
// generation, so one mutation invalidates all cached decisions at once and
// a warm hit is always byte-identical to what a fresh computation would
// return. DecideBatch answers many requests against one snapshot, making
// each batch internally consistent even under concurrent mutation, and the
// review queries WhoCan and WhatCan evaluate every candidate against one
// snapshot the same way, with no lock held. The snapshot is the only
// evaluator: the map-based interpreter it replaced is kept in the test
// suite alone, as the reference the snapshot is checked against.
// System.Stats reports hit/miss/eviction/invalidation counters; tune or
// disable the cache with WithDecisionCacheSize and WithoutDecisionCache.
// See DESIGN.md for the consistency argument.
package grbac

import (
	"time"

	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/environment"
	"github.com/aware-home/grbac/internal/home"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/temporal"
)

// Core model types.
type (
	// System is the GRBAC policy store and decision engine.
	System = core.System
	// Role is a subject, object, or environment role.
	Role = core.Role
	// RoleID names a role.
	RoleID = core.RoleID
	// RoleKind distinguishes subject, object, and environment roles.
	RoleKind = core.RoleKind
	// SubjectID names a user.
	SubjectID = core.SubjectID
	// ObjectID names a resource.
	ObjectID = core.ObjectID
	// TransactionID names a transaction.
	TransactionID = core.TransactionID
	// Transaction is a named series of accesses.
	Transaction = core.Transaction
	// Access is one step of a transaction.
	Access = core.Access
	// Action is a primitive access verb.
	Action = core.Action
	// Permission is one authorization rule over a role triple.
	Permission = core.Permission
	// Effect is Permit or Deny.
	Effect = core.Effect
	// Request is one access-mediation question.
	Request = core.Request
	// Decision is an explained mediation outcome.
	Decision = core.Decision
	// BatchResult pairs one DecideBatch item's decision with its error.
	BatchResult = core.BatchResult
	// Match is one permission that applied to a request.
	Match = core.Match
	// Credential is authentication evidence with a confidence level.
	Credential = core.Credential
	// CredentialSet accompanies partially authenticated requests.
	CredentialSet = core.CredentialSet
	// SessionID names a login session.
	SessionID = core.SessionID
	// SessionInfo is a read-only session snapshot.
	SessionInfo = core.SessionInfo
	// SoDConstraint is a separation-of-duty constraint.
	SoDConstraint = core.SoDConstraint
	// SoDKind is StaticSoD or DynamicSoD.
	SoDKind = core.SoDKind
	// ConflictStrategy resolves permit/deny conflicts.
	ConflictStrategy = core.ConflictStrategy
	// State is a serializable policy snapshot.
	State = core.State
	// Option configures NewSystem.
	Option = core.Option
	// EnvironmentSource supplies active environment roles to a System.
	EnvironmentSource = core.EnvironmentSource
	// Clock is a System's time source: it reads the time and arms the
	// timers of a replica puller replicating into the System.
	Clock = clock.Clock
	// Stats is a snapshot of the decision-cache counters.
	Stats = core.Stats
)

// Role kinds.
const (
	SubjectRole     = core.SubjectRole
	ObjectRole      = core.ObjectRole
	EnvironmentRole = core.EnvironmentRole
)

// Effects.
const (
	Permit = core.Permit
	Deny   = core.Deny
)

// Separation-of-duty kinds.
const (
	StaticSoD  = core.StaticSoD
	DynamicSoD = core.DynamicSoD
)

// Wildcards.
const (
	AnySubject     = core.AnySubject
	AnyObject      = core.AnyObject
	AnyEnvironment = core.AnyEnvironment
	AnyTransaction = core.AnyTransaction
)

// Sentinel errors.
var (
	ErrNotFound      = core.ErrNotFound
	ErrExists        = core.ErrExists
	ErrCycle         = core.ErrCycle
	ErrStaticSoD     = core.ErrStaticSoD
	ErrDynamicSoD    = core.ErrDynamicSoD
	ErrNotAuthorized = core.ErrNotAuthorized
	ErrInvalid       = core.ErrInvalid
	ErrNoSession     = core.ErrNoSession
)

// NewSystem returns an empty GRBAC system with deny-overrides conflict
// resolution.
func NewSystem(opts ...Option) *System { return core.NewSystem(opts...) }

// WithConflictStrategy sets the role-precedence strategy.
func WithConflictStrategy(cs ConflictStrategy) Option { return core.WithConflictStrategy(cs) }

// WithMinConfidence sets the system-wide authentication threshold.
func WithMinConfidence(t float64) Option { return core.WithMinConfidence(t) }

// WithEnvironmentSource installs the provider of active environment roles.
func WithEnvironmentSource(src EnvironmentSource) Option { return core.WithEnvironmentSource(src) }

// WithClock overrides the system's time source (nil keeps the real clock).
func WithClock(c Clock) Option { return core.WithClock(c) }

// WithDecisionCacheSize bounds the decision cache to n entries; n <= 0
// disables caching entirely.
func WithDecisionCacheSize(n int) Option { return core.WithDecisionCacheSize(n) }

// WithoutDecisionCache disables decision memoization; every Decide call
// runs the full mediation rule.
func WithoutDecisionCache() Option { return core.WithoutDecisionCache() }

// Conflict strategies.
type (
	// DenyOverrides makes any matching deny win (the default).
	DenyOverrides = core.DenyOverrides
	// PermitOverrides makes any matching permit win.
	PermitOverrides = core.PermitOverrides
	// MostSpecificWins lets the deepest subject role decide.
	MostSpecificWins = core.MostSpecificWins
)

// SimpleTransaction builds a one-step transaction from a verb.
func SimpleTransaction(verb string) Transaction { return core.SimpleTransaction(verb) }

// IdentityCredential asserts "this is subject s" with a confidence level.
func IdentityCredential(s SubjectID, confidence float64, source string) Credential {
	return core.IdentityCredential(s, confidence, source)
}

// RoleCredential asserts "the requester holds role r" with a confidence
// level — the paper's sensor-to-role authentication path.
func RoleCredential(r RoleID, confidence float64, source string) Credential {
	return core.RoleCredential(r, confidence, source)
}

// Policy language.
type (
	// CompiledPolicy is a checked policy ready to apply.
	CompiledPolicy = policy.Compiled
	// PolicyDiagnostic is a static-analysis finding.
	PolicyDiagnostic = policy.Diagnostic
)

// CompilePolicy parses and checks policy-language source.
func CompilePolicy(src string) (*CompiledPolicy, error) { return policy.Compile(src) }

// BuildPolicy compiles source and returns a wired system and environment
// engine over a private, empty attribute store.
func BuildPolicy(src string, opts ...Option) (*System, *EnvironmentEngine, error) {
	return policy.Build(src, opts...)
}

// BuildPolicyWithStore is BuildPolicy with a caller-supplied environment
// store, for applications that feed live attributes (locations, sensor
// facts, system load) to the policy's environment roles.
func BuildPolicyWithStore(src string, store *EnvironmentStore, opts ...Option) (*System, *EnvironmentEngine, error) {
	return policy.BuildWithStore(src, store, opts...)
}

// Environment engine.
type (
	// EnvironmentEngine evaluates environment role activation.
	EnvironmentEngine = environment.Engine
	// EnvironmentStore holds the live environment attribute snapshot.
	EnvironmentStore = environment.Store
	// EnvironmentCondition defines when an environment role is active.
	EnvironmentCondition = environment.Condition
)

// EnvironmentValue is a typed environment attribute value.
type EnvironmentValue = environment.Value

// EnvString builds a string attribute value.
func EnvString(s string) EnvironmentValue { return environment.String(s) }

// EnvNumber builds a numeric attribute value.
func EnvNumber(n float64) EnvironmentValue { return environment.Number(n) }

// EnvBool builds a boolean attribute value.
func EnvBool(b bool) EnvironmentValue { return environment.Bool(b) }

// NewEnvironmentStore builds an empty attribute store.
func NewEnvironmentStore() *EnvironmentStore { return environment.NewStore() }

// NewEnvironmentEngine builds an engine over a store.
func NewEnvironmentEngine(store *EnvironmentStore) *EnvironmentEngine {
	return environment.NewEngine(store)
}

// Temporal expressions.
type (
	// Period is a (possibly periodic) set of instants.
	Period = temporal.Period
)

// ParsePeriod reads a period expression such as
// "weekly mon-fri and daily 19:00-22:00".
func ParsePeriod(src string) (Period, error) { return temporal.Parse(src) }

// Aware Home simulation.
type (
	// Household is the fully wired simulated Aware Home.
	Household = home.Household
)

// NewHousehold assembles the paper's standard household with its default
// policy, simulated clock, sensors, and trusted event log.
func NewHousehold(start time.Time) (*Household, error) { return home.NewHousehold(start) }

// DefaultHomePolicy is the complete Aware Home policy from the paper's §3
// and §5 examples, in policy-language source form.
const DefaultHomePolicy = home.DefaultPolicy
