package core

import (
	"fmt"
	"sort"
	"strings"
)

// Request is one access-mediation question: may this subject run this
// transaction on this object, given this authentication evidence and this
// environment?
type Request struct {
	// Subject identifies the requester. It may be empty when the
	// requester is known only through role credentials (paper §5.2: the
	// Smart Floor may know "a child is present" without knowing which).
	Subject SubjectID
	// Session, when set, restricts the usable subject roles to the
	// session's active role set (role activation, §4.1.2). The session
	// must belong to Subject.
	Session SessionID
	// Object is the target resource.
	Object ObjectID
	// Transaction is the requested transaction.
	Transaction TransactionID
	// Credentials is the authentication evidence. A nil set means the
	// requester's identity is fully trusted (confidence 1), the
	// convenient default for non-sensor deployments.
	Credentials CredentialSet
	// Environment, when non-nil, is the set of active environment roles
	// to mediate against. Nil means "ask the system's EnvironmentSource";
	// an explicitly empty non-nil slice means "no environment roles are
	// active".
	Environment []RoleID
}

// Decision is the outcome of mediating one Request, with enough structure
// to explain itself (§3 requires "generation of appropriate feedback").
type Decision struct {
	// Allowed reports whether access is granted.
	Allowed bool
	// Effect is the resolved effect; Deny when nothing matched.
	Effect Effect
	// DefaultDeny is true when no permission matched at all, so Effect is
	// the closed-world default rather than a rule outcome.
	DefaultDeny bool
	// Matches lists every permission that applied, with role bindings.
	Matches []Match
	// Strategy names the conflict strategy that resolved the matches.
	Strategy string
	// Reason is a human-readable, single-line explanation.
	Reason string
	// SubjectRoles is the effective subject role set with the confidence
	// each role was established at.
	SubjectRoles map[RoleID]float64
	// ObjectRoles is the effective object role set.
	ObjectRoles []RoleID
	// EnvironmentRoles is the effective active environment role set.
	EnvironmentRoles []RoleID
}

// Decide evaluates the GRBAC access-mediation rule (paper §4.2.4): access
// is considered for every (subject role, object role, environment role)
// triple the request can establish, matching permissions are collected, and
// conflicts between positive and negative authorizations are resolved by
// the installed ConflictStrategy. No matching permission means deny.
//
// Decide takes no lock: it loads the current compiled policy snapshot
// (recompiling it under the read lock only on the first call after a
// mutation) and evaluates bitset closures against it, so concurrent
// mediation scales with cores instead of serializing on the policy mutex.
//
// Decisions are memoized in a bounded, generation-stamped, lock-free cache
// keyed by (subject, session, object, transaction, credential set,
// resolved environment snapshot); any mutating call invalidates every
// entry by bumping the generation. Errors are never cached.
func (s *System) Decide(req Request) (Decision, error) {
	return s.decideOn(s.currentSnapshot(), req)
}

// BatchResult pairs one batched request's decision with its error.
type BatchResult struct {
	Decision Decision
	Err      error
}

// DecideBatch mediates many requests against one consistent policy
// version: the compiled snapshot is loaded once and every request in the
// batch is decided against it, amortizing the per-request overhead and
// guaranteeing no mutation interleaves mid-batch. Per-request errors are
// reported in place; the result slice is index-aligned with reqs.
func (s *System) DecideBatch(reqs []Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	sn := s.currentSnapshot()
	for i, r := range reqs {
		out[i].Decision, out[i].Err = s.decideOn(sn, r)
	}
	return out
}

// emptyEnv is the shared resolved form of "no environment roles active";
// it is never mutated or retained by decisions.
var emptyEnv = []RoleID{}

// annotateFailSafe appends the fail-safe explanation to a denial mediated
// against a live environment source that reports expired context: stale
// attributes read as absent, so environment roles over them deactivate and
// the request falls through to deny. The annotation makes that chain
// visible — Decision.Explain and the audit trail can distinguish a
// freshness (fail-safe) deny from an ordinary policy deny. Allowed
// decisions are never annotated: fresh-enough context satisfied a
// permission, and the reason must stay the rule that granted it.
func annotateFailSafe(d *Decision, src EnvironmentSource) bool {
	if d.Allowed || src == nil {
		return false
	}
	exp, ok := src.(ExpiringEnvironmentSource)
	if !ok {
		return false
	}
	keys := exp.ExpiredContext()
	if len(keys) == 0 {
		return false
	}
	d.Reason += "; fail-safe: environment context expired (" +
		strings.Join(keys, ", ") + "), roles over stale context are inactive"
	return true
}

// noteFailSafe records one fail-safe-annotated deny in the stats counter
// when annotateFailSafe reports it fired.
func (s *System) noteFailSafe(annotated bool) {
	if annotated {
		s.failSafeDenies.Add(1)
	}
}

// decideOn mediates one request against a compiled snapshot, consulting
// the decision cache keyed by the snapshot's generation.
func (s *System) decideOn(sn *snapshot, req Request) (Decision, error) {
	// live records whether this request consults the system's environment
	// source: only then can a deny be the fail-safe product of expired
	// context rather than of the caller's explicit environment.
	live := req.Environment == nil && sn.envSource != nil
	if s.cache == nil {
		d, err := sn.decide(req)
		if err == nil && live {
			s.noteFailSafe(annotateFailSafe(&d, sn.envSource))
		}
		return d, err
	}
	// Resolve the environment snapshot up front: the cache key must be a
	// pure function of everything the decision depends on, and the live
	// EnvironmentSource sits outside the generation counter's reach.
	resolved := req.Environment
	if live {
		resolved = sn.envSource.ActiveEnvironmentRoles()
	}
	if resolved == nil {
		resolved = emptyEnv
	}
	req.Environment = resolved
	h := hashRequest(&req)
	if e := s.cached(h, sn.gen, &req); e != nil {
		return e.d.clone(), nil
	}
	d, err := sn.decide(req)
	if err != nil {
		return d, err
	}
	if live {
		s.noteFailSafe(annotateFailSafe(&d, sn.envSource))
	}
	s.memoize(h, sn.gen, &req, d)
	return d, nil
}

// cached returns the cache's entry for the request, counting the hit on
// the calling goroutine's stripe. The entry is shared: read, never written.
func (s *System) cached(h, gen uint64, req *Request) *cacheEntry {
	e := s.cache.find(h, gen, req)
	if e != nil {
		s.stripe().hits.Add(1)
	}
	return e
}

// memoize counts a miss that mediation answered and stores its decision,
// counting a displaced live entry as an eviction. A request rejected with
// an error reaches neither counter.
func (s *System) memoize(h, gen uint64, req *Request, d Decision) {
	s.stripe().misses.Add(1)
	if s.cache.put(h, gen, req, d) {
		s.decEvictions.Add(1)
	}
}

// CheckAccess is the boolean convenience form of Decide. Warm cache hits
// take a fast path that reads only the stored outcome — no Decision clone,
// no key construction, zero allocations.
func (s *System) CheckAccess(req Request) (bool, error) {
	if s.cache == nil {
		d, err := s.Decide(req)
		if err != nil {
			return false, err
		}
		return d.Allowed, nil
	}
	sn := s.currentSnapshot()
	live := req.Environment == nil && sn.envSource != nil
	resolved := req.Environment
	if live {
		resolved = sn.envSource.ActiveEnvironmentRoles()
	}
	if resolved == nil {
		resolved = emptyEnv
	}
	req.Environment = resolved
	h := hashRequest(&req)
	if e := s.cached(h, sn.gen, &req); e != nil {
		return e.d.Allowed, nil
	}
	d, err := sn.decide(req)
	if err != nil {
		return false, err
	}
	// Annotate before caching so a later Decide hitting this entry reads
	// the same fail-safe reason a cold Decide would have produced.
	if live {
		s.noteFailSafe(annotateFailSafe(&d, sn.envSource))
	}
	s.memoize(h, sn.gen, &req, d)
	return d.Allowed, nil
}

// Explain renders a multi-line, human-readable account of a decision,
// suitable for the §3 usability requirement of giving homeowners feedback.
func (d Decision) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "decision: %s (%s)\n", d.Effect, d.Reason)
	roles := make([]RoleID, 0, len(d.SubjectRoles))
	for r := range d.SubjectRoles {
		roles = append(roles, r)
	}
	sort.Slice(roles, func(i, j int) bool { return roles[i] < roles[j] })
	for _, r := range roles {
		fmt.Fprintf(&b, "  subject role %q (confidence %.2f)\n", r, d.SubjectRoles[r])
	}
	for _, m := range d.Matches {
		fmt.Fprintf(&b, "  matched: %s %q for (%s, %s, %s) at confidence %.2f\n",
			m.Permission.Effect, m.Permission.Transaction,
			m.SubjectRole, m.ObjectRole, m.EnvironmentRole, m.Confidence)
	}
	return b.String()
}
