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
	// must belong to Subject; with Subject empty the request mediates as
	// the session's owner, exactly as if it had named that subject.
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
// Verdicts are memoized in a bounded, generation-stamped, lock-free cache
// keyed by (subject, session, object, transaction, credential set,
// resolved environment snapshot), and a hit rebuilds its Decision from the
// compiled snapshot. An entry is stamped with one of two generations: a
// request naming a session with the generation every mutating call bumps,
// a sessionless one with the generation of the last mutation that was not
// a session change, since it never reads a session. So a session change
// retires only entries that name a session, and any other mutation
// retires every entry. Errors are never cached.
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

// envBufWords sizes the stack buffer a decision's environment bitset lives
// in: environment universes of up to 256 roles need no allocation.
const envBufWords = 4

// decideOn mediates one request against a compiled snapshot. A cache hit
// keeps the walk's verdict and reads every role set back from the
// snapshot, which has the stamp of the entry; a sessionless entry may come
// from an earlier snapshot with the same policy generation, whose buckets
// were compiled from the same permissions, so its matched positions still
// hold. A miss walks and memoizes its verdict. Either way the fail-safe
// annotation is made (and counted) for this call, against the context as
// it is now.
func (s *System) decideOn(sn *snapshot, req Request) (Decision, error) {
	// live records whether this request consults the system's environment
	// source: only then can a deny be the fail-safe product of expired
	// context rather than of the caller's explicit environment.
	live := req.Environment == nil && sn.envSource != nil
	req.Environment = sn.activeEnv(req.Environment)
	var envBuf [envBufWords]uint64
	bucket, rs, err := sn.roles(req, envBuf[:])
	if err != nil {
		return Decision{}, err
	}
	var v verdict
	var matches []Match
	h, e := s.cached(sn.stamp(req.Session), &req)
	if e != nil {
		v, matches = e.v, matchesOf(bucket, e.v.matched, &rs)
	} else {
		v, matches = sn.judge(&req, bucket, &rs)
		s.memoize(h, sn.stamps, &req, v)
	}
	d := sn.decision(v, matches, &rs)
	if live && annotateFailSafe(&d, sn.envSource) {
		s.failSafeDenies.Add(1)
	}
	return d, nil
}

// cached hashes a request whose environment is resolved and returns the
// cache's entry for it, counting the hit on the calling goroutine's
// stripe. The entry is shared: read, never written. Without a cache there
// is nothing to hash.
func (s *System) cached(gen uint64, req *Request) (uint64, *cacheEntry) {
	if s.cache == nil {
		return 0, nil
	}
	h := hashRequest(req)
	e := s.cache.find(h, gen, req)
	if e != nil {
		s.stripe().hits.Add(1)
	}
	return h, e
}

// memoize counts a miss that mediation answered and stores its verdict,
// counting a displaced live entry as an eviction. A request rejected with
// an error reaches neither counter.
func (s *System) memoize(h uint64, st stamps, req *Request, v verdict) {
	if s.cache == nil {
		return
	}
	s.stripe().misses.Add(1)
	if s.cache.put(h, st, req, v) {
		s.decEvictions.Add(1)
	}
}

// CheckAccess is the boolean form of Decide. A warm cache hit reads only
// the stored outcome: no role set, no Decision, zero allocations. It
// returns no reason, so it neither annotates nor counts a fail-safe deny.
func (s *System) CheckAccess(req Request) (bool, error) {
	sn := s.currentSnapshot()
	req.Environment = sn.activeEnv(req.Environment)
	h, e := s.cached(sn.stamp(req.Session), &req)
	if e != nil {
		return e.v.allowed, nil
	}
	var envBuf [envBufWords]uint64
	bucket, rs, err := sn.roles(req, envBuf[:])
	if err != nil {
		return false, err
	}
	v, _ := sn.judge(&req, bucket, &rs)
	s.memoize(h, sn.stamps, &req, v)
	return v.allowed, nil
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
