package core

import (
	"fmt"
	"math/bits"
	"slices"
)

// This file is the compiled, immutable form of the policy store and the
// one evaluator of the mediation rule: Decide, CheckAccess, DecideBatch and
// the review queries all run against it. Mutations invalidate the published
// snapshot (see invalidateLocked); the first reader after an invalidation
// recompiles under the read lock and republishes via System.snap, so the
// read path never takes s.mu. The rule's per-request set work is
// precomputed bitset operations:
//
//   - every role ID of each kind is interned to a dense uint32 index over
//     the sorted role list, so a role set is a bitset and set union is a
//     word-wise OR;
//   - the upward closure of every role (and of every subject's assigned
//     set, session's active set, and object's classification) is
//     precomputed as a bitset, and the subjects', sessions' and objects'
//     bitsets are cut from one arena per compile;
//   - each permission is resolved once and bucketed per transaction, the
//     AnyTransaction ones pre-merged into every bucket in grant order, with
//     the confidence threshold and subject-role depth baked into each
//     entry.

// bitset is a fixed-width bit vector over interned role indices.
type bitset []uint64

// bitsetWords is the width in words of a bitset over n indices.
func bitsetWords(n int) int { return (n + 63) >> 6 }

// cut returns the bitset of the given width at word offset off of an
// arena. Its capacity ends where it does, so no bitset reaches into its
// neighbour.
func cut(arena []uint64, off uint32, words int) bitset {
	end := int(off) + words
	return bitset(arena[off:end:end])
}

func (b bitset) set(i uint32)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i uint32) bool { return b[i>>6]&(1<<(i&63)) != 0 }

func (b bitset) or(o bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEach calls fn with every set index in ascending order. Because
// universes intern roles in sorted ID order, ascending index order is
// sorted role order.
func (b bitset) forEach(fn func(uint32)) {
	for wi, w := range b {
		for w != 0 {
			fn(uint32(wi<<6 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// roleUniverse interns every role of one kind (plus the wildcard IDs that
// can appear on that leg) to a dense index, with the upward closure of each
// role precomputed as a bitset.
type roleUniverse struct {
	index map[RoleID]uint32
	// names is sorted ascending, so bit i ↔ names[i] and bitset iteration
	// yields sorted role lists for free.
	names    []RoleID
	closures []bitset
	// depths holds the longest generalization chain above each role, 0
	// for a wildcard.
	depths []int
	// graph marks the indices that are real graph roles (as opposed to
	// interned wildcards): only those confer membership through hierarchy
	// or credentials.
	graph bitset
}

func newRoleUniverse(g *roleGraph, wildcards ...RoleID) *roleUniverse {
	names := make([]RoleID, 0, len(g.roles)+len(wildcards))
	for id := range g.roles {
		names = append(names, id)
	}
	for _, w := range wildcards {
		if _, ok := g.roles[w]; !ok {
			names = append(names, w)
		}
	}
	slices.Sort(names)
	words := bitsetWords(len(names))
	arena := make([]uint64, (len(names)+1)*words)
	u := &roleUniverse{
		index:    make(map[RoleID]uint32, len(names)),
		names:    names,
		closures: make([]bitset, len(names)),
		depths:   make([]int, len(names)),
		graph:    cut(arena, 0, words),
	}
	for i, id := range names {
		u.index[id] = uint32(i)
		u.depths[i] = g.depth(id)
	}
	for i, id := range names {
		b := cut(arena, uint32((i+1)*words), words)
		if cl, ok := g.closures[id]; ok {
			u.graph.set(uint32(i))
			for r := range cl {
				b.set(u.index[r])
			}
		} else {
			b.set(uint32(i)) // wildcard: its closure is itself
		}
		u.closures[i] = b
	}
	return u
}

// namesOf materializes a bitset as a sorted role list.
func (u *roleUniverse) namesOf(b bitset) []RoleID {
	out := make([]RoleID, 0, b.count())
	b.forEach(func(i uint32) { out = append(out, u.names[i]) })
	return out
}

// compiledPerm is one permission with its legs resolved to interned
// indices, the effective confidence threshold (max of the permission's and
// the system's) and the subject-role depth baked in.
type compiledPerm struct {
	p Permission
	permLegs
}

// permLegs is what a compile resolves of one permission.
type permLegs struct {
	subj      uint32
	obj       uint32
	env       uint32
	threshold float64
	depth     int
}

// sessionBits locates a session's bitset, its active role set closed
// upward plus AnySubject, with the owning subject for the ownership check.
type sessionBits struct {
	subject SubjectID
	off     uint32
}

// snapshot is one immutable compiled policy version. Everything reachable
// from it is written once at compile time and read-only afterwards, so any
// number of goroutines can decide against it without synchronization.
type snapshot struct {
	stamps
	strategy     ConflictStrategy
	strategyName string
	threshold    float64
	envSource    EnvironmentSource

	subjU *roleUniverse
	objU  *roleUniverse
	envU  *roleUniverse

	anySubj uint32
	anyObj  uint32
	anyEnv  uint32

	// arena holds every subject, session and object bitset, each at the
	// word offset its map names: a subject's assigned role set and a
	// session's active set closed upward plus AnySubject, subjWords wide,
	// and an object's classification closed upward plus AnyObject,
	// objWords wide. One allocation per compile, however many entities.
	arena     []uint64
	subjWords int
	objWords  int
	subjects  map[SubjectID]uint32
	sessions  map[SessionID]sessionBits
	objects   map[ObjectID]uint32
	// buckets holds, per registered transaction, the compiled permissions
	// naming it or AnyTransaction, pre-merged in grant order. Membership in
	// the map doubles as the transaction-existence check.
	buckets map[TransactionID][]compiledPerm
}

// subjectBits returns the bitset at a subject or session offset.
func (sn *snapshot) subjectBits(off uint32) bitset { return cut(sn.arena, off, sn.subjWords) }

// objectBits returns the bitset at an object offset.
func (sn *snapshot) objectBits(off uint32) bitset { return cut(sn.arena, off, sn.objWords) }

// compileSnapshotLocked builds a snapshot of the current policy store. The
// caller must hold s.mu (read or write).
func (s *System) compileSnapshotLocked() *snapshot {
	sn := &snapshot{
		stamps:       stamps{gen: s.gen, policyGen: s.policyGen},
		strategy:     s.strategy,
		strategyName: s.strategy.Name(),
		threshold:    s.threshold,
		envSource:    s.envSource,
		subjU:        newRoleUniverse(s.subjectRoles, AnySubject),
		objU:         newRoleUniverse(s.objectRoles, AnyObject),
		// The environment leg admits any wildcard a request names
		// verbatim, so the environment universe interns all three.
		envU: newRoleUniverse(s.envRoles, AnySubject, AnyObject, AnyEnvironment),
	}
	sn.anySubj = sn.subjU.index[AnySubject]
	sn.anyObj = sn.objU.index[AnyObject]
	sn.anyEnv = sn.envU.index[AnyEnvironment]

	sn.subjWords = bitsetWords(len(sn.subjU.names))
	sn.objWords = bitsetWords(len(sn.objU.names))
	sn.arena = make([]uint64, (len(s.subjects)+len(s.sessions))*sn.subjWords+len(s.objects)*sn.objWords)
	var off uint32
	closed := func(u *roleUniverse, words int, roles []RoleID, any uint32) uint32 {
		at := off
		b := cut(sn.arena, at, words)
		for _, r := range roles {
			b.or(u.closures[u.index[r]])
		}
		b.set(any)
		off += uint32(words)
		return at
	}

	sn.subjects = make(map[SubjectID]uint32, len(s.subjects))
	for id, rec := range s.subjects {
		sn.subjects[id] = closed(sn.subjU, sn.subjWords, rec.roles, sn.anySubj)
	}
	sn.sessions = make(map[SessionID]sessionBits, len(s.sessions))
	for id, sess := range s.sessions {
		sn.sessions[id] = sessionBits{subject: sess.subject, off: closed(sn.subjU, sn.subjWords, sess.active, sn.anySubj)}
	}
	sn.objects = make(map[ObjectID]uint32, len(s.objects))
	for id, rec := range s.objects {
		sn.objects[id] = closed(sn.objU, sn.objWords, rec.roles, sn.anyObj)
	}

	s.compileBucketsLocked(sn)
	return sn
}

// compileBucketsLocked resolves every permission once and lays out each
// registered transaction's bucket, in grant order, in one shared array.
// Permissions whose legs name roles that exist in no universe, or whose
// transaction is not registered (both possible via Import, which validates
// shape but not reference existence), can never match and are dropped
// here.
func (s *System) compileBucketsLocked(sn *snapshot) {
	type resolution struct {
		permLegs
		ok bool
	}
	resolved := make([]resolution, len(s.perms))
	n := 0
	for i, p := range s.perms {
		si, ok := sn.subjU.index[p.Subject]
		if !ok {
			continue
		}
		oi, ok := sn.objU.index[p.Object]
		if !ok {
			continue
		}
		ei, ok := sn.envU.index[p.Environment]
		if !ok {
			continue
		}
		if p.Transaction == AnyTransaction {
			n += len(s.transactions)
		} else if _, ok := s.transactions[p.Transaction]; ok {
			n++
		} else {
			continue
		}
		threshold := p.MinConfidence
		if s.threshold > threshold {
			threshold = s.threshold
		}
		depth := -1
		if p.Subject != AnySubject {
			depth = sn.subjU.depths[si]
		}
		resolved[i] = resolution{permLegs{subj: si, obj: oi, env: ei, threshold: threshold, depth: depth}, true}
	}
	all := make([]compiledPerm, 0, n)
	sn.buckets = make(map[TransactionID][]compiledPerm, len(s.transactions))
	for tx := range s.transactions {
		start := len(all)
		for i, p := range s.perms {
			if r := &resolved[i]; r.ok && (p.Transaction == tx || p.Transaction == AnyTransaction) {
				all = append(all, compiledPerm{p: p, permLegs: r.permLegs})
			}
		}
		sn.buckets[tx] = all[start:len(all):len(all)]
	}
}

// roleSets is one request's effective role sets against a snapshot: the
// subject leg as effectiveSubjectConfs returns it, the object's closure and
// the active environment's.
type roleSets struct {
	uniform bitset
	confs   []float64
	obj     bitset
	env     bitset
}

// conf is the confidence the subject leg establishes for subject role i.
func (rs *roleSets) conf(i uint32) float64 {
	if rs.confs != nil {
		return rs.confs[i]
	}
	if rs.uniform.has(i) {
		return 1
	}
	return 0
}

// roles validates a request and resolves the transaction's bucket and the
// request's effective role sets, in the order the differential test in
// snapshot_test.go holds against the reference interpreter. The
// environment bitset lives in envBuf when it is wide enough.
func (sn *snapshot) roles(req Request, envBuf bitset) ([]compiledPerm, roleSets, error) {
	if err := req.Credentials.Validate(); err != nil {
		return nil, roleSets{}, err
	}
	bucket, obj, err := sn.target(req.Transaction, req.Object)
	if err != nil {
		return nil, roleSets{}, err
	}
	if req.Subject == "" && req.Session != "" {
		// A session has exactly one owner: naming the session names it.
		sess, ok := sn.sessions[req.Session]
		if !ok {
			return nil, roleSets{}, fmt.Errorf("%w: %q", ErrNoSession, req.Session)
		}
		req.Subject = sess.subject
	}
	if req.Subject == "" && len(req.Credentials) == 0 {
		return nil, roleSets{}, fmt.Errorf("%w: request must carry a subject or credentials", ErrInvalid)
	}
	uniform, confs, err := sn.effectiveSubjectConfs(req)
	if err != nil {
		return nil, roleSets{}, err
	}
	return bucket, roleSets{uniform, confs, obj, sn.effectiveEnvBits(req.Environment, envBuf)}, nil
}

// verdict is what the mediation rule (paper §4.2.4) concluded for one
// request at one snapshot: the outcome, the reason before any fail-safe
// annotation, and the positions of the matched permissions in the
// transaction's bucket. It holds no role set, since the snapshot that
// judged it can give those back, so it is what the decision cache keeps.
type verdict struct {
	allowed     bool
	defaultDeny bool
	effect      Effect
	reason      string
	matched     []uint32
}

// judge walks the bucket for one request's role sets and renders the
// verdict, with the matches the conflict strategy resolved.
func (sn *snapshot) judge(req *Request, bucket []compiledPerm, rs *roleSets) (verdict, []Match) {
	matched, matches, effect := sn.mediate(bucket, rs)
	v := verdict{allowed: effect == Permit, defaultDeny: len(matched) == 0, effect: effect, matched: matched}
	if v.defaultDeny {
		v.reason = fmt.Sprintf("no permission matches transaction %q on object %q: default deny",
			req.Transaction, req.Object)
	} else {
		v.reason = fmt.Sprintf("%d matching permission(s) resolved to %s by %s",
			len(matched), effect, sn.strategyName)
	}
	return v, matches
}

// decision builds the Decision a verdict of this snapshot stands for. A
// walk and a cache hit both end here, so a hit is built exactly as the
// miss it memoized was.
func (sn *snapshot) decision(v verdict, matches []Match, rs *roleSets) Decision {
	return Decision{
		Allowed:          v.allowed,
		Effect:           v.effect,
		DefaultDeny:      v.defaultDeny,
		Matches:          matches,
		Strategy:         sn.strategyName,
		Reason:           v.reason,
		SubjectRoles:     sn.subjectRoleMap(rs.uniform, rs.confs),
		ObjectRoles:      sn.objU.namesOf(rs.obj),
		EnvironmentRoles: sn.envU.namesOf(rs.env),
	}
}

// target resolves the permission bucket of a transaction and the role bits
// of an object, rejecting an unnamed or unknown one of either.
func (sn *snapshot) target(tx TransactionID, obj ObjectID) ([]compiledPerm, bitset, error) {
	if tx == "" {
		return nil, nil, fmt.Errorf("%w: request must name a transaction", ErrInvalid)
	}
	bucket, ok := sn.buckets[tx]
	if !ok {
		return nil, nil, fmt.Errorf("%w: transaction %q", ErrNotFound, tx)
	}
	if obj == "" {
		return nil, nil, fmt.Errorf("%w: request must name an object", ErrInvalid)
	}
	off, ok := sn.objects[obj]
	if !ok {
		return nil, nil, fmt.Errorf("%w: object %q", ErrNotFound, obj)
	}
	return bucket, sn.objectBits(off), nil
}

// mediate is the match-and-resolve step of the rule, shared by Decide and
// the review queries: it collects, in grant order, the positions in bucket
// of the permissions the three effective role sets satisfy, materializes
// them as matches and resolves those with the conflict strategy. No match
// is Deny.
func (sn *snapshot) mediate(bucket []compiledPerm, rs *roleSets) ([]uint32, []Match, Effect) {
	var matched []uint32
	for i := range bucket {
		cp := &bucket[i]
		if conf := rs.conf(cp.subj); conf <= 0 || conf < cp.threshold {
			continue
		}
		if rs.obj.has(cp.obj) && rs.env.has(cp.env) {
			matched = append(matched, uint32(i))
		}
	}
	if len(matched) == 0 {
		return nil, nil, Deny
	}
	matches := matchesOf(bucket, matched, rs)
	return matched, matches, sn.strategy.Resolve(matches)
}

// matchesOf materializes the bucket's permissions at the given positions,
// each at the confidence the subject leg establishes for its role.
func matchesOf(bucket []compiledPerm, matched []uint32, rs *roleSets) []Match {
	if len(matched) == 0 {
		return nil
	}
	out := make([]Match, len(matched))
	for k, i := range matched {
		cp := &bucket[i]
		out[k] = Match{
			Permission:      cp.p,
			SubjectRole:     cp.p.Subject,
			ObjectRole:      cp.p.Object,
			EnvironmentRole: cp.p.Environment,
			Confidence:      rs.conf(cp.subj),
			SubjectDepth:    cp.depth,
		}
	}
	return out
}

// effectiveSubjectConfs computes the effective subject role set. The fully
// trusted case (nil credentials with a known subject) is returned as a bare
// bitset — confidence 1 everywhere — avoiding the per-role confidence
// vector; otherwise a dense confidence vector indexed by the subject
// universe is returned.
func (sn *snapshot) effectiveSubjectConfs(req Request) (bitset, []float64, error) {
	if req.Subject != "" {
		off, ok := sn.subjects[req.Subject]
		if !ok {
			return nil, nil, fmt.Errorf("%w: subject %q", ErrNotFound, req.Subject)
		}
		usable := sn.subjectBits(off)
		if req.Session != "" {
			sess, ok := sn.sessions[req.Session]
			if !ok {
				return nil, nil, fmt.Errorf("%w: %q", ErrNoSession, req.Session)
			}
			if sess.subject != req.Subject {
				return nil, nil, fmt.Errorf("%w: session %q belongs to %q, not %q",
					ErrInvalid, req.Session, sess.subject, req.Subject)
			}
			usable = sn.subjectBits(sess.off)
		}
		if req.Credentials == nil {
			return usable, nil, nil // identity fully trusted: confidence 1
		}
		confs := make([]float64, len(sn.subjU.names))
		if ic := req.Credentials.identityConfidence(req.Subject); ic > 0 {
			usable.forEach(func(i uint32) { confs[i] = ic })
		}
		sn.addRoleCredentials(confs, req.Credentials)
		confs[sn.anySubj] = 1
		return nil, confs, nil
	}
	confs := make([]float64, len(sn.subjU.names))
	sn.addRoleCredentials(confs, req.Credentials)
	confs[sn.anySubj] = 1
	return nil, confs, nil
}

// addRoleCredentials folds direct role assertions into the confidence
// vector, spreading each over the asserted role's upward closure with
// max-confidence merge. Unknown asserted roles confer nothing (deny-safe).
func (sn *snapshot) addRoleCredentials(confs []float64, creds CredentialSet) {
	for _, c := range creds {
		if c.Role == "" || c.Confidence <= 0 {
			continue
		}
		idx, ok := sn.subjU.index[c.Role]
		if !ok || !sn.subjU.graph.has(idx) {
			continue
		}
		conf := c.Confidence
		sn.subjU.closures[idx].forEach(func(i uint32) {
			if conf > confs[i] {
				confs[i] = conf
			}
		})
	}
}

// activeEnv is the environment a request is mediated against: its own,
// else the snapshot's environment source's, else the shared empty set. A
// cache key carries it resolved, because the live source sits outside the
// generation counter's reach.
func (sn *snapshot) activeEnv(env []RoleID) []RoleID {
	if env == nil && sn.envSource != nil {
		env = sn.envSource.ActiveEnvironmentRoles()
	}
	if env == nil {
		return emptyEnv
	}
	return env
}

// effectiveEnvBits resolves the closure of the active environment roles,
// in buf when it is wide enough. Known roles contribute their upward
// closure, wildcards pass verbatim, unknown roles are dropped (deny-safe),
// and AnyEnvironment is always active.
func (sn *snapshot) effectiveEnvBits(active []RoleID, buf bitset) bitset {
	var b bitset
	if n := bitsetWords(len(sn.envU.names)); n <= cap(buf) {
		b = buf[:n]
		clear(b)
	} else {
		b = make(bitset, n)
	}
	for _, r := range active {
		idx, ok := sn.envU.index[r]
		if !ok {
			continue
		}
		if sn.envU.graph.has(idx) {
			b.or(sn.envU.closures[idx])
		} else if isWildcard(r) {
			b.set(idx)
		}
	}
	b.set(sn.anyEnv)
	return b
}

// subjectRoleMap materializes the effective subject roles with their
// confidences for Decision.SubjectRoles.
func (sn *snapshot) subjectRoleMap(uniform bitset, confs []float64) map[RoleID]float64 {
	if confs != nil {
		out := make(map[RoleID]float64)
		for i, c := range confs {
			if c > 0 {
				out[sn.subjU.names[i]] = c
			}
		}
		return out
	}
	out := make(map[RoleID]float64, uniform.count())
	uniform.forEach(func(i uint32) { out[sn.subjU.names[i]] = 1 })
	return out
}
