package core

import (
	"math"
	"sync/atomic"
)

// defaultDecisionCacheSize bounds the decision cache when no explicit
// WithDecisionCacheSize option is given.
const defaultDecisionCacheSize = 8192

// Stats is a point-in-time snapshot of the memoization layer: the decision
// cache's hit/miss/eviction counters, the number of invalidations (policy
// mutations), and the current generation. The PDP server exposes it at
// GET /v1/statsz.
type Stats struct {
	// Generation is the monotonic policy version. Every mutating call
	// (role edits, grants, assignments, session changes, configuration)
	// bumps it. A session change retires only the cached decisions of
	// requests that name a session; any other mutation retires them all.
	Generation uint64 `json:"generation"`
	// DecisionHits counts Decide calls answered from the cache.
	DecisionHits uint64 `json:"decision_hits"`
	// DecisionMisses counts Decide calls that ran the full mediation rule.
	// A request rejected with an error is neither a hit nor a miss.
	DecisionMisses uint64 `json:"decision_misses"`
	// DecisionEvictions counts entries displaced by the capacity bound.
	DecisionEvictions uint64 `json:"decision_evictions"`
	// Invalidations counts generation bumps.
	Invalidations uint64 `json:"invalidations"`
	// SnapshotCompiles counts lazy policy-snapshot recompilations: the
	// first post-mutation Decide pays one compile and publishes it.
	SnapshotCompiles uint64 `json:"snapshot_compiles"`
	// FailSafeDenies counts Decide results (DecideBatch's included)
	// annotated as fail-safe denies: denials mediated against the live
	// environment source while it reported expired context. A cache hit
	// counts like a miss; CheckAccess returns no reason and counts none.
	FailSafeDenies uint64 `json:"fail_safe_denies"`
	// DecisionEntries is the number of entries currently cached.
	DecisionEntries int `json:"decision_entries"`
	// DecisionCapacity is the cache's entry bound; 0 means caching is
	// disabled.
	DecisionCapacity int `json:"decision_capacity"`
}

// decisionCache is the bounded memo behind System.Decide: one fixed,
// set-associative table of atomically published entries, so the lock-free
// mediation path takes no lock and writes no shared memory on a hit. A
// request's hash selects a set of at most four adjacent slots; a lookup
// loads them, and an entry whose hash agrees is confirmed by full field
// comparison, so a hash collision is just a miss, never a wrong answer.
// Entries are immutable once published and are stamped with the generation
// they were computed at (see stamps); they are treated as absent once that
// generation moves on, so invalidation is a single counter bump with no
// scanning.
type decisionCache struct {
	// slots holds ways consecutive slots per set; len(slots) is the entry
	// bound and never exceeds the configured capacity.
	slots []atomic.Pointer[cacheEntry]
	ways  uint64
	mask  uint64 // number of sets - 1; the set count is a power of two
}

// cacheEntry keeps the full key material next to the verdict: the request
// hash, subject, session, object, transaction, a defensive copy of the
// credential set (nil-ness preserved — a nil set means "fully trusted" and
// must not alias an empty one), and a copy of the resolved environment in
// the order the caller listed it, so a caller repeating its order is
// confirmed element by element. The verdict's reason and matched positions
// are never handed out, so the entry shares them with nobody who writes.
type cacheEntry struct {
	hash        uint64
	gen         uint64
	subject     SubjectID
	session     SessionID
	object      ObjectID
	transaction TransactionID
	creds       CredentialSet
	env         []RoleID
	v           verdict
}

// stamps are the two generations a compiled snapshot was judged at: gen,
// which every mutation bumps, and policyGen, the generation of the last
// mutation that was not a session change. A request naming a session reads
// that session's active roles, so its entry is stamped with gen; a
// sessionless request reads no session, so its entry is stamped with
// policyGen and stays live across session churn.
type stamps struct {
	gen       uint64
	policyGen uint64
}

// stamp is the generation an entry for a request naming session is stored
// and looked up at.
func (st stamps) stamp(session SessionID) uint64 {
	if session == "" {
		return st.policyGen
	}
	return st.gen
}

func newDecisionCache(capacity int) *decisionCache {
	ways := min(4, capacity)
	sets := 1
	for sets*2*ways <= capacity {
		sets *= 2
	}
	return &decisionCache{
		slots: make([]atomic.Pointer[cacheEntry], sets*ways),
		ways:  uint64(ways),
		mask:  uint64(sets - 1),
	}
}

// set returns the slots a request hashing to h may occupy.
func (c *decisionCache) set(h uint64) []atomic.Pointer[cacheEntry] {
	i := (h & c.mask) * c.ways
	return c.slots[i : i+c.ways]
}

// matches confirms that a hash hit really is this request at this stamp.
func (e *cacheEntry) matches(gen uint64, req *Request) bool {
	return e.gen == gen &&
		e.subject == req.Subject &&
		e.session == req.Session &&
		e.object == req.Object &&
		e.transaction == req.Transaction &&
		credsEqual(e.creds, req.Credentials) &&
		envEqual(req.Environment, e.env)
}

// find returns the entry stored under h at stamp gen for this exact
// request, or nil. The entry is shared and immutable: callers only read it.
func (c *decisionCache) find(h, gen uint64, req *Request) *cacheEntry {
	set := c.set(h)
	for i := range set {
		if e := set[i].Load(); e != nil && e.hash == h && e.matches(gen, req) {
			return e
		}
	}
	return nil
}

// put publishes a verdict judged at st, stamped as st.stamp(req.Session).
// One digest keeps one slot: the way already holding h is replaced first,
// then an empty way is taken, then one whose entry is dead at st (stamped
// below what a lookup of its own kind would use); only when every way holds
// a live entry is one displaced, picked by the hash's high bits, and put
// reports that eviction. Racing puts into one set may overwrite each other,
// which loses a memo and nothing else. The entry owns defensive copies of
// the request fields it keeps.
func (c *decisionCache) put(h uint64, st stamps, req *Request, v verdict) (evicted bool) {
	e := &cacheEntry{
		hash:        h,
		gen:         st.stamp(req.Session),
		subject:     req.Subject,
		session:     req.Session,
		object:      req.Object,
		transaction: req.Transaction,
		creds:       cloneCreds(req.Credentials),
		env:         cloneRoleIDs(req.Environment),
		v:           v,
	}
	const live, dead, empty, same = 0, 1, 2, 3
	set := c.set(h)
	victim, best := &set[(h>>32)%c.ways], live
	for i := range set {
		rank := live
		switch old := set[i].Load(); {
		case old == nil:
			rank = empty
		case old.hash == h:
			rank = same
		case old.gen < st.stamp(old.session):
			rank = dead
		}
		if rank > best {
			victim, best = &set[i], rank
		}
	}
	victim.Store(e)
	return best == live
}

// size counts occupied slots; only Stats pays for the scan.
func (c *decisionCache) size() int {
	n := 0
	for i := range c.slots {
		if c.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// FNV-1a parameters for the request digest.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashString folds s into h, FNV-1a over the bytes followed by the length
// so adjacent fields cannot run together.
func hashString[T ~string](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= uint64(len(s))
	h *= fnvPrime
	return h
}

func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// hashRequest digests everything a decision depends on besides the policy
// store itself. It never allocates — that keeps warm CheckAccess hits at
// zero allocs/op. The environment roles are each hashed independently and
// combined commutatively (summed), so the digest — like envEqual, which
// confirms it — is insensitive to the order the caller listed the active
// roles in. A nil credential set (identity fully trusted) digests
// differently from an empty one.
func hashRequest(req *Request) uint64 {
	h := hashString(fnvOffset, req.Subject)
	h = hashString(h, req.Session)
	h = hashString(h, req.Object)
	h = hashString(h, req.Transaction)
	if req.Credentials == nil {
		h ^= 't'
		h *= fnvPrime
	} else {
		h ^= 'c'
		h *= fnvPrime
		for _, c := range req.Credentials {
			h = hashString(h, c.Subject)
			h = hashString(h, c.Role)
			h = hashUint64(h, math.Float64bits(c.Confidence))
		}
	}
	var env uint64
	for _, r := range req.Environment {
		env += hashString(fnvOffset, r)
	}
	return hashUint64(h, env)
}

// credsEqual compares credential sets on the fields a decision depends on
// (Source is provenance only), distinguishing nil from empty.
func credsEqual(a, b CredentialSet) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Subject != b[i].Subject ||
			a[i].Role != b[i].Role ||
			a[i].Confidence != b[i].Confidence {
			return false
		}
	}
	return true
}

// envEqual reports whether the request's environment roles are the same
// multiset as the stored ones, without allocating: a request listing them
// in the stored order is answered element-wise, and a permuted one falls
// back to an in-place count comparison.
func envEqual(req, stored []RoleID) bool {
	if len(req) != len(stored) {
		return false
	}
	same := true
	for i := range req {
		if req[i] != stored[i] {
			same = false
			break
		}
	}
	if same {
		return true
	}
	for i, x := range req {
		dup := false
		for j := 0; j < i; j++ {
			if req[j] == x {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		ca, cb := 0, 0
		for _, y := range req {
			if y == x {
				ca++
			}
		}
		for _, y := range stored {
			if y == x {
				cb++
			}
		}
		if ca != cb {
			return false
		}
	}
	return true
}

func cloneCreds(cs CredentialSet) CredentialSet {
	if cs == nil {
		return nil
	}
	out := make(CredentialSet, len(cs))
	copy(out, cs)
	return out
}

func cloneRoleIDs(in []RoleID) []RoleID {
	if in == nil {
		return nil
	}
	out := make([]RoleID, len(in))
	copy(out, in)
	return out
}
