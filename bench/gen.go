package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/pdp"
)

// Shape of the shared policy. The request space (subjects × objects ×
// transactions × environment sets) is far larger than core's 8192-entry
// decision cache, so a workload chooses its hit ratio through its hot set.
const (
	numSubjects     = 4096
	numSubjectRoles = 32
	numObjects      = 64
	numObjectRoles  = 16
	numTx           = 8
	numEnv          = 8
	numPerms        = 256
)

// subjectRoleLevels is the depth-4 subject-role hierarchy: every role of
// level L>0 has a parent in level L-1. The last subject role, object role
// and object are set apart for role flips and appear in no random rule.
//
// The shape of the policy is the same for every seed: the hierarchies are
// fixed, and each transaction gets the same number of permissions, denials
// and any-environment rules. The seed draws who holds which role, which
// roles a rule names and which requests are asked, so that two seeds cost
// the system about the same and a run-to-run difference is not the seed's.
var subjectRoleLevels = []int{2, 4, 8, 8, 9}

const (
	flipRoleIdx    = numSubjectRoles - 1
	flipObjRoleIdx = numObjectRoles - 1
	flipObjectIdx  = numObjects - 1
	flipTxIdx      = 0
	flipEnvIdx     = 0
)

type perm struct {
	subj, obj, env, tx int // env < 0 is AnyEnvironment
	deny               bool
}

// world is the generated policy together with the oracle: allowed() is the
// paper's §4.2.4 rule written over bitmasks, independent of internal/core.
type world struct {
	seed      int64
	state     core.State
	subjects  []string
	subjRoles [][]int // direct role assignments per subject
	objects   []string
	roleName  []core.RoleID // subject roles
	txs       []string
	envs      []string
	subjMask  []uint32 // per subject: upward closure over subject roles
	objMask   []uint16 // per object: upward closure over object roles
	permsByTx [numTx][]perm
	subjPerm  []int // seeded permutation of subject indices
}

func idName(prefix string, i, width int) string { return fmt.Sprintf("%s%0*d", prefix, width, i) }

func newWorld(seed int64) *world {
	rng := rand.New(rand.NewSource(seed))
	w := &world{seed: seed}

	// Subject roles: levels, each role under one parent of the level above.
	subjClosure := make([]uint32, numSubjectRoles)
	var levelStart []int
	next := 0
	for _, n := range subjectRoleLevels {
		levelStart = append(levelStart, next)
		next += n
	}
	for level, n := range subjectRoleLevels {
		for k := 0; k < n; k++ {
			i := levelStart[level] + k
			r := core.Role{ID: core.RoleID(idName("sr", i, 2)), Kind: core.SubjectRole}
			subjClosure[i] = 1 << i
			if level > 0 {
				p := levelStart[level-1] + k%subjectRoleLevels[level-1]
				r.Parents = []core.RoleID{core.RoleID(idName("sr", p, 2))}
				subjClosure[i] |= subjClosure[p]
			}
			w.state.SubjectRoles = append(w.state.SubjectRoles, r)
			w.roleName = append(w.roleName, r.ID)
		}
	}
	subjClosure[flipRoleIdx] = 1 << flipRoleIdx
	w.state.SubjectRoles = append(w.state.SubjectRoles,
		core.Role{ID: core.RoleID(idName("sr", flipRoleIdx, 2)), Kind: core.SubjectRole})
	w.roleName = append(w.roleName, core.RoleID(idName("sr", flipRoleIdx, 2)))

	// Object roles: four general roles, the rest specialise one of them.
	objClosure := make([]uint16, numObjectRoles)
	for i := 0; i < numObjectRoles; i++ {
		r := core.Role{ID: core.RoleID(idName("or", i, 2)), Kind: core.ObjectRole}
		objClosure[i] = 1 << i
		if i >= 4 && i != flipObjRoleIdx {
			p := i % 4
			r.Parents = []core.RoleID{core.RoleID(idName("or", p, 2))}
			objClosure[i] |= objClosure[p]
		}
		w.state.ObjectRoles = append(w.state.ObjectRoles, r)
	}
	for i := 0; i < numEnv; i++ {
		w.envs = append(w.envs, idName("env", i, 1))
		w.state.EnvironmentRoles = append(w.state.EnvironmentRoles,
			core.Role{ID: core.RoleID(w.envs[i]), Kind: core.EnvironmentRole})
	}
	for i := 0; i < numTx; i++ {
		w.txs = append(w.txs, idName("tx", i, 1))
		w.state.Transactions = append(w.state.Transactions, core.SimpleTransaction(w.txs[i]))
	}

	for i := 0; i < numSubjects; i++ {
		roles := []int{rng.Intn(flipRoleIdx)}
		if r2 := rng.Intn(flipRoleIdx); rng.Intn(10) < 3 && r2 != roles[0] {
			roles = append(roles, r2)
		}
		st := core.SubjectState{ID: core.SubjectID(idName("u", i, 4))}
		var mask uint32
		for _, r := range roles {
			st.Roles = append(st.Roles, w.roleName[r])
			mask |= subjClosure[r]
		}
		w.subjects = append(w.subjects, string(st.ID))
		w.subjRoles = append(w.subjRoles, roles)
		w.subjMask = append(w.subjMask, mask)
		w.state.Subjects = append(w.state.Subjects, st)
	}
	for i := 0; i < numObjects; i++ {
		role := rng.Intn(flipObjRoleIdx)
		if i == flipObjectIdx {
			role = flipObjRoleIdx
		}
		w.objects = append(w.objects, idName("o", i, 2))
		w.objMask = append(w.objMask, objClosure[role])
		w.state.Objects = append(w.state.Objects, core.ObjectState{
			ID: core.ObjectID(w.objects[i]), Roles: []core.RoleID{core.RoleID(idName("or", role, 2))}})
	}

	// Permissions lean towards general roles so that a good share of
	// requests match some rule; about a tenth are negative.
	add := func(p perm) {
		w.permsByTx[p.tx] = append(w.permsByTx[p.tx], p)
		cp := core.Permission{
			Subject: w.roleName[p.subj], Object: core.RoleID(idName("or", p.obj, 2)),
			Environment: core.AnyEnvironment, Transaction: core.TransactionID(w.txs[p.tx]),
			Effect: core.Permit,
		}
		if p.env >= 0 {
			cp.Environment = core.RoleID(w.envs[p.env])
		}
		if p.deny {
			cp.Effect = core.Deny
		}
		w.state.Permissions = append(w.state.Permissions, cp)
	}
	for i := 0; i < numPerms-1; i++ {
		// Position in the transaction's 32 rules decides the rule's kind.
		tx, slot := i%numTx, i/numTx
		level := rng.Intn(len(subjectRoleLevels))
		if slot%2 == 0 {
			level = rng.Intn(2)
		}
		p := perm{
			subj: levelStart[level] + rng.Intn(subjectRoleLevels[level]),
			obj:  rng.Intn(flipObjRoleIdx),
			env:  rng.Intn(numEnv),
			tx:   tx,
			deny: slot%10 == 9,
		}
		if slot%4 == 1 {
			p.env = -1
		}
		if slot%3 == 0 {
			p.obj = rng.Intn(4)
		}
		add(p)
	}
	add(perm{subj: flipRoleIdx, obj: flipObjRoleIdx, env: flipEnvIdx, tx: flipTxIdx})

	w.subjPerm = rng.Perm(numSubjects)
	return w
}

// allowed is the oracle: deny-overrides over every permission whose role
// triple the request establishes; no match is a deny.
func (w *world) allowed(subjMask uint32, obj, tx int, envMask uint8) bool {
	permit := false
	for _, p := range w.permsByTx[tx] {
		if subjMask&(1<<p.subj) == 0 || w.objMask[obj]&(1<<p.obj) == 0 {
			continue
		}
		if p.env >= 0 && envMask&(1<<p.env) == 0 {
			continue
		}
		if p.deny {
			return false
		}
		permit = true
	}
	return permit
}

// request is one pre-drawn decision in both forms the topologies need, with
// the answer the oracle expects.
type request struct {
	core core.Request
	wire pdp.DecideRequest
	subj int
	want bool
}

func (w *world) buildRequest(subj, obj, tx int, envIdx []int, flipped bool) request {
	r := request{subj: subj}
	r.core = core.Request{
		Subject: core.SubjectID(w.subjects[subj]), Object: core.ObjectID(w.objects[obj]),
		Transaction: core.TransactionID(w.txs[tx]), Environment: make([]core.RoleID, 0, len(envIdx)),
	}
	var envMask uint8
	for _, e := range envIdx {
		r.core.Environment = append(r.core.Environment, core.RoleID(w.envs[e]))
		envMask |= 1 << e
	}
	r.wire = pdp.FromCoreRequest(r.core)
	mask := w.subjMask[subj]
	if flipped {
		mask |= 1 << flipRoleIdx
	}
	r.want = w.allowed(mask, obj, tx, envMask)
	return r
}

// flipRequest is the decision a role flip changes from deny to permit for
// the subject; no other generated request touches the flip object.
func (w *world) flipRequest(subj int, flipped bool) request {
	return w.buildRequest(subj, flipObjectIdx, flipTxIdx, []int{flipEnvIdx}, flipped)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// requestAt derives the request of a rank in a workload's request universe.
// perSubject consecutive ranks share a subject, so a zipf draw over ranks
// is also skewed over subjects.
func (w *world) requestAt(salt, rank uint64, perSubject int) request {
	h := splitmix(uint64(w.seed) ^ salt ^ rank*0x9e3779b97f4a7c15)
	subj := w.subjPerm[(rank/uint64(perSubject))%numSubjects]
	e1 := int(h >> 16 % numEnv)
	env := []int{e1, (e1 + 1 + int(h>>32%(numEnv-1))) % numEnv}
	return w.buildRequest(subj, int(h%flipObjectIdx), int(h>>8%numTx), env, false)
}

// sessionOp marks a stream entry that is a session open+close for the
// subject in the low bits instead of an index into the request table.
const sessionOp = 1 << 31

// traffic describes a workload's decision stream.
type traffic struct {
	zipfS      float64
	universe   uint64 // ranks the zipf draw covers
	perSubject int
	streamLen  int // ops drawn per client; a run cycles through them
	churnEvery int // >0: every n-th op is a session pair on a zipf subject
	salt       uint64
}

// opStream is what a run replays: distinct requests and, per load
// goroutine, the order in which they are asked.
type opStream struct {
	table []request
	ops   [][]uint32
}

func (w *world) drawStream(t traffic, clients int) opStream {
	var s opStream
	index := make(map[uint64]uint32)
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(w.seed ^ int64(t.salt) ^ int64(c+1)<<40))
		zipf := rand.NewZipf(rng, t.zipfS, 1, t.universe-1)
		ops := make([]uint32, t.streamLen)
		for i := range ops {
			rank := zipf.Uint64()
			if t.churnEvery > 0 && i%t.churnEvery == t.churnEvery-1 {
				ops[i] = sessionOp | uint32(w.subjPerm[(rank/uint64(t.perSubject))%numSubjects])
				continue
			}
			at, ok := index[rank]
			if !ok {
				at = uint32(len(s.table))
				index[rank] = at
				s.table = append(s.table, w.requestAt(t.salt, rank, t.perSubject))
			}
			ops[i] = at
		}
		s.ops = append(s.ops, ops)
	}
	return s
}

// writeOp is one entry of the fixed-rate writer's schedule.
type writeOp struct {
	due  time.Duration // from the start of the timed phase
	flip bool
	subj int
}

// writerRates is the open-loop write load that runs beside the decisions.
type writerRates struct {
	sessionsPerSec int
	flipsPerSec    int
}

// drawSchedule lays session pairs and role flips on a fixed grid, flips
// half a period off so the two never fall due together. Flip subjects come
// from pool in order, each used once.
func (w *world) drawSchedule(r writerRates, d time.Duration, pool []int) []writeOp {
	rng := rand.New(rand.NewSource(w.seed ^ 0x5c4ed))
	zipf := rand.NewZipf(rng, 1.2, 1, numSubjects-1)
	var out []writeOp
	if r.sessionsPerSec > 0 {
		step := time.Second / time.Duration(r.sessionsPerSec)
		for t := step; t < d; t += step {
			out = append(out, writeOp{due: t, subj: w.subjPerm[zipf.Uint64()]})
		}
	}
	if r.flipsPerSec > 0 {
		step := time.Second / time.Duration(r.flipsPerSec)
		next := 0
		for t := step / 2; t < d && next < len(pool); t += step {
			out = append(out, writeOp{due: t, flip: true, subj: pool[next]})
			next++
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// flipPool lists the subjects a run may flip, in seeded order, keeping only
// those the topology's reader can observe (the SDK's home shard).
func (w *world) flipPool(owns func(subject string) bool) []int {
	var pool []int
	for i := len(w.subjPerm) - 1; i >= 0; i-- {
		if s := w.subjPerm[i]; owns == nil || owns(w.subjects[s]) {
			pool = append(pool, s)
		}
	}
	return pool
}

// hash fingerprints everything the systems under test will receive.
func (s opStream) hash(schedule []writeOp) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range s.table {
		fmt.Fprintf(h, "%s|%s|%s|%v|%v\n", r.core.Subject, r.core.Object, r.core.Transaction, r.core.Environment, r.want)
	}
	for _, ops := range s.ops {
		for _, op := range ops {
			put(uint64(op))
		}
	}
	for _, op := range schedule {
		put(uint64(op.due))
		put(uint64(op.subj)<<1 | map[bool]uint64{true: 1}[op.flip])
	}
	return hex.EncodeToString(h.Sum(nil))
}
