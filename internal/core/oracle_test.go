package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// oracleDecide is an independent, deliberately naive implementation of the
// paper's §4.2.4 mediation rule, built only from the system's exported
// snapshot: compute the three closures by brute force, collect matching
// permissions in grant order, and resolve with the same strategy. It
// shares no code with System.Decide beyond the Permission type, so
// agreement between the two is strong evidence the engine implements the
// model (and not just itself).
func oracleDecide(st State, strategy ConflictStrategy, threshold float64, req Request) bool {
	// Brute-force upward closure over a role list.
	parents := func(roles []Role) map[RoleID][]RoleID {
		out := make(map[RoleID][]RoleID, len(roles))
		for _, r := range roles {
			out[r.ID] = r.Parents
		}
		return out
	}
	closure := func(seeds []RoleID, edges map[RoleID][]RoleID) map[RoleID]bool {
		set := make(map[RoleID]bool)
		var visit func(RoleID)
		visit = func(id RoleID) {
			if set[id] {
				return
			}
			set[id] = true
			for _, p := range edges[id] {
				visit(p)
			}
		}
		for _, s := range seeds {
			visit(s)
		}
		return set
	}

	// Subject roles with confidences.
	subjEdges := parents(st.SubjectRoles)
	subjConf := make(map[RoleID]float64)
	identity := 0.0
	if req.Subject != "" {
		if req.Credentials == nil {
			identity = 1
		} else {
			for _, c := range req.Credentials {
				if c.Subject == req.Subject && c.Confidence > identity {
					identity = c.Confidence
				}
			}
		}
		for _, sub := range st.Subjects {
			if sub.ID != req.Subject {
				continue
			}
			for r := range closure(sub.Roles, subjEdges) {
				if identity > subjConf[r] {
					subjConf[r] = identity
				}
			}
		}
	}
	known := make(map[RoleID]bool, len(st.SubjectRoles))
	for _, r := range st.SubjectRoles {
		known[r.ID] = true
	}
	for _, c := range req.Credentials {
		if c.Role == "" || !known[c.Role] {
			continue
		}
		for r := range closure([]RoleID{c.Role}, subjEdges) {
			if c.Confidence > subjConf[r] {
				subjConf[r] = c.Confidence
			}
		}
	}
	subjConf[AnySubject] = 1

	// Object roles.
	objEdges := parents(st.ObjectRoles)
	objSet := map[RoleID]bool{AnyObject: true}
	for _, obj := range st.Objects {
		if obj.ID != req.Object {
			continue
		}
		for r := range closure(obj.Roles, objEdges) {
			objSet[r] = true
		}
	}

	// Environment roles.
	envEdges := parents(st.EnvironmentRoles)
	knownEnv := make(map[RoleID]bool, len(st.EnvironmentRoles))
	for _, r := range st.EnvironmentRoles {
		knownEnv[r.ID] = true
	}
	var envSeeds []RoleID
	for _, e := range req.Environment {
		if knownEnv[e] {
			envSeeds = append(envSeeds, e)
		}
	}
	envSet := closure(envSeeds, envEdges)
	envSet[AnyEnvironment] = true

	// Matching and resolution.
	var matches []Match
	for _, p := range st.Permissions {
		if p.Transaction != AnyTransaction && p.Transaction != req.Transaction {
			continue
		}
		conf, ok := subjConf[p.Subject]
		if !ok || conf <= 0 {
			continue
		}
		min := p.MinConfidence
		if threshold > min {
			min = threshold
		}
		if conf < min || !objSet[p.Object] || !envSet[p.Environment] {
			continue
		}
		// Depth for MostSpecificWins: longest chain above the role.
		depth := -1
		if p.Subject != AnySubject {
			var chain func(RoleID) int
			chain = func(id RoleID) int {
				best := 0
				for _, parent := range subjEdges[id] {
					if d := chain(parent) + 1; d > best {
						best = d
					}
				}
				return best
			}
			depth = chain(p.Subject)
		}
		matches = append(matches, Match{Permission: p, SubjectRole: p.Subject,
			Confidence: conf, SubjectDepth: depth})
	}
	if len(matches) == 0 {
		return false
	}
	return strategy.Resolve(matches) == Permit
}

// TestDecideAgreesWithOracle cross-checks System.Decide against the
// independent oracle on random policies, probe sets, credentials, and all
// three conflict strategies.
func TestDecideAgreesWithOracle(t *testing.T) {
	strategies := []ConflictStrategy{DenyOverrides{}, PermitOverrides{}, MostSpecificWins{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, probes := buildRandomPolicy(rng)
		strategy := strategies[rng.Intn(len(strategies))]
		s.SetConflictStrategy(strategy)
		threshold := 0.0
		if rng.Intn(2) == 0 {
			threshold = float64(rng.Intn(100)) / 100
			if err := s.SetMinConfidence(threshold); err != nil {
				return false
			}
		}
		st := s.Export()
		for _, req := range probes {
			// Half the probes carry partial-auth credentials.
			if rng.Intn(2) == 0 {
				req.Credentials = CredentialSet{
					IdentityCredential(req.Subject, float64(rng.Intn(101))/100, "x"),
				}
				if rng.Intn(2) == 0 {
					req.Credentials = append(req.Credentials,
						RoleCredential(RoleID("sr0"), float64(rng.Intn(101))/100, "x"))
				}
			}
			d, err := s.Decide(req)
			if err != nil {
				t.Logf("Decide error: %v", err)
				return false
			}
			want := oracleDecide(st, strategy, threshold, req)
			if d.Allowed != want {
				t.Logf("divergence on %+v: engine=%v oracle=%v (strategy %s, threshold %v)",
					req, d.Allowed, want, strategy.Name(), threshold)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCachedDecideMatchesUncachedTwinAcrossMutations replays randomized
// mutation/decision interleavings against a cached system and, after every
// mutation batch, rebuilds an uncached twin from the exported state and
// compares full decisions on every probe — twice on the cached system so
// both the miss and the hit path are checked. This is the differential
// guard against stale-cache bugs: a mutator that forgets to bump the
// generation, or a key that under-discriminates, shows up as a divergence.
// Session changes are on the menu and every open session is probed, so
// both stamps are checked: sessionless entries that outlive a session
// change, and session-naming entries that must not.
func TestCachedDecideMatchesUncachedTwinAcrossMutations(t *testing.T) {
	strategies := []ConflictStrategy{DenyOverrides{}, PermitOverrides{}, MostSpecificWins{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, probes := buildRandomPolicy(rng)
		strategy := strategies[rng.Intn(len(strategies))]
		s.SetConflictStrategy(strategy)

		roles := []RoleID{"sr0", "sr1"}
		objRoles := []RoleID{"or0", "or1"}
		envRoles := []RoleID{"er0", "er1"}
		txs := []TransactionID{"use", "read"}
		subjects := []SubjectID{"u0", "u1", "u2"}
		objects := []ObjectID{"o0", "o1"}
		extraRoles := 0
		// session picks an open session at random, or reports none.
		session := func() (SessionInfo, bool) {
			open := s.Sessions()
			if len(open) == 0 {
				return SessionInfo{}, false
			}
			return open[rng.Intn(len(open))], true
		}

		// agree compares cached (miss then hit) against a fresh uncached
		// twin. Export carries no sessions, so each subject's open sessions
		// are mirrored into the twin under their exact IDs and probed.
		agree := func() bool {
			twin := NewSystem(WithoutDecisionCache())
			if err := twin.Import(s.Export()); err != nil {
				t.Logf("Import: %v", err)
				return false
			}
			twin.SetConflictStrategy(strategy)
			reqs := append([]Request(nil), probes...)
			for _, sub := range subjects {
				b, err := s.ExportSubject(sub)
				if err != nil {
					t.Logf("ExportSubject: %v", err)
					return false
				}
				if err := twin.RestoreSubject(b); err != nil {
					t.Logf("RestoreSubject: %v", err)
					return false
				}
				for i, si := range b.Sessions {
					for _, tx := range txs {
						env := []RoleID{}
						if i%2 == 0 {
							env = append(env, envRoles[0])
						}
						reqs = append(reqs, Request{Subject: sub, Session: si.ID,
							Object: objects[i%len(objects)], Transaction: tx, Environment: env})
					}
				}
			}
			for _, req := range reqs {
				d1, err1 := s.Decide(req)
				d2, err2 := s.Decide(req)
				ref, errRef := twin.Decide(req)
				if (err1 == nil) != (err2 == nil) || (err1 == nil) != (errRef == nil) {
					t.Logf("error disagreement on %+v: %v / %v / %v", req, err1, err2, errRef)
					return false
				}
				if err1 != nil {
					continue
				}
				if !reflect.DeepEqual(d1, d2) {
					t.Logf("miss/hit divergence on %+v:\n%+v\n%+v", req, d1, d2)
					return false
				}
				if !reflect.DeepEqual(d1, ref) {
					t.Logf("cached/uncached divergence on %+v:\ncached   %+v\nuncached %+v", req, d1, ref)
					return false
				}
			}
			return true
		}

		if !agree() {
			return false
		}
		// Interleave random mutations with full differential checks. The
		// mutation menu deliberately covers grants, revocations, hierarchy
		// edits, assignment churn, threshold changes and session churn;
		// errors from redundant, cyclic or unauthorized edits are expected
		// and ignored.
		for step := 0; step < 10; step++ {
			switch rng.Intn(11) {
			case 0:
				_ = s.Grant(Permission{
					Subject:     roles[rng.Intn(len(roles))],
					Object:      objRoles[rng.Intn(len(objRoles))],
					Environment: envRoles[rng.Intn(len(envRoles))],
					Transaction: txs[rng.Intn(len(txs))],
					Effect:      Effect(1 + rng.Intn(2)),
				})
			case 1:
				if perms := s.Permissions(); len(perms) > 0 {
					_ = s.Revoke(perms[rng.Intn(len(perms))])
				}
			case 2:
				id := RoleID(fmt.Sprintf("xr%d", extraRoles))
				extraRoles++
				if s.AddRole(Role{ID: id, Kind: SubjectRole,
					Parents: []RoleID{roles[rng.Intn(len(roles))]}}) == nil {
					roles = append(roles, id)
				}
			case 3:
				_ = s.AssignSubjectRole(subjects[rng.Intn(len(subjects))], roles[rng.Intn(len(roles))])
			case 4:
				_ = s.RevokeSubjectRole(subjects[rng.Intn(len(subjects))], roles[rng.Intn(len(roles))])
			case 5:
				_ = s.AddRoleParent(SubjectRole, roles[rng.Intn(len(roles))], roles[rng.Intn(len(roles))])
			case 6:
				_ = s.SetMinConfidence(float64(rng.Intn(100)) / 100)
			case 7:
				_, _ = s.CreateSession(subjects[rng.Intn(len(subjects))])
			case 8:
				if si, ok := session(); ok {
					_ = s.ActivateRole(si.ID, roles[rng.Intn(len(roles))])
				}
			case 9:
				if si, ok := session(); ok && len(si.Active) > 0 {
					_ = s.DeactivateRole(si.ID, si.Active[rng.Intn(len(si.Active))])
				}
			case 10:
				if si, ok := session(); ok {
					_ = s.CloseSession(si.ID)
				}
			}
			if !agree() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
