package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// roleSetModel is the map-based model of the subject, object and session
// role sets that TestFlatRoleSetsTwin holds a System's sorted slices to.
type roleSetModel struct {
	subjects map[SubjectID]map[RoleID]bool
	objects  map[ObjectID]map[RoleID]bool
	sessions map[SessionID]*modelSession
}

type modelSession struct {
	subject SubjectID
	active  map[RoleID]bool
}

func setOf(roles ...RoleID) map[RoleID]bool {
	out := make(map[RoleID]bool, len(roles))
	for _, r := range roles {
		out[r] = true
	}
	return out
}

func sortedKeys(set map[RoleID]bool) []RoleID {
	out := make([]RoleID, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// prune drops from every session of sub (every session when sub is empty)
// the active roles outside its subject's authorized closure, as
// RevokeSubjectRole and Replace do. The closure comes from s's graph,
// which the twin does not model.
func (m *roleSetModel) prune(s *System, sub SubjectID) {
	for _, sess := range m.sessions {
		if sub != "" && sess.subject != sub {
			continue
		}
		authorized := s.subjectRoles.closure(sortedKeys(m.subjects[sess.subject]))
		for r := range sess.active {
			if !authorized[r] {
				delete(sess.active, r)
			}
		}
	}
}

// check holds s to the model: every record's role set sorted and
// duplicate-free, Export's subjects and objects and every session's
// active set equal to the model's.
func (m *roleSetModel) check(t *testing.T, s *System) {
	t.Helper()
	isSet := func(set []RoleID) bool {
		for i := 1; i < len(set); i++ {
			if set[i-1] >= set[i] {
				return false
			}
		}
		return true
	}
	s.mu.RLock()
	for id, rec := range s.subjects {
		if !isSet(rec.roles) {
			t.Fatalf("subject %q roles %v: not a sorted duplicate-free set", id, rec.roles)
		}
	}
	for id, rec := range s.objects {
		if !isSet(rec.roles) {
			t.Fatalf("object %q roles %v: not a sorted duplicate-free set", id, rec.roles)
		}
	}
	for id, sess := range s.sessions {
		if !isSet(sess.active) {
			t.Fatalf("session %q active %v: not a sorted duplicate-free set", id, sess.active)
		}
	}
	s.mu.RUnlock()

	var subjects []SubjectState
	for id, roles := range m.subjects {
		subjects = append(subjects, SubjectState{ID: id, Roles: sortedKeys(roles)})
	}
	sort.Slice(subjects, func(i, j int) bool { return subjects[i].ID < subjects[j].ID })
	var objects []ObjectState
	for id, roles := range m.objects {
		objects = append(objects, ObjectState{ID: id, Roles: sortedKeys(roles)})
	}
	sort.Slice(objects, func(i, j int) bool { return objects[i].ID < objects[j].ID })
	st := s.Export()
	if !reflect.DeepEqual(st.Subjects, subjects) {
		t.Fatalf("Export subjects %+v, model %+v", st.Subjects, subjects)
	}
	if !reflect.DeepEqual(st.Objects, objects) {
		t.Fatalf("Export objects %+v, model %+v", st.Objects, objects)
	}
	infos := s.Sessions()
	if len(infos) != len(m.sessions) {
		t.Fatalf("%d sessions, model %d", len(infos), len(m.sessions))
	}
	for _, si := range infos {
		ms, ok := m.sessions[si.ID]
		if !ok || si.Subject != ms.subject || !reflect.DeepEqual(si.Active, sortedKeys(ms.active)) {
			t.Fatalf("session %+v, model %+v", si, ms)
		}
	}
}

// TestFlatRoleSetsTwin drives seeded random sequences of every operation
// that writes a subject, object or session role set — assign and revoke
// (duplicates and absent roles included), RemoveRole cascades, activation
// and deactivation, hierarchy edits, subject bundle export, removal and
// restore, Replace with shuffled and repeated role lists, and
// Import/Export round trips —
// and after every step holds the System to a map-based model and every
// probe decision, raw and through Decide, to the reference interpreter.
func TestFlatRoleSetsTwin(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runRoleSetTwin(t, seed, 120) })
	}
}

func runRoleSetTwin(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	s := NewSystem()
	subjRoles := []RoleID{"sr0", "sr1", "sr2", "sr3", "sr4", "sr5"}
	objRoles := []RoleID{"or0", "or1", "or2"}
	addSubjRole := func(i int) {
		r := Role{ID: subjRoles[i], Kind: SubjectRole}
		if i > 0 && rng.Intn(2) == 0 {
			if p := subjRoles[rng.Intn(i)]; s.subjectRoles.roles[p] != nil {
				r.Parents = []RoleID{p}
			}
		}
		mustOK(s.AddRole(r))
	}
	for i := range subjRoles {
		addSubjRole(i)
	}
	for _, r := range objRoles {
		mustOK(s.AddRole(Role{ID: r, Kind: ObjectRole}))
	}
	for _, r := range []RoleID{"er0", "er1"} {
		mustOK(s.AddRole(Role{ID: r, Kind: EnvironmentRole}))
	}
	subjects := []SubjectID{"u0", "u1", "u2", "u3"}
	objects := []ObjectID{"o0", "o1"}
	txs := []TransactionID{"use", "read"}
	m := &roleSetModel{
		subjects: map[SubjectID]map[RoleID]bool{},
		objects:  map[ObjectID]map[RoleID]bool{},
		sessions: map[SessionID]*modelSession{},
	}
	for _, sub := range subjects {
		mustOK(s.AddSubject(sub))
		m.subjects[sub] = setOf()
	}
	for _, obj := range objects {
		mustOK(s.AddObject(obj))
		m.objects[obj] = setOf()
	}
	for _, tx := range txs {
		mustOK(s.AddTransaction(SimpleTransaction(string(tx))))
	}
	grant := func() {
		p := Permission{
			Subject: subjRoles[rng.Intn(len(subjRoles))], Object: objRoles[rng.Intn(len(objRoles))],
			Environment: []RoleID{"er0", "er1", AnyEnvironment}[rng.Intn(3)],
			Transaction: []TransactionID{"use", "read", AnyTransaction}[rng.Intn(3)],
			Effect:      Effect(1 + rng.Intn(2)),
		}
		_ = s.Grant(p) // a leg naming a removed role is refused
	}
	for i := 0; i < 12; i++ {
		grant()
	}

	pickSubject := func() SubjectID { return append(subjects, "ghost")[rng.Intn(len(subjects)+1)] }
	pickSubjRole := func() RoleID { return append(subjRoles, "ghost-role")[rng.Intn(len(subjRoles)+1)] }
	pickObjRole := func() RoleID { return append(objRoles, "ghost-role")[rng.Intn(len(objRoles)+1)] }
	pickSession := func() SessionID {
		ids := []SessionID{"no-such-session"}
		for id := range m.sessions {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids[rng.Intn(len(ids))]
	}
	// shuffled returns roles in random order with one of them repeated.
	shuffled := func(roles []RoleID) []RoleID {
		out := slices.Clone(roles)
		if len(out) > 0 {
			out = append(out, out[rng.Intn(len(out))])
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	hasSubjRole := func(r RoleID) bool { _, ok := s.subjectRoles.get(r); return ok }
	hasObjRole := func(r RoleID) bool { _, ok := s.objectRoles.get(r); return ok }
	expect := func(op string, err error, ok bool) {
		t.Helper()
		if (err == nil) != ok {
			t.Fatalf("seed %d: %s: error %v, model expected success %v", seed, op, err, ok)
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(14); op {
		case 0, 1:
			sub, r := pickSubject(), pickSubjRole()
			if op == 0 {
				ok := m.subjects[sub] != nil && hasSubjRole(r)
				expect("AssignSubjectRole", s.AssignSubjectRole(sub, r), ok)
				if ok {
					m.subjects[sub][r] = true
				}
			} else {
				ok := m.subjects[sub][r]
				expect("RevokeSubjectRole", s.RevokeSubjectRole(sub, r), ok)
				if ok {
					delete(m.subjects[sub], r)
					m.prune(s, sub)
				}
			}
		case 2, 3:
			obj, r := append(objects, "ghost")[rng.Intn(len(objects)+1)], pickObjRole()
			if op == 2 {
				ok := m.objects[obj] != nil && hasObjRole(r)
				expect("AssignObjectRole", s.AssignObjectRole(obj, r), ok)
				if ok {
					m.objects[obj][r] = true
				}
			} else {
				ok := m.objects[obj][r]
				expect("RevokeObjectRole", s.RevokeObjectRole(obj, r), ok)
				if ok {
					delete(m.objects[obj], r)
				}
			}
		case 4:
			i := rng.Intn(len(subjRoles))
			r := subjRoles[i]
			if !hasSubjRole(r) {
				addSubjRole(i)
				grant()
				break
			}
			mustOK(s.RemoveRole(SubjectRole, r))
			for _, roles := range m.subjects {
				delete(roles, r)
			}
			for _, sess := range m.sessions {
				delete(sess.active, r)
			}
		case 5:
			r := objRoles[rng.Intn(len(objRoles))]
			if !hasObjRole(r) {
				mustOK(s.AddRole(Role{ID: r, Kind: ObjectRole}))
				grant()
				break
			}
			mustOK(s.RemoveRole(ObjectRole, r))
			for _, roles := range m.objects {
				delete(roles, r)
			}
		case 6:
			sub := pickSubject()
			id, err := s.CreateSession(sub)
			expect("CreateSession", err, m.subjects[sub] != nil)
			if err == nil {
				m.sessions[id] = &modelSession{subject: sub, active: setOf()}
			}
		case 7:
			id := pickSession()
			expect("CloseSession", s.CloseSession(id), m.sessions[id] != nil)
			delete(m.sessions, id)
		case 8:
			// Mostly a role the session's subject is authorized for, so
			// that sessions hold roles a later edit can unauthorize.
			id, r := pickSession(), pickSubjRole()
			ms := m.sessions[id]
			ok := false
			if ms != nil {
				authorized := s.subjectRoles.closure(sortedKeys(m.subjects[ms.subject]))
				if keys := sortedKeys(authorized); len(keys) > 0 && rng.Intn(4) > 0 {
					r = keys[rng.Intn(len(keys))]
				}
				ok = authorized[r]
			}
			expect("ActivateRole", s.ActivateRole(id, r), ok)
			if ok {
				ms.active[r] = true
			}
		case 9:
			id, r := pickSession(), pickSubjRole()
			ms := m.sessions[id]
			ok := ms != nil && ms.active[r]
			expect("DeactivateRole", s.DeactivateRole(id, r), ok)
			if ok {
				delete(ms.active, r)
			}
		case 10:
			// Migrate a subject away and back: export its bundle, remove
			// it, restore the bundle with its lists shuffled and
			// repeated. The model does not move.
			sub := subjects[rng.Intn(len(subjects))]
			b, err := s.ExportSubject(sub)
			mustOK(err)
			mustOK(s.RemoveSubject(sub))
			b.Subject.Roles = shuffled(b.Subject.Roles)
			for i := range b.Sessions {
				b.Sessions[i].Active = shuffled(b.Sessions[i].Active)
			}
			mustOK(s.RestoreSubject(b))
		case 11:
			// Install a new bundle over a live subject: roles drawn with
			// repeats (absent ones make the restore fail whole), one
			// session activating roles it may not be authorized for.
			sub := subjects[rng.Intn(len(subjects))]
			var roles, active []RoleID
			for i := rng.Intn(4); i > 0; i-- {
				roles = append(roles, pickSubjRole())
				active = append(active, pickSubjRole())
			}
			id := SessionID(fmt.Sprintf("mig-%d", step))
			b := SubjectBundle{
				Subject:  SubjectState{ID: sub, Roles: roles},
				Sessions: []SessionInfo{{ID: id, Subject: sub, Active: active}},
			}
			ok := !slices.ContainsFunc(roles, func(r RoleID) bool { return !hasSubjRole(r) })
			expect("RestoreSubject", s.RestoreSubject(b), ok)
			if ok {
				m.subjects[sub] = setOf(roles...)
				for sid, ms := range m.sessions {
					if ms.subject == sub {
						delete(m.sessions, sid)
					}
				}
				m.sessions[id] = &modelSession{subject: sub, active: setOf(active...)}
				m.prune(s, sub)
			}
		case 12:
			// Round trips: a fresh import of the export exports the same
			// state, and Replace with shuffled, repeated lists changes no
			// role set but prunes sessions to their authorized closure.
			st := s.Export()
			fresh := NewSystem()
			mustOK(fresh.Import(st))
			if got := fresh.Export(); !reflect.DeepEqual(got, st) {
				t.Fatalf("seed %d: Import/Export round trip:\n got %+v\nwant %+v", seed, got, st)
			}
			for i := range st.Subjects {
				st.Subjects[i].Roles = shuffled(st.Subjects[i].Roles)
			}
			for i := range st.Objects {
				st.Objects[i].Roles = shuffled(st.Objects[i].Roles)
			}
			mustOK(s.Replace(st))
			m.prune(s, "")
		case 13:
			// Flip a hierarchy edge. Sessions keep what they activated
			// until a revoke or a Replace prunes them.
			j := rng.Intn(len(subjRoles) - 1)
			child, parent := subjRoles[j+1+rng.Intn(len(subjRoles)-j-1)], subjRoles[j]
			if !hasSubjRole(child) || !hasSubjRole(parent) {
				break
			}
			if r, _ := s.Role(SubjectRole, child); slices.Contains(r.Parents, parent) {
				mustOK(s.RemoveRoleParent(SubjectRole, child, parent))
			} else {
				mustOK(s.AddRoleParent(SubjectRole, child, parent))
			}
		}
		m.check(t, s)
		checkDecisionsAgainstInterpreter(t, s, subjects, objects, txs, m)
	}
}

// checkDecisionsAgainstInterpreter decides every subject × object ×
// transaction probe, sessionless and in each of the subject's sessions,
// on the snapshot and through Decide, and requires the reference
// interpreter's decision and error text.
func checkDecisionsAgainstInterpreter(t *testing.T, s *System, subjects []SubjectID, objects []ObjectID, txs []TransactionID, m *roleSetModel) {
	t.Helper()
	var probes []Request
	for _, sub := range subjects {
		for _, obj := range objects {
			for _, tx := range txs {
				base := Request{Subject: sub, Object: obj, Transaction: tx, Environment: []RoleID{"er0"}}
				probes = append(probes, base)
				for id, ms := range m.sessions {
					if ms.subject == sub {
						req := base
						req.Session = id
						probes = append(probes, req)
					}
				}
			}
		}
	}
	sn := s.currentSnapshot()
	for _, req := range probes {
		s.mu.RLock()
		want, werr := s.decideLocked(req)
		s.mu.RUnlock()
		for _, got := range []func() (Decision, error){
			func() (Decision, error) { return walk(sn, req) },
			func() (Decision, error) { return s.Decide(req) },
		} {
			d, err := got()
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) || !reflect.DeepEqual(d, want) {
				t.Fatalf("%+v:\n interpreter %+v (%v)\n snapshot    %+v (%v)", req, want, werr, d, err)
			}
		}
	}
}
