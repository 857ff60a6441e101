package core

import (
	"fmt"
	"sort"
)

// SubjectState is the serializable record of one subject.
type SubjectState struct {
	ID    SubjectID `json:"id"`
	Roles []RoleID  `json:"roles,omitempty"`
}

// ObjectState is the serializable record of one object.
type ObjectState struct {
	ID    ObjectID `json:"id"`
	Roles []RoleID `json:"roles,omitempty"`
}

// State is a complete serializable snapshot of a System's policy store
// (sessions, which are ephemeral, are not included). internal/store encodes
// it to JSON; internal/pdp ships it over the wire.
type State struct {
	SubjectRoles     []Role          `json:"subject_roles,omitempty"`
	ObjectRoles      []Role          `json:"object_roles,omitempty"`
	EnvironmentRoles []Role          `json:"environment_roles,omitempty"`
	Subjects         []SubjectState  `json:"subjects,omitempty"`
	Objects          []ObjectState   `json:"objects,omitempty"`
	Transactions     []Transaction   `json:"transactions,omitempty"`
	Permissions      []Permission    `json:"permissions,omitempty"`
	SoDConstraints   []SoDConstraint `json:"sod_constraints,omitempty"`
	MinConfidence    float64         `json:"min_confidence,omitempty"`
}

// Export captures the current policy store as a State snapshot.
func (s *System) Export() State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.exportLocked()
}

// Snapshot captures the policy store together with the generation it was
// exported at, under one lock acquisition, so the pair is consistent. It
// is the primary side of the replication feed: a follower that imports
// the state and remembers the generation holds exactly the policy the
// primary held at that generation.
func (s *System) Snapshot() (State, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.exportLocked(), s.gen
}

func (s *System) exportLocked() State {
	st := State{
		SubjectRoles:     s.subjectRoles.all(),
		ObjectRoles:      s.objectRoles.all(),
		EnvironmentRoles: s.envRoles.all(),
		Transactions:     make([]Transaction, 0, len(s.transactions)),
		Permissions:      append([]Permission(nil), s.perms...),
		MinConfidence:    s.threshold,
	}
	for _, t := range s.transactions {
		st.Transactions = append(st.Transactions, t.clone())
	}
	sort.Slice(st.Transactions, func(i, j int) bool { return st.Transactions[i].ID < st.Transactions[j].ID })
	for id, rec := range s.subjects {
		st.Subjects = append(st.Subjects, SubjectState{ID: id, Roles: sortedRoleIDs(rec.roles)})
	}
	sort.Slice(st.Subjects, func(i, j int) bool { return st.Subjects[i].ID < st.Subjects[j].ID })
	for id, rec := range s.objects {
		st.Objects = append(st.Objects, ObjectState{ID: id, Roles: sortedRoleIDs(rec.roles)})
	}
	sort.Slice(st.Objects, func(i, j int) bool { return st.Objects[i].ID < st.Objects[j].ID })
	for _, c := range s.sods {
		st.SoDConstraints = append(st.SoDConstraints, c.clone())
	}
	return st
}

// Import rebuilds a System from a snapshot. The system must be freshly
// constructed (empty); importing into a populated system returns ErrInvalid.
func (s *System) Import(st State) (err error) {
	var commit commitTicket
	defer commit.settle(&err)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.subjects) != 0 || len(s.objects) != 0 ||
		len(s.subjectRoles.roles) != 0 || len(s.objectRoles.roles) != 0 ||
		len(s.envRoles.roles) != 0 || len(s.transactions) != 0 || len(s.perms) != 0 {
		return fmt.Errorf("%w: Import requires an empty system", ErrInvalid)
	}
	if st.MinConfidence < 0 || st.MinConfidence > 1 {
		return fmt.Errorf("%w: snapshot threshold %v outside [0,1]", ErrInvalid, st.MinConfidence)
	}
	for _, group := range []struct {
		graph *roleGraph
		roles []Role
		kind  RoleKind
	}{
		{s.subjectRoles, st.SubjectRoles, SubjectRole},
		{s.objectRoles, st.ObjectRoles, ObjectRole},
		{s.envRoles, st.EnvironmentRoles, EnvironmentRole},
	} {
		if err := importRoles(group.graph, group.roles, group.kind); err != nil {
			return err
		}
	}
	for _, t := range st.Transactions {
		if err := validateTransaction(t); err != nil {
			return err
		}
		if _, ok := s.transactions[t.ID]; ok {
			return fmt.Errorf("%w: transaction %q", ErrExists, t.ID)
		}
		s.transactions[t.ID] = t.clone()
	}
	for _, sub := range st.Subjects {
		if sub.ID == "" {
			return fmt.Errorf("%w: empty subject ID in snapshot", ErrInvalid)
		}
		rec := &subjectRec{roles: make(map[RoleID]bool, len(sub.Roles))}
		for _, r := range sub.Roles {
			if _, ok := s.subjectRoles.get(r); !ok {
				return fmt.Errorf("%w: subject %q assigned unknown role %q", ErrNotFound, sub.ID, r)
			}
			rec.roles[r] = true
		}
		s.subjects[sub.ID] = rec
	}
	for _, obj := range st.Objects {
		if obj.ID == "" {
			return fmt.Errorf("%w: empty object ID in snapshot", ErrInvalid)
		}
		rec := &objectRec{roles: make(map[RoleID]bool, len(obj.Roles))}
		for _, r := range obj.Roles {
			if _, ok := s.objectRoles.get(r); !ok {
				return fmt.Errorf("%w: object %q assigned unknown role %q", ErrNotFound, obj.ID, r)
			}
			rec.roles[r] = true
		}
		s.objects[obj.ID] = rec
	}
	for _, p := range st.Permissions {
		if err := validatePermission(p); err != nil {
			return err
		}
		s.perms = append(s.perms, p)
	}
	for _, c := range st.SoDConstraints {
		if err := validateSoD(c); err != nil {
			return err
		}
		s.sods = append(s.sods, c.clone())
	}
	s.threshold = st.MinConfidence
	s.invalidateLocked()
	// Journaled as a wholesale replace: the record carries a fresh export
	// (not the caller's State value) so the journal's copy shares no slices
	// with memory the caller may later mutate.
	exp := s.exportLocked()
	return s.recordLocked(&commit, Mutation{Op: OpReplace, State: &exp})
}

// Replace swaps the policy store for the snapshot, atomically from the
// point of view of concurrent readers: every Decide sees either the old
// policy or the new one, never a mix. It is the follower side of the
// replication feed — unlike Import it works on a populated system.
//
// The snapshot is first validated by importing it into a scratch system;
// on any error the receiver is left untouched. Sessions survive a Replace
// (they are local, ephemeral state the snapshot does not carry) but are
// pruned against the new policy: sessions whose subject vanished are
// closed, and active roles no longer in the subject's authorized closure
// are deactivated, mirroring RevokeSubjectRole semantics.
func (s *System) Replace(st State) (err error) {
	var commit commitTicket
	defer commit.settle(&err)
	tmp := NewSystem()
	if err := tmp.Import(st); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subjectRoles = tmp.subjectRoles
	s.objectRoles = tmp.objectRoles
	s.envRoles = tmp.envRoles
	s.subjects = tmp.subjects
	s.objects = tmp.objects
	s.transactions = tmp.transactions
	s.perms = tmp.perms
	s.sods = tmp.sods
	s.threshold = st.MinConfidence
	for sid, sess := range s.sessions {
		rec, ok := s.subjects[sess.subject]
		if !ok {
			delete(s.sessions, sid)
			continue
		}
		authorized := s.subjectRoles.closure(setToSlice(rec.roles))
		for active := range sess.active {
			if !authorized[active] {
				delete(sess.active, active)
			}
		}
	}
	s.invalidateLocked()
	exp := s.exportLocked()
	return s.recordLocked(&commit, Mutation{Op: OpReplace, State: &exp})
}

// importRoles inserts roles into an empty graph, deferring parent edges so
// snapshot ordering does not matter.
func importRoles(g *roleGraph, roles []Role, kind RoleKind) error {
	for _, r := range roles {
		if r.Kind != kind {
			return fmt.Errorf("%w: role %q has kind %s, want %s", ErrKindMismatch, r.ID, r.Kind, kind)
		}
		bare := r
		bare.Parents = nil
		if err := g.add(bare); err != nil {
			return err
		}
	}
	for _, r := range roles {
		for _, p := range r.Parents {
			if err := g.addParent(r.ID, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the System's policy store (sessions are not
// copied). It is the safe way to hand a snapshot to another goroutine for
// what-if analysis.
func (s *System) Clone() *System {
	st := s.Export()
	s.mu.RLock()
	strategy := s.strategy
	src := s.envSource
	clk := s.clock
	s.mu.RUnlock()
	out := NewSystem(WithConflictStrategy(strategy), WithClock(clk))
	if src != nil {
		out.envSource = src
	}
	if err := out.Import(st); err != nil {
		// Export always produces a valid snapshot; a failure here is a
		// program bug, not a runtime condition.
		panic(fmt.Sprintf("grbac: Clone round-trip failed: %v", err))
	}
	return out
}
