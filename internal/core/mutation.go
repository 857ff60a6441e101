package core

import (
	"errors"
	"fmt"
)

// MutationOp names one serializable policy mutation.
type MutationOp string

// The full set of journaled operations. Together with Apply they form a
// closed replay language: any sequence of successful mutations on one
// System can be re-executed on another and lands on the same exported
// State. Session operations are deliberately absent — sessions are
// ephemeral, per-process state that neither the snapshot store nor the
// replication feed carries.
const (
	OpAddSubject        MutationOp = "add-subject"
	OpRemoveSubject     MutationOp = "remove-subject"
	OpAddObject         MutationOp = "add-object"
	OpRemoveObject      MutationOp = "remove-object"
	OpAddRole           MutationOp = "add-role"
	OpAddRoleParent     MutationOp = "add-role-parent"
	OpRemoveRoleParent  MutationOp = "remove-role-parent"
	OpRemoveRole        MutationOp = "remove-role"
	OpAssignSubjectRole MutationOp = "assign-subject-role"
	OpRevokeSubjectRole MutationOp = "revoke-subject-role"
	OpAssignObjectRole  MutationOp = "assign-object-role"
	OpRevokeObjectRole  MutationOp = "revoke-object-role"
	OpAddTransaction    MutationOp = "add-transaction"
	OpGrant             MutationOp = "grant"
	OpRevoke            MutationOp = "revoke"
	OpAddSoD            MutationOp = "add-sod"
	OpRemoveSoD         MutationOp = "remove-sod"
	OpSetMinConfidence  MutationOp = "set-min-confidence"
	// OpReplace records a wholesale policy swap (Import or Replace) and
	// carries the complete post-swap State rather than a delta.
	OpReplace MutationOp = "replace"
)

// ErrJournal reports that a mutation was applied in memory but its journal
// record could not be persisted. The in-memory change stands — callers that
// need durability must treat the mutation as volatile and may re-issue it
// after the store recovers.
var ErrJournal = errors.New("grbac: journal write failed")

// Mutation is the serializable record of one policy mutation, stamped with
// the generation the mutation produced. Exactly the fields relevant to Op
// are set; the rest stay at their zero values and are elided from JSON.
type Mutation struct {
	Op  MutationOp `json:"op"`
	Gen uint64     `json:"gen,omitempty"`

	Subject     SubjectID      `json:"subject,omitempty"`
	Object      ObjectID       `json:"object,omitempty"`
	Kind        RoleKind       `json:"kind,omitempty"`
	Role        *Role          `json:"role,omitempty"`
	RoleID      RoleID         `json:"role_id,omitempty"`
	Parent      RoleID         `json:"parent,omitempty"`
	Transaction *Transaction   `json:"transaction,omitempty"`
	Permission  *Permission    `json:"permission,omitempty"`
	SoD         *SoDConstraint `json:"sod,omitempty"`
	Name        string         `json:"name,omitempty"`
	Threshold   float64        `json:"threshold,omitempty"`
	State       *State         `json:"state,omitempty"`
}

// Journal observes every generation bump a System makes, under the
// System's write lock, in generation order. The durable store implements
// it to write-ahead-log mutations; implementations must not call back
// into the System (the write lock is held) — the export closure exists so
// a checkpoint can capture state without re-locking.
//
// Every bump reaches exactly one of the two methods: Record for
// serializable mutations (the replay language above), ObserveGeneration
// for ephemeral bumps that change no exportable state (session churn,
// conflict-strategy and environment-source swaps). The split is what lets
// a replica catch up from the journal alone: a consumer that has applied
// every Record up to generation G and merely observed the rest holds
// byte-identical exportable policy at G.
type Journal interface {
	// Record is called after a serializable mutation has been applied and
	// its generation assigned (m.Gen). export returns the post-mutation
	// State without acquiring locks. An error is propagated to the
	// mutator's caller wrapped in ErrJournal; the in-memory mutation
	// remains applied. Readers see the mutation once the write lock is
	// released, so a durable journal makes it durable before returning.
	Record(m Mutation, export func() State) error
	// ObserveGeneration is called for generation bumps with no record.
	ObserveGeneration(gen uint64)
}

// SetJournal installs (or, with nil, detaches) the mutation journal. It
// is called after construction and replay, so boot-time Imports are not
// journaled twice.
func (s *System) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// recordLocked hands a just-applied mutation to the journal. The caller
// holds the write lock and has called invalidateLocked, so s.gen is the
// mutation's generation.
func (s *System) recordLocked(m Mutation) error {
	if s.journal == nil {
		return nil
	}
	m.Gen = s.gen
	if err := s.journal.Record(m, s.exportLocked); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrJournal, m.Op, err)
	}
	return nil
}

// observeLocked reports an ephemeral generation bump to the journal.
func (s *System) observeLocked() {
	if s.journal != nil {
		s.journal.ObserveGeneration(s.gen)
	}
}

// AdvanceGeneration raises the policy generation to at least gen without
// touching policy state, retiring the compiled snapshot and waking
// generation watchers if it moves. The durable store calls it once at
// boot so a recovered primary's generation never runs behind what
// followers (or the store's own reservation file) already observed; it
// is not for general use.
func (s *System) AdvanceGeneration(gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen <= s.gen {
		return
	}
	s.gen, s.policyGen = gen, gen
	s.snap.Store(nil)
	s.gens.Publish(s.gen)
	s.observeLocked()
}

// Apply executes m against the system through the ordinary public
// mutators, so every validation rule and side effect applies exactly as
// it would to a live call. It is the replay half of the journal: a WAL
// or replication delta is a sequence of Mutations fed through Apply.
func (s *System) Apply(m Mutation) error {
	switch m.Op {
	case OpAddSubject:
		return s.AddSubject(m.Subject)
	case OpRemoveSubject:
		return s.RemoveSubject(m.Subject)
	case OpAddObject:
		return s.AddObject(m.Object)
	case OpRemoveObject:
		return s.RemoveObject(m.Object)
	case OpAddRole:
		if m.Role == nil {
			return fmt.Errorf("%w: %s without role", ErrInvalid, m.Op)
		}
		return s.AddRole(*m.Role)
	case OpAddRoleParent:
		return s.AddRoleParent(m.Kind, m.RoleID, m.Parent)
	case OpRemoveRoleParent:
		return s.RemoveRoleParent(m.Kind, m.RoleID, m.Parent)
	case OpRemoveRole:
		return s.RemoveRole(m.Kind, m.RoleID)
	case OpAssignSubjectRole:
		return s.AssignSubjectRole(m.Subject, m.RoleID)
	case OpRevokeSubjectRole:
		return s.RevokeSubjectRole(m.Subject, m.RoleID)
	case OpAssignObjectRole:
		return s.AssignObjectRole(m.Object, m.RoleID)
	case OpRevokeObjectRole:
		return s.RevokeObjectRole(m.Object, m.RoleID)
	case OpAddTransaction:
		if m.Transaction == nil {
			return fmt.Errorf("%w: %s without transaction", ErrInvalid, m.Op)
		}
		return s.AddTransaction(*m.Transaction)
	case OpGrant:
		if m.Permission == nil {
			return fmt.Errorf("%w: %s without permission", ErrInvalid, m.Op)
		}
		return s.Grant(*m.Permission)
	case OpRevoke:
		if m.Permission == nil {
			return fmt.Errorf("%w: %s without permission", ErrInvalid, m.Op)
		}
		return s.Revoke(*m.Permission)
	case OpAddSoD:
		if m.SoD == nil {
			return fmt.Errorf("%w: %s without constraint", ErrInvalid, m.Op)
		}
		return s.AddSoDConstraint(*m.SoD)
	case OpRemoveSoD:
		return s.RemoveSoDConstraint(m.Name)
	case OpSetMinConfidence:
		return s.SetMinConfidence(m.Threshold)
	case OpReplace:
		if m.State == nil {
			return fmt.Errorf("%w: %s without state", ErrInvalid, m.Op)
		}
		return s.Replace(*m.State)
	default:
		return fmt.Errorf("%w: unknown mutation op %q", ErrInvalid, m.Op)
	}
}
