package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Subject migration primitives. When a shard rebalance moves a subject to
// a new owner, the coordinator exports the subject's complete per-subject
// state from the old shard (ExportSubject) and restores it on the new one
// (RestoreSubject). Shared policy — roles, transactions, permissions, SoD
// constraints — is replicated to every shard already, so a bundle carries
// only what hangs off the subject itself: its record, its direct role
// assignments, and its open sessions.
//
// RestoreSubject is an idempotent upsert: re-importing the same bundle is
// a no-op, and re-importing a newer bundle for the same subject converges
// the target to it (extra roles are revoked, the session set is replaced).
// That is what lets a crashed migration simply re-run its move set — the
// second pass lands on exactly the same state as a clean first pass.

// SubjectBundle is the serializable migration unit for one subject.
type SubjectBundle struct {
	Subject SubjectState `json:"subject"`
	// Sessions are the subject's open sessions with their shard-local IDs
	// and active role sets. They ride along so a migrated subject's
	// sessions survive the move; like all sessions they stay ephemeral
	// (never journaled) on the target.
	Sessions []SessionInfo `json:"sessions,omitempty"`
}

// ExportSubject snapshots one subject's migratable state: its record,
// direct role assignments, and open sessions.
func (s *System) ExportSubject(id SubjectID) (SubjectBundle, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.subjects[id]
	if !ok {
		return SubjectBundle{}, fmt.Errorf("%w: subject %q", ErrNotFound, id)
	}
	b := SubjectBundle{Subject: SubjectState{ID: id, Roles: copyRoles(rec.roles)}}
	for _, sid := range rec.sessions {
		b.Sessions = append(b.Sessions, sessionInfo(s.sessions[sid]))
	}
	sortSessionInfos(b.Sessions)
	return b, nil
}

// RestoreSubject upserts a migrated subject: the subject record and each
// role assignment delta are journaled exactly as the equivalent public
// mutations would be (so a WAL replay of a restored shard re-validates and
// reproduces the same state), and the subject's session set is replaced by
// the bundle's. Static SoD constraints are re-checked per assignment —
// shared policy is replicated, so a bundle that was legal on the exporting
// shard is legal here unless policy moved between export and restore, in
// which case failing loudly beats journaling a record that replay would
// reject.
//
// Restored sessions keep their exact IDs; the session sequence is advanced
// past any "sess-<seq>-…" ID in the bundle so a later CreateSession on
// this shard can never mint a colliding ID. Active roles no longer
// authorized under the restored role set are dropped, mirroring
// RevokeSubjectRole's pruning.
func (s *System) RestoreSubject(b SubjectBundle) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	id := b.Subject.ID
	if id == "" {
		return fmt.Errorf("%w: empty subject ID", ErrInvalid)
	}
	for _, r := range b.Subject.Roles {
		if _, ok := s.subjectRoles.get(r); !ok {
			return fmt.Errorf("%w: subject role %q", ErrNotFound, r)
		}
	}
	for _, si := range b.Sessions {
		if si.ID == "" {
			return fmt.Errorf("%w: empty session ID in bundle for %q", ErrInvalid, id)
		}
		if si.Subject != id {
			return fmt.Errorf("%w: session %q belongs to %q, not %q", ErrInvalid, si.ID, si.Subject, id)
		}
	}

	rec, ok := s.subjects[id]
	if !ok {
		rec = &subjectRec{}
		s.subjects[id] = rec
		s.invalidateLocked()
		if err := s.recordLocked(Mutation{Op: OpAddSubject, Subject: id}); err != nil {
			return err
		}
	}

	// Assign missing roles in bundle order, re-running the static SoD
	// check AssignSubjectRole would (replay-language consistency).
	for _, r := range b.Subject.Roles {
		if hasRole(rec.roles, r) {
			continue
		}
		held := s.subjectRoles.closure(append(slices.Clip(rec.roles), r))
		for _, c := range s.sods {
			if c.Kind != StaticSoD {
				continue
			}
			if a, bRole, bad := c.violates(held); bad {
				return fmt.Errorf("%w: constraint %q forbids %q to hold both %q and %q",
					ErrStaticSoD, c.Name, id, a, bRole)
			}
		}
		rec.roles = insertRole(rec.roles, r)
		s.invalidateLocked()
		if err := s.recordLocked(Mutation{Op: OpAssignSubjectRole, Subject: id, RoleID: r}); err != nil {
			return err
		}
	}
	// Revoke roles the target holds but the bundle does not, so a
	// re-import of a newer bundle converges.
	want := roleSetOf(b.Subject.Roles)
	var stray []RoleID
	for _, r := range rec.roles {
		if !hasRole(want, r) {
			stray = append(stray, r)
		}
	}
	for _, r := range stray {
		rec.roles, _ = deleteRole(rec.roles, r)
		s.invalidateLocked()
		if err := s.recordLocked(Mutation{Op: OpRevokeSubjectRole, Subject: id, RoleID: r}); err != nil {
			return err
		}
	}

	// Replace the subject's session set with the bundle's: a session
	// change, observed and never journaled.
	changed := len(rec.sessions) > 0
	for _, sid := range rec.sessions {
		delete(s.sessions, sid)
	}
	rec.sessions = rec.sessions[:0]
	authorized := s.subjectRoles.closure(rec.roles)
	for _, si := range b.Sessions {
		active := slices.DeleteFunc(roleSetOf(si.Active), func(r RoleID) bool { return !authorized[r] })
		created := si.Created
		if created.IsZero() {
			created = s.Now()
		}
		if prev, dup := s.sessions[si.ID]; dup {
			s.unlinkSessionLocked(prev)
		}
		rec.sessions = append(rec.sessions, si.ID)
		s.sessions[si.ID] = &session{
			id:      si.ID,
			subject: id,
			active:  active,
			created: created,
		}
		if seq, ok := parseSessionSeq(si.ID); ok && seq > s.sessionSeq {
			s.sessionSeq = seq
		}
		changed = true
	}
	if changed {
		s.sessionChangedLocked()
	}
	return nil
}

// splitSessionID is the one parser of the session-ID format
// CreateSession mints, "sess-<seq>-<subject>": it returns the sequence
// number and the subject, whole even when it contains '-' or '/'. Foreign
// ID shapes, and an ID with an empty subject, report ok=false.
func splitSessionID(id SessionID) (seq uint64, subject SubjectID, ok bool) {
	rest, ok := strings.CutPrefix(string(id), "sess-")
	if !ok {
		return 0, "", false
	}
	num, sub, ok := strings.Cut(rest, "-")
	if !ok || sub == "" {
		return 0, "", false
	}
	seq, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, "", false
	}
	return seq, SubjectID(sub), true
}

// parseSessionSeq extracts the sequence number from a locally-minted
// session ID. Foreign ID shapes report ok=false and never advance the
// sequence.
func parseSessionSeq(id SessionID) (uint64, bool) {
	seq, _, ok := splitSessionID(id)
	return seq, ok
}

// SessionSubject returns the subject a session ID names. A session
// belongs to one subject and moves with it, so a sharded cluster routes
// a session-scoped request to its subject's owner by the ID alone.
func SessionSubject(id SessionID) (SubjectID, bool) {
	_, sub, ok := splitSessionID(id)
	return sub, ok
}
