package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// SessionID names a login session.
type SessionID string

// session is the mutable record behind a SessionID. Access is guarded by
// the owning System's mutex.
type session struct {
	id      SessionID
	subject SubjectID
	active  []RoleID // a role set: sorted and duplicate-free
	created time.Time
}

// SessionInfo is a read-only snapshot of a session, returned by Session and
// Sessions.
type SessionInfo struct {
	ID      SessionID
	Subject SubjectID
	Active  []RoleID
	Created time.Time
}

// CreateSession opens a session for subject with an empty active role set.
// Role activation (paper §4.1.2) restricts the subject to "only those roles
// that are necessary to perform his current duties": until roles are
// activated, requests evaluated against the session match no subject role
// other than AnySubject.
func (s *System) CreateSession(subject SubjectID) (SessionID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.subjects[subject]
	if !ok {
		return "", fmt.Errorf("%w: subject %q", ErrNotFound, subject)
	}
	s.sessionSeq++
	id := SessionID(fmt.Sprintf("sess-%d-%s", s.sessionSeq, subject))
	rec.sessions = append(rec.sessions, id)
	s.sessions[id] = &session{
		id:      id,
		subject: subject,
		created: s.Now(),
	}
	s.sessionChangedLocked()
	return id, nil
}

// CloseSession ends a session, discarding its active role set.
func (s *System) CloseSession(id SessionID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	delete(s.sessions, id)
	s.unlinkSessionLocked(sess)
	s.sessionChangedLocked()
	return nil
}

// unlinkSessionLocked drops sess from its subject's session list.
func (s *System) unlinkSessionLocked(sess *session) {
	if rec := s.subjects[sess.subject]; rec != nil {
		rec.sessions = slices.DeleteFunc(rec.sessions, func(id SessionID) bool { return id == sess.id })
	}
}

// ActivateRole adds role to the session's active role set. The role must be
// in the subject's authorized role set (directly assigned or an ancestor of
// an assigned role), and the resulting active set must satisfy every
// dynamic separation-of-duty constraint: "the system simply disallows any
// two roles with dynamic SoD constraints from being active at the same
// time" (§4.1.2).
func (s *System) ActivateRole(id SessionID, role RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	sub := s.subjects[sess.subject]
	if sub == nil {
		return fmt.Errorf("%w: subject %q", ErrNotFound, sess.subject)
	}
	authorized := s.subjectRoles.closure(sub.roles)
	if !authorized[role] {
		return fmt.Errorf("%w: subject %q cannot activate %q", ErrNotAuthorized, sess.subject, role)
	}
	if hasRole(sess.active, role) {
		return nil
	}
	held := s.subjectRoles.closure(append(slices.Clip(sess.active), role))
	for _, c := range s.sods {
		if c.Kind != DynamicSoD {
			continue
		}
		if a, b, bad := c.violates(held); bad {
			return fmt.Errorf("%w: constraint %q forbids %q and %q active together",
				ErrDynamicSoD, c.Name, a, b)
		}
	}
	sess.active = insertRole(sess.active, role)
	s.sessionChangedLocked()
	return nil
}

// DeactivateRole removes role from the session's active role set.
func (s *System) DeactivateRole(id SessionID, role RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	active, ok := deleteRole(sess.active, role)
	if !ok {
		return fmt.Errorf("%w: role %q not active in session %q", ErrNotFound, role, id)
	}
	sess.active = active
	s.sessionChangedLocked()
	return nil
}

// Session returns a snapshot of one session.
func (s *System) Session(id SessionID) (SessionInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.sessions[id]
	if !ok {
		return SessionInfo{}, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	return sessionInfo(sess), nil
}

// Sessions returns snapshots of all open sessions, ordered by ID.
func (s *System) Sessions() []SessionInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sessionInfo(sess))
	}
	sortSessionInfos(out)
	return out
}

func sessionInfo(sess *session) SessionInfo {
	return SessionInfo{
		ID:      sess.id,
		Subject: sess.subject,
		Active:  copyRoles(sess.active),
		Created: sess.created,
	}
}

func sortSessionInfos(s []SessionInfo) {
	slices.SortFunc(s, func(a, b SessionInfo) int { return cmp.Compare(a.ID, b.ID) })
}
