package core

import (
	"fmt"
	"sort"
)

// Entitlement is one (object, transaction) capability, as reported by
// WhatCan.
type Entitlement struct {
	Object      ObjectID
	Transaction TransactionID
}

// WhoCan answers the review question "who can run tx on obj while these
// environment roles are active?" — the reverse of Decide. It evaluates the
// full mediation rule (hierarchy, wildcards, effects, conflict strategy)
// for every registered subject with fully trusted identity, so the answer
// reflects exactly what Decide would grant. Like Decide it takes no lock:
// every subject is evaluated against one compiled snapshot, so the answer
// is that of a single policy generation and a scan blocks no mutation.
//
// The paper's usability requirement (§3: the homeowner must get feedback
// she can trust) is what this serves: "who can view the nursery camera
// right now?" is a single call.
func (s *System) WhoCan(tx TransactionID, obj ObjectID, env []RoleID) ([]SubjectID, error) {
	sn := s.currentSnapshot()
	bucket, ob, err := sn.target(tx, obj)
	if err != nil {
		return nil, fmt.Errorf("grbac: WhoCan: %w", err)
	}
	if env == nil {
		env = emptyEnv // a review query never consults the live source
	}
	rs := roleSets{obj: ob, env: sn.effectiveEnvBits(env, nil)}
	var out []SubjectID
	for sub, off := range sn.subjects {
		rs.uniform = sn.subjectBits(off)
		if _, _, effect := sn.mediate(bucket, &rs); effect == Permit {
			out = append(out, sub)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// WhatCan answers "what may this subject do while these environment roles
// are active?": every (object, transaction) pair Decide would permit, on
// one snapshot as WhoCan. The result is sorted by object, then transaction.
func (s *System) WhatCan(sub SubjectID, env []RoleID) ([]Entitlement, error) {
	sn := s.currentSnapshot()
	off, ok := sn.subjects[sub]
	if !ok {
		return nil, fmt.Errorf("%w: subject %q", ErrNotFound, sub)
	}
	if env == nil {
		env = emptyEnv // a review query never consults the live source
	}
	rs := roleSets{uniform: sn.subjectBits(off), env: sn.effectiveEnvBits(env, nil)}
	var out []Entitlement
	for obj, off := range sn.objects {
		rs.obj = sn.objectBits(off)
		for tx, bucket := range sn.buckets {
			if _, _, effect := sn.mediate(bucket, &rs); effect == Permit {
				out = append(out, Entitlement{Object: obj, Transaction: tx})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return out[i].Transaction < out[j].Transaction
	})
	return out, nil
}

// PermissionsMentioning returns every installed permission whose leg of
// the given kind names the role — the "where is this role used?" query a
// policy editor needs before deleting a role.
func (s *System) PermissionsMentioning(kind RoleKind, role RoleID) []Permission {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Permission
	for _, p := range s.perms {
		if references(p, kind, role) {
			out = append(out, p)
		}
	}
	return out
}

// SubjectsInRole returns every subject whose effective role set (direct
// assignments closed upward) includes the role, sorted. With Figure 2's
// hierarchy, SubjectsInRole("family-member") includes Mom, Dad, Alice, and
// Bobby even though none is assigned family-member directly.
func (s *System) SubjectsInRole(role RoleID) []SubjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []SubjectID
	for sub, rec := range s.subjects {
		if s.subjectRoles.closureContains(rec.roles, role) {
			out = append(out, sub)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ObjectsInRole returns every object whose effective role set includes the
// role, sorted.
func (s *System) ObjectsInRole(role RoleID) []ObjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ObjectID
	for obj, rec := range s.objects {
		if s.objectRoles.closureContains(rec.roles, role) {
			out = append(out, obj)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
