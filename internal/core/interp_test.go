package core

import "fmt"

// This file is the map-based interpreter of the mediation rule (paper
// §4.2.4): the engine every tier served before the compiled snapshot
// replaced it. It lives on in the test binary only, as the reference
// TestSnapshotDecideMatchesSerializedOracle holds the snapshot's walk
// byte-identical to — same decisions, same error text.

// decideLocked evaluates the rule directly over the policy maps. The caller
// must hold s.mu (read or write).
func (s *System) decideLocked(req Request) (Decision, error) {
	if err := req.Credentials.Validate(); err != nil {
		return Decision{}, err
	}
	if req.Transaction == "" {
		return Decision{}, fmt.Errorf("%w: request must name a transaction", ErrInvalid)
	}
	if _, ok := s.transactions[req.Transaction]; !ok {
		return Decision{}, fmt.Errorf("%w: transaction %q", ErrNotFound, req.Transaction)
	}
	if req.Object == "" {
		return Decision{}, fmt.Errorf("%w: request must name an object", ErrInvalid)
	}
	obj, ok := s.objects[req.Object]
	if !ok {
		return Decision{}, fmt.Errorf("%w: object %q", ErrNotFound, req.Object)
	}
	if req.Subject == "" && req.Session != "" {
		sess, ok := s.sessions[req.Session]
		if !ok {
			return Decision{}, fmt.Errorf("%w: %q", ErrNoSession, req.Session)
		}
		req.Subject = sess.subject
	}
	if req.Subject == "" && len(req.Credentials) == 0 {
		return Decision{}, fmt.Errorf("%w: request must carry a subject or credentials", ErrInvalid)
	}

	subjRoles, err := s.effectiveSubjectRoles(req)
	if err != nil {
		return Decision{}, err
	}
	subjRoles[AnySubject] = 1

	objRoles := s.objectRoles.closure(obj.roles)
	objRoles[AnyObject] = true

	envRoles, err := s.effectiveEnvironmentRoles(req)
	if err != nil {
		return Decision{}, err
	}
	envRoles[AnyEnvironment] = true

	matches := s.collectMatchesScan(req.Transaction, subjRoles, objRoles, envRoles)

	d := Decision{
		Effect:           Deny,
		Matches:          matches,
		Strategy:         s.strategy.Name(),
		SubjectRoles:     subjRoles,
		ObjectRoles:      sortedRoleIDs(objRoles),
		EnvironmentRoles: sortedRoleIDs(envRoles),
	}
	if len(matches) == 0 {
		d.DefaultDeny = true
		d.Reason = fmt.Sprintf("no permission matches transaction %q on object %q: default deny",
			req.Transaction, req.Object)
		return d, nil
	}
	d.Effect = s.strategy.Resolve(matches)
	d.Allowed = d.Effect == Permit
	d.Reason = fmt.Sprintf("%d matching permission(s) resolved to %s by %s",
		len(matches), d.Effect, d.Strategy)
	return d, nil
}

// effectiveSubjectRoles computes the subject-role confidence map for a
// request: assigned (or session-active) roles seeded with the identity
// confidence, plus direct role credentials, closed upward through the
// hierarchy.
func (s *System) effectiveSubjectRoles(req Request) (map[RoleID]float64, error) {
	seeds := make(map[RoleID]float64)

	identityConf := 0.0
	if req.Subject != "" {
		rec, ok := s.subjects[req.Subject]
		if !ok {
			return nil, fmt.Errorf("%w: subject %q", ErrNotFound, req.Subject)
		}
		if req.Credentials == nil {
			identityConf = 1
		} else {
			identityConf = req.Credentials.identityConfidence(req.Subject)
		}
		var usable []RoleID
		if req.Session != "" {
			sess, ok := s.sessions[req.Session]
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrNoSession, req.Session)
			}
			if sess.subject != req.Subject {
				return nil, fmt.Errorf("%w: session %q belongs to %q, not %q",
					ErrInvalid, req.Session, sess.subject, req.Subject)
			}
			usable = sess.active
		} else {
			usable = rec.roles
		}
		if identityConf > 0 {
			for _, r := range usable {
				if identityConf > seeds[r] {
					seeds[r] = identityConf
				}
			}
		}
	}

	for r, conf := range req.Credentials.roleConfidences() {
		if _, ok := s.subjectRoles.get(r); !ok {
			continue // unknown asserted roles confer nothing (deny-safe)
		}
		if conf > seeds[r] {
			seeds[r] = conf
		}
	}
	return s.subjectRoles.weightedClosure(seeds), nil
}

// effectiveEnvironmentRoles resolves the active environment role set for a
// request and closes it upward.
func (s *System) effectiveEnvironmentRoles(req Request) (map[RoleID]bool, error) {
	var active []RoleID
	switch {
	case req.Environment != nil:
		active = req.Environment
	case s.envSource != nil:
		active = s.envSource.ActiveEnvironmentRoles()
	}
	known := active[:0:0]
	for _, r := range active {
		if _, ok := s.envRoles.get(r); ok || isWildcard(r) {
			known = append(known, r)
		}
	}
	return s.envRoles.closure(known), nil
}

// collectMatchesScan finds the permissions satisfied by the three effective
// role sets and the requested transaction by scanning the permission list
// in grant order.
func (s *System) collectMatchesScan(
	tx TransactionID,
	subjRoles map[RoleID]float64,
	objRoles, envRoles map[RoleID]bool,
) []Match {
	var matches []Match
	for _, p := range s.perms {
		if p.Transaction != AnyTransaction && p.Transaction != tx {
			continue
		}
		conf, ok := subjRoles[p.Subject]
		if !ok || conf <= 0 {
			continue
		}
		threshold := p.MinConfidence
		if s.threshold > threshold {
			threshold = s.threshold
		}
		if conf < threshold {
			continue
		}
		if !objRoles[p.Object] {
			continue
		}
		if !envRoles[p.Environment] {
			continue
		}
		depth := -1
		if p.Subject != AnySubject {
			depth = s.subjectRoles.depth(p.Subject)
		}
		matches = append(matches, Match{
			Permission:      p,
			SubjectRole:     p.Subject,
			ObjectRole:      p.Object,
			EnvironmentRole: p.Environment,
			Confidence:      conf,
			SubjectDepth:    depth,
		})
	}
	return matches
}

// weightedClosure propagates per-role confidences upward: possessing a role
// with confidence c implies possessing each ancestor with at least c. When
// several paths reach the same ancestor, the maximum confidence wins. Each
// seed's ancestor set comes from the per-role closure cache.
func (g *roleGraph) weightedClosure(seeds map[RoleID]float64) map[RoleID]float64 {
	out := make(map[RoleID]float64, len(seeds)*2)
	for id, c := range seeds {
		cl, ok := g.closures[id]
		if !ok {
			if prev, seen := out[id]; !seen || c > prev {
				out[id] = c
			}
			continue
		}
		for r := range cl {
			if prev, seen := out[r]; !seen || c > prev {
				out[r] = c
			}
		}
	}
	return out
}

// roleConfidences returns the strongest direct role assertions in the set.
func (cs CredentialSet) roleConfidences() map[RoleID]float64 {
	out := make(map[RoleID]float64, len(cs))
	for _, c := range cs {
		if c.Role == "" {
			continue
		}
		if c.Confidence > out[c.Role] {
			out[c.Role] = c.Confidence
		}
	}
	return out
}
