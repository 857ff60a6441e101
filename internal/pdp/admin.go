package pdp

import (
	"fmt"
	"net/http"
	"strings"

	"github.com/aware-home/grbac/internal/core"
)

// Administration wire types. The admin API turns the decision point into a
// policy administration point: remote applications (or the homeowner's UI)
// manage roles, entities, rules, and sessions over the same HTTP surface
// they mediate against. It is disabled unless the server is constructed
// with WithAdmin.

// RoleRequest creates or deletes a role.
type RoleRequest struct {
	ID      string   `json:"id"`
	Kind    string   `json:"kind"` // "subject" | "object" | "environment"
	Parents []string `json:"parents,omitempty"`
}

// BindingRequest registers a subject or object and assigns roles.
type BindingRequest struct {
	ID    string   `json:"id"`
	Roles []string `json:"roles,omitempty"`
}

// TransactionRequest declares a transaction.
type TransactionRequest struct {
	ID      string   `json:"id"`
	Actions []string `json:"actions,omitempty"`
}

// PermissionRequest installs or revokes a permission.
type PermissionRequest struct {
	Subject       string  `json:"subject"`
	Object        string  `json:"object"`
	Environment   string  `json:"environment"`
	Transaction   string  `json:"transaction"`
	Effect        string  `json:"effect"` // "permit" | "deny"
	MinConfidence float64 `json:"min_confidence,omitempty"`
	Description   string  `json:"description,omitempty"`
}

// SoDRequest installs a separation-of-duty constraint.
type SoDRequest struct {
	Name  string   `json:"name"`
	Kind  string   `json:"kind"` // "static" | "dynamic"
	Roles []string `json:"roles"`
}

// SessionRequest opens or closes a session.
type SessionRequest struct {
	Subject string `json:"subject,omitempty"`
	Session string `json:"session,omitempty"`
}

// SessionResponse carries a session ID.
type SessionResponse struct {
	Session string `json:"session"`
}

// SessionRoleRequest activates or deactivates a role in a session.
type SessionRoleRequest struct {
	Session string `json:"session"`
	Role    string `json:"role"`
	Active  bool   `json:"active"`
}

// WhoCanResponse lists the subjects a review query found.
type WhoCanResponse struct {
	Subjects []string `json:"subjects"`
}

// SubjectsInRoleResponse lists the subjects holding a subject role. On a
// shard the answer covers only that shard's subject partition; the router
// scatter-gathers and unions the per-shard answers.
type SubjectsInRoleResponse struct {
	Subjects []string `json:"subjects"`
}

// WhatCanResponse lists a subject's entitlements.
type WhatCanResponse struct {
	Entitlements []EntitlementWire `json:"entitlements"`
}

// EntitlementWire is the wire form of core.Entitlement.
type EntitlementWire struct {
	Object      string `json:"object"`
	Transaction string `json:"transaction"`
}

// WithAdmin enables the administration and session endpoints. Deployments
// exposing the PDP beyond a trusted network should front these with their
// own authentication layer.
func WithAdmin() ServerOption {
	return func(s *Server) { s.adminEnabled = true }
}

// registerAdmin mounts the admin plane: each admin, session, query and
// migration route once, with its methods and whether a follower's
// primary answers it. A follower mounts those rows, the mutations and the
// review queries, each as a 307 redirect to its primary: it takes no
// writes, and its query replies would carry no staleness marker. It
// takes no part in a rebalance, so it mounts no migration row.
func (s *Server) registerAdmin(mux *http.ServeMux) {
	post, del, get := http.MethodPost, http.MethodDelete, http.MethodGet
	for _, rt := range []struct {
		path      string
		h         http.HandlerFunc
		toPrimary bool
		methods   []string
	}{
		{"/v1/admin/roles", s.handleRoles, true, []string{post, del}},
		{"/v1/admin/subjects", s.handleSubjects, true, []string{post}},
		{"/v1/admin/objects", s.handleObjects, true, []string{post}},
		{"/v1/admin/transactions", s.handleTransactions, true, []string{post}},
		{"/v1/admin/permissions", s.handlePermissions, true, []string{post, del}},
		{"/v1/admin/sod", s.handleSoD, true, []string{post}},
		{"/v1/sessions", s.handleSessions, true, []string{post, del}},
		{"/v1/sessions/roles", s.handleSessionRoles, true, []string{post}},
		{"/v1/query/who-can", s.handleWhoCan, true, []string{get}},
		{"/v1/query/what-can", s.handleWhatCan, true, []string{get}},
		{"/v1/query/subjects-in-role", s.handleSubjectsInRole, true, []string{get}},
		{MigrateSubjectsPath, s.handleMigrateSubjects, false, []string{get}},
		{MigrateImportPath, s.handleMigrateImport, false, []string{post}},
		{MigrateHandoffPath, s.handleMigrateHandoff, false, []string{post}},
	} {
		switch {
		case s.follower == nil:
			handle(mux, rt.path, rt.h, rt.methods...)
		case rt.toPrimary:
			handle(mux, rt.path, s.redirectToPrimary, rt.methods...)
		}
	}
}

func parseRoleKind(kind string) (core.RoleKind, error) {
	switch kind {
	case "subject":
		return core.SubjectRole, nil
	case "object":
		return core.ObjectRole, nil
	case "environment":
		return core.EnvironmentRole, nil
	default:
		return 0, fmt.Errorf("%w: role kind %q", core.ErrInvalid, kind)
	}
}

func (s *Server) handleRoles(w http.ResponseWriter, r *http.Request) {
	var req RoleRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	kind, err := parseRoleKind(req.Kind)
	if err != nil {
		s.writeError(w, err)
		return
	}
	switch r.Method {
	case http.MethodPost:
		role := core.Role{ID: core.RoleID(req.ID), Kind: kind}
		for _, p := range req.Parents {
			role.Parents = append(role.Parents, core.RoleID(p))
		}
		if err := s.sys.AddRole(role); err != nil {
			s.writeError(w, err)
			return
		}
	case http.MethodDelete:
		if err := s.sys.RemoveRole(kind, core.RoleID(req.ID)); err != nil {
			s.writeError(w, err)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleSubjects(w http.ResponseWriter, r *http.Request) {
	var req BindingRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	release, handled := s.gated(w, r, req.ID, "", req)
	if handled {
		return
	}
	defer release()
	id := core.SubjectID(req.ID)
	if !s.sys.HasSubject(id) {
		if err := s.sys.AddSubject(id); err != nil {
			s.writeError(w, err)
			return
		}
	}
	for _, role := range req.Roles {
		if err := s.sys.AssignSubjectRole(id, core.RoleID(role)); err != nil {
			s.writeError(w, err)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	var req BindingRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	id := core.ObjectID(req.ID)
	if !s.sys.HasObject(id) {
		if err := s.sys.AddObject(id); err != nil {
			s.writeError(w, err)
			return
		}
	}
	for _, role := range req.Roles {
		if err := s.sys.AssignObjectRole(id, core.RoleID(role)); err != nil {
			s.writeError(w, err)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleTransactions(w http.ResponseWriter, r *http.Request) {
	var req TransactionRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	tx := core.Transaction{ID: core.TransactionID(req.ID)}
	if len(req.Actions) == 0 {
		tx.Steps = []core.Access{{Action: core.Action(req.ID)}}
	} else {
		for _, a := range req.Actions {
			tx.Steps = append(tx.Steps, core.Access{Action: core.Action(a)})
		}
	}
	if err := s.sys.AddTransaction(tx); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (req PermissionRequest) toCore() (core.Permission, error) {
	var effect core.Effect
	switch req.Effect {
	case "permit":
		effect = core.Permit
	case "deny":
		effect = core.Deny
	default:
		return core.Permission{}, fmt.Errorf("%w: effect %q", core.ErrInvalid, req.Effect)
	}
	return core.Permission{
		Subject:       core.RoleID(req.Subject),
		Object:        core.RoleID(req.Object),
		Environment:   core.RoleID(req.Environment),
		Transaction:   core.TransactionID(req.Transaction),
		Effect:        effect,
		MinConfidence: req.MinConfidence,
		Description:   req.Description,
	}, nil
}

func (s *Server) handlePermissions(w http.ResponseWriter, r *http.Request) {
	var req PermissionRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	perm, err := req.toCore()
	if err != nil {
		s.writeError(w, err)
		return
	}
	if r.Method == http.MethodPost {
		err = s.sys.Grant(perm)
	} else {
		err = s.sys.Revoke(perm)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleSoD(w http.ResponseWriter, r *http.Request) {
	var req SoDRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	var kind core.SoDKind
	switch req.Kind {
	case "static":
		kind = core.StaticSoD
	case "dynamic":
		kind = core.DynamicSoD
	default:
		s.writeError(w, fmt.Errorf("%w: sod kind %q", core.ErrInvalid, req.Kind))
		return
	}
	c := core.SoDConstraint{Name: req.Name, Kind: kind}
	for _, role := range req.Roles {
		c.Roles = append(c.Roles, core.RoleID(role))
	}
	if err := s.sys.AddSoDConstraint(c); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	release, handled := s.gated(w, r, req.Subject, req.Session, req)
	if handled {
		return
	}
	defer release()
	switch r.Method {
	case http.MethodPost:
		sid, err := s.sys.CreateSession(core.SubjectID(req.Subject))
		if err != nil {
			s.writeError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, SessionResponse{Session: string(sid)})
	case http.MethodDelete:
		if err := s.sys.CloseSession(core.SessionID(req.Session)); err != nil {
			s.writeError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}

func (s *Server) handleSessionRoles(w http.ResponseWriter, r *http.Request) {
	var req SessionRoleRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	release, handled := s.gated(w, r, "", req.Session, req)
	if handled {
		return
	}
	defer release()
	var err error
	if req.Active {
		err = s.sys.ActivateRole(core.SessionID(req.Session), core.RoleID(req.Role))
	} else {
		err = s.sys.DeactivateRole(core.SessionID(req.Session), core.RoleID(req.Role))
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func splitEnv(raw string) []core.RoleID {
	if raw == "" {
		return []core.RoleID{}
	}
	parts := strings.Split(raw, ",")
	out := make([]core.RoleID, 0, len(parts))
	for _, p := range parts {
		if p != "" {
			out = append(out, core.RoleID(p))
		}
	}
	return out
}

func (s *Server) handleWhoCan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	subjects, err := s.sys.WhoCan(
		core.TransactionID(q.Get("transaction")),
		core.ObjectID(q.Get("object")),
		splitEnv(q.Get("env")),
	)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := WhoCanResponse{Subjects: make([]string, 0, len(subjects))}
	for _, sub := range subjects {
		resp.Subjects = append(resp.Subjects, string(sub))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSubjectsInRole(w http.ResponseWriter, r *http.Request) {
	role := r.URL.Query().Get("role")
	if role == "" {
		s.writeError(w, fmt.Errorf("%w: missing role parameter", core.ErrInvalid))
		return
	}
	subjects := s.sys.SubjectsInRole(core.RoleID(role))
	resp := SubjectsInRoleResponse{Subjects: make([]string, 0, len(subjects))}
	for _, sub := range subjects {
		resp.Subjects = append(resp.Subjects, string(sub))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWhatCan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if s.forward(w, r, q.Get("subject"), "", nil) {
		return
	}
	ents, err := s.sys.WhatCan(core.SubjectID(q.Get("subject")), splitEnv(q.Get("env")))
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := WhatCanResponse{Entitlements: make([]EntitlementWire, 0, len(ents))}
	for _, e := range ents {
		resp.Entitlements = append(resp.Entitlements, EntitlementWire{
			Object: string(e.Object), Transaction: string(e.Transaction),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}
