// Package pdp exposes a GRBAC system as a networked policy decision point
// over HTTP/JSON, with a matching Go client. This is the deployment shape
// the paper's §1 envisions — "resources in the home and information about
// the residents ... will be remotely accessible" — applications anywhere in
// the connected home (or community) mediate their accesses against one
// policy engine.
//
// Endpoints:
//
//	POST /v1/decide           — full decision with explanation
//	POST /v1/decide/batch     — many decisions in one round trip, one policy snapshot
//	POST /v1/check            — boolean decision
//	GET  /v1/state            — policy snapshot (for backup/inspection)
//	GET  /v1/healthz          — liveness (503 "degraded" on a stale follower)
//	GET  /v1/statsz           — decision-cache + replication statistics
//	GET  /v1/replica/snapshot — generation-stamped policy export (WithReplicaSource)
//	GET  /v1/replica/watch    — long-poll on the policy generation (WithReplicaSource)
//	GET  /metrics             — Prometheus text exposition (WithMetrics)
//	GET  /v1/audit            — decision records, filterable by correlation_id (WithAuditLogger)
//
// A server built WithFollower serves decisions from a policy replicated
// off a primary (see internal/replica) and answers mutation endpoints
// with 307 redirects to that primary.
package pdp

import (
	"github.com/aware-home/grbac/internal/core"
)

// Credential is the wire form of core.Credential.
type Credential struct {
	Subject    string  `json:"subject,omitempty"`
	Role       string  `json:"role,omitempty"`
	Confidence float64 `json:"confidence"`
	Source     string  `json:"source,omitempty"`
}

// DecideRequest is the wire form of core.Request. A null (or absent)
// environment asks the server to consult its live environment source; an
// explicit array (possibly empty) is used verbatim. Environment is
// therefore not omitempty: a nil slice is sent as null and an empty one as
// [], so "no environment roles active" survives the wire.
type DecideRequest struct {
	Subject     string       `json:"subject,omitempty"`
	Session     string       `json:"session,omitempty"`
	Object      string       `json:"object"`
	Transaction string       `json:"transaction"`
	Credentials []Credential `json:"credentials,omitempty"`
	Environment []string     `json:"environment"`
}

// Match is the wire form of core.Match.
type Match struct {
	Effect          string  `json:"effect"`
	SubjectRole     string  `json:"subject_role"`
	ObjectRole      string  `json:"object_role"`
	EnvironmentRole string  `json:"environment_role"`
	Transaction     string  `json:"transaction"`
	Confidence      float64 `json:"confidence"`
}

// DecideResponse is the wire form of core.Decision. Stale is set only by
// follower PDPs whose replicated policy has exceeded the staleness bound:
// the decision is still served (graceful degradation), and the caller can
// decide whether a possibly-outdated policy answer is acceptable.
type DecideResponse struct {
	Allowed     bool    `json:"allowed"`
	Effect      string  `json:"effect"`
	DefaultDeny bool    `json:"default_deny"`
	Strategy    string  `json:"strategy"`
	Reason      string  `json:"reason"`
	Matches     []Match `json:"matches,omitempty"`
	Stale       bool    `json:"stale,omitempty"`
	// CorrelationID echoes the request's X-Correlation-ID (server-generated
	// when the caller sent none): the join key across this reply, the audit
	// record, and the decision trace.
	CorrelationID string `json:"correlation_id,omitempty"`
}

// CheckResponse is the reply to /v1/check. Stale marks decisions from a
// follower past its staleness bound.
type CheckResponse struct {
	Allowed bool `json:"allowed"`
	Stale   bool `json:"stale,omitempty"`
	// CorrelationID is the request's correlation join key (see DecideResponse).
	CorrelationID string `json:"correlation_id,omitempty"`
}

// BatchDecideRequest carries the requests for POST /v1/decide/batch.
type BatchDecideRequest struct {
	Requests []DecideRequest `json:"requests"`
}

// BatchItem is one entry of a batch reply: the decision, or the error
// string that request produced. Exactly one of the two is set.
type BatchItem struct {
	Decision *DecideResponse `json:"decision,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// BatchDecideResponse answers a batch. Results aligns index-for-index
// with the request order, and every item was mediated against the same
// policy snapshot, so the reply is internally consistent even when the
// policy is mutating concurrently. Stale marks follower replies past the
// staleness bound.
type BatchDecideResponse struct {
	Results []BatchItem `json:"results"`
	Stale   bool        `json:"stale,omitempty"`
	// CorrelationID is the batch's correlation join key; every item's audit
	// record carries the same value (see DecideResponse).
	CorrelationID string `json:"correlation_id,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// FromCoreRequest converts a core request into its wire form — the
// inverse of toCore — so in-process mediators (the embedded SDK) can fall
// back to a remote Decide without hand-building wire structs. The
// nil-vs-empty environment distinction is preserved: nil stays absent
// (the server consults its live environment source), an empty non-nil
// slice stays an explicit "no roles active".
func FromCoreRequest(req core.Request) DecideRequest {
	out := DecideRequest{
		Subject:     string(req.Subject),
		Session:     string(req.Session),
		Object:      string(req.Object),
		Transaction: string(req.Transaction),
	}
	for _, c := range req.Credentials {
		out.Credentials = append(out.Credentials, Credential{
			Subject:    string(c.Subject),
			Role:       string(c.Role),
			Confidence: c.Confidence,
			Source:     c.Source,
		})
	}
	if req.Environment != nil {
		out.Environment = make([]string, 0, len(req.Environment))
		for _, e := range req.Environment {
			out.Environment = append(out.Environment, string(e))
		}
	}
	return out
}

// ToCore converts a wire decision back into core form for callers that
// mix remote and in-process mediation. The wire carries less than a core
// decision (matches lose their full Permission, role sets are not sent),
// so the reconstruction is partial: outcome, strategy, reason, and the
// match triples survive.
func (r DecideResponse) ToCore() core.Decision {
	d := core.Decision{
		Allowed:     r.Allowed,
		Effect:      effectFromString(r.Effect),
		DefaultDeny: r.DefaultDeny,
		Strategy:    r.Strategy,
		Reason:      r.Reason,
	}
	for _, m := range r.Matches {
		d.Matches = append(d.Matches, core.Match{
			Permission: core.Permission{
				Subject:     core.RoleID(m.SubjectRole),
				Object:      core.RoleID(m.ObjectRole),
				Environment: core.RoleID(m.EnvironmentRole),
				Transaction: core.TransactionID(m.Transaction),
				Effect:      effectFromString(m.Effect),
			},
			SubjectRole:     core.RoleID(m.SubjectRole),
			ObjectRole:      core.RoleID(m.ObjectRole),
			EnvironmentRole: core.RoleID(m.EnvironmentRole),
			Confidence:      m.Confidence,
		})
	}
	return d
}

// effectFromString parses the wire effect; anything unrecognized reads as
// Deny, the closed-world default.
func effectFromString(s string) core.Effect {
	if s == core.Permit.String() {
		return core.Permit
	}
	return core.Deny
}

// toCore converts a wire request into a core request.
func (r DecideRequest) toCore() core.Request {
	req := core.Request{
		Subject:     core.SubjectID(r.Subject),
		Session:     core.SessionID(r.Session),
		Object:      core.ObjectID(r.Object),
		Transaction: core.TransactionID(r.Transaction),
	}
	for _, c := range r.Credentials {
		req.Credentials = append(req.Credentials, core.Credential{
			Subject:    core.SubjectID(c.Subject),
			Role:       core.RoleID(c.Role),
			Confidence: c.Confidence,
			Source:     c.Source,
		})
	}
	if r.Environment != nil {
		req.Environment = make([]core.RoleID, 0, len(r.Environment))
		for _, e := range r.Environment {
			req.Environment = append(req.Environment, core.RoleID(e))
		}
	}
	return req
}

// fromDecision converts a core decision into its wire form.
func fromDecision(d core.Decision) DecideResponse {
	resp := DecideResponse{
		Allowed:     d.Allowed,
		Effect:      d.Effect.String(),
		DefaultDeny: d.DefaultDeny,
		Strategy:    d.Strategy,
		Reason:      d.Reason,
	}
	for _, m := range d.Matches {
		resp.Matches = append(resp.Matches, Match{
			Effect:          m.Permission.Effect.String(),
			SubjectRole:     string(m.SubjectRole),
			ObjectRole:      string(m.ObjectRole),
			EnvironmentRole: string(m.EnvironmentRole),
			Transaction:     string(m.Permission.Transaction),
			Confidence:      m.Confidence,
		})
	}
	return resp
}
