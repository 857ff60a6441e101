package pdp

import (
	"context"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/aware-home/grbac/internal/audit"
)

// Administration client methods, matching the endpoints enabled by
// WithAdmin. Each returns an error wrapping ErrRemote on non-2xx replies.

// CreateRole declares a role on the server.
func (c *Client) CreateRole(ctx context.Context, req RoleRequest) error {
	return c.post(ctx, "/v1/admin/roles", req, nil)
}

// DeleteRole removes a role and everything referencing it.
func (c *Client) DeleteRole(ctx context.Context, req RoleRequest) error {
	return c.request(ctx, "DELETE", "/v1/admin/roles", req, nil)
}

// UpsertSubject registers a subject (if new) and assigns the listed roles.
func (c *Client) UpsertSubject(ctx context.Context, req BindingRequest) error {
	return c.post(ctx, "/v1/admin/subjects", req, nil)
}

// UpsertObject registers an object (if new) and assigns the listed roles.
func (c *Client) UpsertObject(ctx context.Context, req BindingRequest) error {
	return c.post(ctx, "/v1/admin/objects", req, nil)
}

// CreateTransaction declares a transaction.
func (c *Client) CreateTransaction(ctx context.Context, req TransactionRequest) error {
	return c.post(ctx, "/v1/admin/transactions", req, nil)
}

// GrantPermission installs a permission.
func (c *Client) GrantPermission(ctx context.Context, req PermissionRequest) error {
	return c.post(ctx, "/v1/admin/permissions", req, nil)
}

// RevokePermission removes a permission.
func (c *Client) RevokePermission(ctx context.Context, req PermissionRequest) error {
	return c.request(ctx, "DELETE", "/v1/admin/permissions", req, nil)
}

// AddSoD installs a separation-of-duty constraint.
func (c *Client) AddSoD(ctx context.Context, req SoDRequest) error {
	return c.post(ctx, "/v1/admin/sod", req, nil)
}

// OpenSession creates a session for a subject and returns its ID.
func (c *Client) OpenSession(ctx context.Context, subject string) (string, error) {
	var resp SessionResponse
	if err := c.post(ctx, "/v1/sessions", SessionRequest{Subject: subject}, &resp); err != nil {
		return "", err
	}
	return resp.Session, nil
}

// CloseSession ends a session.
func (c *Client) CloseSession(ctx context.Context, session string) error {
	return c.request(ctx, "DELETE", "/v1/sessions", SessionRequest{Session: session}, nil)
}

// SetSessionRole activates (active=true) or deactivates a role in a
// session.
func (c *Client) SetSessionRole(ctx context.Context, session, role string, active bool) error {
	return c.post(ctx, "/v1/sessions/roles", SessionRoleRequest{
		Session: session, Role: role, Active: active,
	}, nil)
}

// WhoCan runs the reverse review query: which subjects may run the
// transaction on the object under the given active environment roles.
func (c *Client) WhoCan(ctx context.Context, transaction, object string, env []string) ([]string, error) {
	var resp WhoCanResponse
	q := url.Values{}
	q.Set("transaction", transaction)
	q.Set("object", object)
	q.Set("env", strings.Join(env, ","))
	if err := c.get(ctx, "/v1/query/who-can?"+q.Encode(), &resp); err != nil {
		return nil, err
	}
	return resp.Subjects, nil
}

// AuditQuery selects audit records from GET /v1/audit.
type AuditQuery struct {
	Subject     string
	Object      string
	Transaction string
	// CorrelationID selects the records of one PDP request.
	CorrelationID string
	DeniesOnly    bool
	Limit         int
	// Since and Until bound record timestamps (zero = unbounded).
	Since time.Time
	Until time.Time
}

// Audit fetches audit records matching the query. The server must have
// been built with WithAuditLogger.
func (c *Client) Audit(ctx context.Context, query AuditQuery) ([]audit.Record, error) {
	q := url.Values{}
	if query.Subject != "" {
		q.Set("subject", query.Subject)
	}
	if query.Object != "" {
		q.Set("object", query.Object)
	}
	if query.Transaction != "" {
		q.Set("transaction", query.Transaction)
	}
	if query.CorrelationID != "" {
		q.Set("correlation_id", query.CorrelationID)
	}
	if query.DeniesOnly {
		q.Set("denies", "true")
	}
	if query.Limit > 0 {
		q.Set("limit", strconv.Itoa(query.Limit))
	}
	if !query.Since.IsZero() {
		q.Set("since", query.Since.Format(time.RFC3339))
	}
	if !query.Until.IsZero() {
		q.Set("until", query.Until.Format(time.RFC3339))
	}
	var records []audit.Record
	path := "/v1/audit"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	if err := c.get(ctx, path, &records); err != nil {
		return nil, err
	}
	return records, nil
}

// WhatCan lists a subject's entitlements under the given environment.
func (c *Client) WhatCan(ctx context.Context, subject string, env []string) ([]EntitlementWire, error) {
	var resp WhatCanResponse
	q := url.Values{}
	q.Set("subject", subject)
	q.Set("env", strings.Join(env, ","))
	if err := c.get(ctx, "/v1/query/what-can?"+q.Encode(), &resp); err != nil {
		return nil, err
	}
	return resp.Entitlements, nil
}
