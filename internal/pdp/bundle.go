package pdp

import (
	"context"
	"errors"
	"io"
	"net/http"

	"github.com/aware-home/grbac/internal/bundle"
)

// BundlePath activates a signed policy bundle: POST the bundle JSON and
// the node verifies signature and revision before swapping its policy.
// Mounted only on nodes built with a bundle verifier; notably it is NOT
// a follower-redirected mutation path, because bundle distribution is
// push-based — whoever delivers the bundle proves provenance with the
// signature, not with which node it happened to reach first.
const BundlePath = "/v1/bundle"

// BundleStatusPath reports the node's bundle trust state: trusted key
// fingerprint, active revision, admit/reject counters.
const BundleStatusPath = "/v1/bundle/status"

// maxBundleBytes bounds one bundle push. Bundles carry whole policy
// states, so the cap is far above maxBodyBytes but still finite.
const maxBundleBytes = 32 << 20

// WithBundleVerifier arms the server's bundle activation gate: it mounts
// POST /v1/bundle and GET /v1/bundle/status, and every pushed bundle
// must verify against v's trusted key and advance its revision before
// the server replaces its policy. Unsigned and tampered bundles answer
// 403, stale revisions 409 — all before the policy store is touched.
func WithBundleVerifier(v *bundle.Verifier) ServerOption {
	return func(s *Server) { s.bundles = v }
}

// BundleActivateResponse is the POST /v1/bundle success reply.
type BundleActivateResponse struct {
	Status   string `json:"status"` // "activated"
	Revision uint64 `json:"revision"`
	KeyID    string `json:"key_id,omitempty"`
}

func (s *Server) handleBundlePush(w http.ResponseWriter, r *http.Request) {
	_, b, ok := admitPushed(w, r, s.bundles)
	if !ok {
		return
	}
	if err := s.sys.Replace(b.State); err != nil {
		// Verified but not installable (invalid policy content): the
		// revision stays fenced — re-shipping the same broken revision
		// would fail identically anyway.
		s.writeError(w, err)
		return
	}
	s.logger.Printf("pdp: activated policy bundle revision %d (key %s)", b.Manifest.Revision, b.Manifest.KeyID)
	s.writeJSON(w, http.StatusOK, BundleActivateResponse{
		Status: "activated", Revision: b.Manifest.Revision, KeyID: b.Manifest.KeyID,
	})
}

// admitPushed is the bundle gate of both tiers: it reads a pushed bundle,
// bounded by maxBundleBytes, and admits it through v, answering a refusal
// itself. It returns the raw bytes with the admitted bundle.
func admitPushed(w http.ResponseWriter, r *http.Request, v *bundle.Verifier) ([]byte, *bundle.Bundle, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBundleBytes))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{Error: "bundle too large or unreadable: " + err.Error()})
		return nil, nil, false
	}
	b, err := v.Admit(raw)
	if err != nil {
		writeJSON(w, bundleErrorStatus(err), ErrorResponse{Error: err.Error()})
		return nil, nil, false
	}
	return raw, b, true
}

// bundleStatus serves GET /v1/bundle/status on either tier.
func bundleStatus(v *bundle.Verifier) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, http.StatusOK, v.Status()) }
}

// bundleErrorStatus maps the bundle package's typed verification errors
// onto the wire: provenance failures are 403 (the content is not
// trusted), stale revisions are 409 (trusted key, fenced version), and
// anything else is a malformed request.
func bundleErrorStatus(err error) int {
	switch {
	case errors.Is(err, bundle.ErrUnsigned), errors.Is(err, bundle.ErrBadSignature):
		return http.StatusForbidden
	case errors.Is(err, bundle.ErrStale):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// PushBundle ships a raw signed bundle to the node and returns its
// activation reply. The bytes are sent verbatim — re-encoding a signed
// artifact could perturb the signed payload.
func (c *Client) PushBundle(ctx context.Context, raw []byte) (BundleActivateResponse, error) {
	var resp BundleActivateResponse
	err := c.Call(ctx, http.MethodPost, BundlePath, rawBody(raw), &resp)
	return resp, err
}

// BundleStatus fetches the node's bundle trust state.
func (c *Client) BundleStatus(ctx context.Context) (bundle.Status, error) {
	var st bundle.Status
	err := c.get(ctx, BundleStatusPath, &st)
	return st, err
}

// rawBody wraps pre-encoded JSON so Client.Call's marshal step passes it
// through untouched.
type rawBody []byte

func (b rawBody) MarshalJSON() ([]byte, error) { return b, nil }

// WithRouterBundleVerifier arms the routing tier's own bundle gate: the
// router verifies a pushed bundle against its trusted key first, then
// broadcasts the raw artifact to every shard — each of which re-verifies
// with its own verifier before activating. A tampered bundle dies at the
// router without a single shard call.
func WithRouterBundleVerifier(v *bundle.Verifier) RouterOption {
	return func(rt *Router) { rt.bundles = v }
}

func (rt *Router) handleBundlePush(w http.ResponseWriter, r *http.Request) {
	raw, b, ok := admitPushed(w, r, rt.bundles)
	if !ok {
		return
	}
	t := rt.table.Load()
	errs := rt.broadcast(r, t, http.MethodPost, BundlePath, raw)
	if len(errs) > 0 {
		writeJSON(w, http.StatusBadGateway, ShardErrorsResponse{
			Error:       "bundle verified but activation failed on some shards",
			ShardErrors: errs,
		})
		return
	}
	rt.logger.Printf("pdp: router activated policy bundle revision %d on %d shards", b.Manifest.Revision, t.Map().Len())
	writeJSON(w, http.StatusOK, BundleActivateResponse{
		Status: "activated", Revision: b.Manifest.Revision, KeyID: b.Manifest.KeyID,
	})
}
