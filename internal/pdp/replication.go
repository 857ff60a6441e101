package pdp

import (
	"net/http"
	"strconv"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/bundle"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/declog"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/store"
)

// WithReplicaSource exposes the policy replication feed —
// GET /v1/replica/snapshot and GET /v1/replica/watch — turning this
// server into a primary that followers can sync from. The endpoints are
// read-only and carry the same information as /v1/state, so they need no
// extra trust beyond what the PDP surface already assumes.
func WithReplicaSource(src *replica.Source) ServerOption {
	return func(s *Server) { s.replicaSrc = src }
}

// WithDurableStore surfaces the durable policy store's health — WAL
// position, checkpoint generation, replay report — in a "store" section
// of /v1/statsz. It does not wire the store into the decision path (the
// store's journal hook does that at construction); this is observability
// only.
func WithDurableStore(d *store.Durable) ServerOption {
	return func(s *Server) { s.durable = d }
}

// WithFollower puts the server in follower mode, serving decisions from
// f's replicated system while f keeps it converged with the primary:
//
//   - policy mutation endpoints (admin, sessions) answer 307 redirects to
//     the primary, so an admin client pointed at a follower transparently
//     administers the cluster's single writer;
//   - /v1/decide and /v1/check responses carry "stale": true once the
//     follower exceeds its staleness bound — degraded, never an outage;
//   - /v1/healthz reports 503 "degraded" while stale, letting load
//     balancers shed the node without the node refusing traffic;
//   - /v1/statsz gains a "replication" section with lag and sync counters.
func WithFollower(f *replica.Puller) ServerOption {
	return func(s *Server) { s.follower = f }
}

// StatszResponse is the /v1/statsz reply: the decision-cache counters,
// the server's admission/containment gauges, plus a replication section
// when the server is a follower, audit-trail retention accounting when
// one is attached, decision-log export counters when the server feeds an
// exporter, and the bundle trust state when a verifier is armed.
type StatszResponse struct {
	core.Stats
	Server      *ServerStats        `json:"server,omitempty"`
	Replication *replica.Stats      `json:"replication,omitempty"`
	Store       *store.DurableStats `json:"store,omitempty"`
	Audit       *audit.Summary      `json:"audit,omitempty"`
	Declog      *declog.Stats       `json:"declog,omitempty"`
	Bundle      *bundle.Status      `json:"bundle,omitempty"`
}

// HealthResponse is the /v1/healthz reply.
type HealthResponse struct {
	Status      string         `json:"status"` // "ok" | "degraded"
	Reason      string         `json:"reason,omitempty"`
	Replication *replica.Stats `json:"replication,omitempty"`
}

func (s *Server) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.replicaSrc.Snapshot())
}

// handleReplicaDelta serves the journaled mutation tail after ?after=
// (under ?epoch=). 410 Gone means the tail cannot answer — wrong epoch,
// or the position predates the retained window — and the follower should
// take a full snapshot; a source without a delta provider (an in-memory
// primary) answers 410 to every position.
func (s *Server) handleReplicaDelta(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var after uint64
	if raw := q.Get("after"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.writeStatus(w, http.StatusBadRequest, "bad after: want unsigned integer")
			return
		}
		after = n
	}
	delta, ok := s.replicaSrc.Delta(q.Get("epoch"), after)
	if !ok {
		s.writeStatus(w, http.StatusGone, "delta unavailable: take a full snapshot")
		return
	}
	s.writeJSON(w, http.StatusOK, delta)
}

// redirectToPrimary answers a follower's mutation and review-query
// routes: 307 preserves method and body, so well-behaved HTTP clients
// (including this package's Client) transparently re-issue the request
// against the primary.
func (s *Server) redirectToPrimary(w http.ResponseWriter, r *http.Request) {
	primary := s.follower.PrimaryURL()
	w.Header().Set("Location", primary+r.URL.RequestURI())
	s.writeStatus(w, http.StatusTemporaryRedirect, "read-only follower: the primary at "+primary+" answers this")
}

// stale reports whether decisions served right now should carry the
// staleness marker.
func (s *Server) stale() bool {
	return s.follower != nil && s.follower.Stale()
}
