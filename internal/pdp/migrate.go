package pdp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/faults"
	"github.com/aware-home/grbac/internal/shard"
)

// Shard-side subject migration. During an online rebalance the
// coordinator (internal/shard.Coordinator) drives each shard through
// these endpoints:
//
//	GET  /v1/migrate/subjects — list this shard's subject IDs
//	POST /v1/migrate/handoff  — copy moving subjects to their new owners
//	                            and start proxying them
//	POST /v1/migrate/import   — idempotently restore a bundle (the new
//	                            owner's half of a handoff)
//	POST /v1/migrate/complete — drop moved subjects, keep proxying them
//
// Handoff is the whole per-subject move. The old owner holds its write
// gate exclusively while it exports each subject, pushes the bundle to
// the new owner's import and installs the proxy entry; the
// subject-scoped mutating handlers hold the gate shared from their
// forwarding-table check through their apply. So every acked mutation
// either landed before the export, and travelled with the bundle, or
// was proxied to the new owner after the import, and the old copy is
// never consulted again. After complete the subject is gone locally
// and its proxy entry stays: a caller whose map is stale, however many
// moves behind, still gets the owner's answer, one proxied hop per move.
const (
	MigrateSubjectsPath = "/v1/migrate/subjects"
	MigrateImportPath   = "/v1/migrate/import"
	MigrateHandoffPath  = "/v1/migrate/handoff"
	MigrateCompletePath = "/v1/migrate/complete"
)

// MigrateMove names one subject's new owner by its address.
type MigrateMove struct {
	Subject string `json:"subject"`
	Addr    string `json:"addr"`
}

// MigrateSubjectsResponse lists a shard's resident subject IDs.
type MigrateSubjectsResponse struct {
	Subjects []string `json:"subjects"`
}

// MigrateHandoffRequest copies each moving subject to its new owner and
// installs its forwarding entry (the proxy window opens). Subjects that
// already have an entry are skipped, so a resumed run never copies
// twice.
type MigrateHandoffRequest struct {
	Moves []MigrateMove `json:"moves"`
}

// MigrateCompleteRequest removes moved subjects from this shard; their
// forwarding entries stay, so the shard keeps proxying them. Idempotent:
// subjects already removed are skipped.
type MigrateCompleteRequest struct {
	Moves []MigrateMove `json:"moves"`
}

// migrateTable is the immutable forwarding table; writers copy-on-write
// under migrationState.mu, readers do one atomic load. entries maps each
// moved subject to its new owner's address. A request naming only a
// session resolves through the subject its ID names, so sessions need no
// entries of their own.
type migrateTable struct {
	entries map[string]string
}

// migrationState hangs off the Server; its zero value (no table, no
// clients) costs the fast path a single nil-check atomic load. gate
// orders subject-scoped mutations against handoff: the mutating
// handlers hold it shared (see lockedIntercept), handoff exclusively.
// Decisions, batches and queries never take it.
type migrationState struct {
	table   atomic.Pointer[migrateTable]
	gate    sync.RWMutex
	mu      sync.Mutex
	clients map[string]*Client
}

// clientFor returns the cached forwarding client for a new-owner addr.
func (m *migrationState) clientFor(addr string) *Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.clients[addr]; ok {
		return c
	}
	if m.clients == nil {
		m.clients = make(map[string]*Client)
	}
	c := NewClient(addr, nil, WithRetry(2, 50*time.Millisecond))
	m.clients[addr] = c
	return c
}

// update copy-on-writes the forwarding table.
func (m *migrationState) update(mutate func(t *migrateTable)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := &migrateTable{entries: make(map[string]string)}
	if cur := m.table.Load(); cur != nil {
		for k, v := range cur.entries {
			next.entries[k] = v
		}
	}
	mutate(next)
	m.table.Store(next)
}

// migrateFor resolves a request's subject (directly, or as the one its
// session ID names) against the forwarding table, returning its new
// owner's address. The common no-migration case is one atomic load and a
// nil check.
func (s *Server) migrateFor(subject, session string) (addr string, moved bool) {
	t := s.migration.table.Load()
	if t == nil || len(t.entries) == 0 {
		return "", false
	}
	if subject == "" {
		sub, _ := core.SessionSubject(core.SessionID(session))
		subject = string(sub)
	}
	addr, moved = t.entries[subject]
	return addr, moved
}

// migrateForward proxies the (already decoded) request to the subject's
// new owner and relays the reply verbatim. in is the decoded request body
// to re-serialize (nil for GETs — the path+query carry everything). A
// decision's correlation ID, as correlate settled it on the reply, goes
// with the request, so the new owner's audit record and reply body carry
// the caller's ID.
func (s *Server) migrateForward(w http.ResponseWriter, r *http.Request, addr string, in any) {
	if err := faults.Inject(faults.MigrateForward); err != nil {
		s.writeStatus(w, http.StatusServiceUnavailable, "handoff forward failed: "+err.Error())
		return
	}
	path := r.URL.Path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	ctx := r.Context()
	if id := w.Header()[CorrelationHeader]; len(id) > 0 {
		ctx = withCorrelation(ctx, id[0])
	}
	var raw json.RawMessage
	if err := s.migration.clientFor(addr).Call(ctx, r.Method, path, in, &raw); err != nil {
		s.relayMigrateError(w, err)
		return
	}
	writeReply(w, raw)
}

// relayMigrateError maps a forwarding failure onto the reply: the new
// owner's own status and body pass through, transport failures become a
// 502 so the caller can tell "new owner said no" from "could not reach
// new owner".
func (s *Server) relayMigrateError(w http.ResponseWriter, err error) {
	var re *RemoteError
	if errors.As(err, &re) {
		body := ErrorResponse{Error: re.Message}
		if body.Error == "" {
			body.Error = fmt.Sprintf("new owner replied %d", re.Status)
		}
		s.writeJSON(w, re.Status, body)
		return
	}
	s.writeStatus(w, http.StatusBadGateway, "handoff forward: "+err.Error())
}

// migrateIntercept is the hook at the top of the subject-scoped read
// handlers: not-moved subjects fall through at the cost of one atomic
// load; moved subjects are proxied to their new owner. It reports
// whether it wrote the response.
func (s *Server) migrateIntercept(w http.ResponseWriter, r *http.Request, subject, session string, in any) bool {
	addr, ok := s.migrateFor(subject, session)
	if !ok {
		return false
	}
	s.migrateForward(w, r, addr, in)
	return true
}

// lockedIntercept is migrateIntercept for the subject-scoped mutating
// handlers, under the shared gate. When the subject has not moved it
// returns with the gate still held, and the caller applies the mutation
// and then calls release: a handoff, which takes the gate exclusively,
// sees each mutation either applied before its export or arriving after
// its proxy entry. A moved subject's mutation is proxied with the gate
// already dropped, so no remote hop ever holds it.
func (s *Server) lockedIntercept(w http.ResponseWriter, r *http.Request, subject, session string, in any) (release func(), handled bool) {
	s.migration.gate.RLock()
	addr, ok := s.migrateFor(subject, session)
	if !ok {
		return s.migration.gate.RUnlock, false
	}
	s.migration.gate.RUnlock()
	s.migrateForward(w, r, addr, in)
	return nil, true
}

// migrateBatch mediates the batch items that belong to migrated subjects
// on their new owners, as one proxied sub-batch per owner sent under the
// batch's correlation ID corr. The returned slice aligns with reqs: nil
// entries stay locally mediated. A shard with no forwarding table returns
// nil outright (one atomic load).
func (s *Server) migrateBatch(ctx context.Context, corr string, reqs []DecideRequest) []*BatchItem {
	t := s.migration.table.Load()
	if t == nil || len(t.entries) == 0 {
		return nil
	}
	ctx = withCorrelation(ctx, corr)
	out := make([]*BatchItem, len(reqs))
	SplitBatch(reqs, func(_ int, dr *DecideRequest) (string, bool) {
		return s.migrateFor(dr.Subject, dr.Session)
	}, func(addr string, sub []DecideRequest) (BatchDecideResponse, error) {
		if err := faults.Inject(faults.MigrateForward); err != nil {
			return BatchDecideResponse{}, err
		}
		return s.migration.clientFor(addr).DecideBatch(ctx, sub)
	}, func(_ string, idx []int, resp BatchDecideResponse, err error) {
		for j, i := range idx {
			if err != nil {
				out[i] = &BatchItem{Error: "handoff forward failed: " + err.Error()}
				continue
			}
			out[i] = &resp.Results[j]
		}
	})
	return out
}

// registerMigrate mounts the migration endpoints; they ride the admin
// plane (a shard without admin cannot be rebalanced into or out of).
func (s *Server) registerMigrate(mux *http.ServeMux) {
	mux.HandleFunc(MigrateSubjectsPath, s.handleMigrateSubjects)
	mux.HandleFunc(MigrateImportPath, s.handleMigrateImport)
	mux.HandleFunc(MigrateHandoffPath, s.handleMigrateHandoff)
	mux.HandleFunc(MigrateCompletePath, s.handleMigrateComplete)
}

func (s *Server) handleMigrateSubjects(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeStatus(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	ids := s.sys.Subjects()
	resp := MigrateSubjectsResponse{Subjects: make([]string, 0, len(ids))}
	for _, id := range ids {
		resp.Subjects = append(resp.Subjects, string(id))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMigrateImport(w http.ResponseWriter, r *http.Request) {
	var b core.SubjectBundle
	if !s.readBody(w, r, &b, http.MethodPost) {
		return
	}
	if err := s.sys.RestoreSubject(b); err != nil {
		s.writeError(w, err)
		return
	}
	// An import means this shard is (becoming) the subject's owner: a
	// stale forwarding entry from an earlier move in the other direction
	// must not shadow the live copy.
	s.migration.update(func(t *migrateTable) { delete(t.entries, string(b.Subject.ID)) })
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMigrateHandoff(w http.ResponseWriter, r *http.Request) {
	var req MigrateHandoffRequest
	if !s.readBody(w, r, &req, http.MethodPost) {
		return
	}
	s.migration.gate.Lock()
	defer s.migration.gate.Unlock()
	// Every subject-scoped write on this shard waits while the gate is
	// held, so an unresponsive new owner fails the handoff instead.
	ctx, cancel := context.WithTimeout(r.Context(), DefaultShardTimeout)
	defer cancel()
	for _, mv := range req.Moves {
		// An entry means this subject was handed off already (a resumed
		// run): the new owner's copy is live, and the local one stale.
		if _, moved := s.migrateFor(mv.Subject, ""); moved {
			continue
		}
		b, err := s.sys.ExportSubject(core.SubjectID(mv.Subject))
		if err != nil {
			s.writeError(w, err)
			return
		}
		if err := s.migration.clientFor(mv.Addr).Call(ctx, http.MethodPost, MigrateImportPath, b, nil); err != nil {
			s.relayMigrateError(w, err)
			return
		}
		s.migration.update(func(t *migrateTable) { t.entries[mv.Subject] = mv.Addr })
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMigrateComplete(w http.ResponseWriter, r *http.Request) {
	var req MigrateCompleteRequest
	if !s.readBody(w, r, &req, http.MethodPost) {
		return
	}
	// Handoff installed the proxy entries and they stay. Writing them
	// again, in one table copy for the whole request and before any local
	// copy goes, covers an old owner restarted since handoff, which lost
	// its in-memory table and now loses its stale copies too.
	s.migration.update(func(t *migrateTable) {
		for _, mv := range req.Moves {
			t.entries[mv.Subject] = mv.Addr
		}
	})
	for _, mv := range req.Moves {
		err := s.sys.RemoveSubject(core.SubjectID(mv.Subject))
		if err != nil && !errors.Is(err, core.ErrNotFound) {
			s.writeError(w, err)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// MigrationNode adapts a Client into the coordinator's per-shard
// interface (shard.NodeClient). Subject bundles travel shard to shard,
// never through the coordinator.
type MigrationNode struct {
	c *Client
}

// NewMigrationNode wraps the given addr's client for coordinator use.
func NewMigrationNode(addr string) *MigrationNode {
	return &MigrationNode{c: NewClient(addr, nil, WithRetry(3, 100*time.Millisecond))}
}

// Subjects lists the shard's resident subjects.
func (n *MigrationNode) Subjects(ctx context.Context) ([]string, error) {
	var resp MigrateSubjectsResponse
	if err := n.c.Call(ctx, http.MethodGet, MigrateSubjectsPath, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Subjects, nil
}

// Handoff moves the given subjects: the shard copies each to its new
// owner and proxies its traffic there from then on.
func (n *MigrationNode) Handoff(ctx context.Context, moves []shard.Move) error {
	return n.c.Call(ctx, http.MethodPost, MigrateHandoffPath,
		MigrateHandoffRequest{Moves: fromShardMoves(moves)}, nil)
}

// Complete drops the moved subjects; the shard keeps proxying them.
func (n *MigrationNode) Complete(ctx context.Context, moves []shard.Move) error {
	return n.c.Call(ctx, http.MethodPost, MigrateCompletePath,
		MigrateCompleteRequest{Moves: fromShardMoves(moves)}, nil)
}

func fromShardMoves(moves []shard.Move) []MigrateMove {
	out := make([]MigrateMove, 0, len(moves))
	for _, mv := range moves {
		out = append(out, MigrateMove{Subject: mv.Subject, Addr: mv.To.Addr})
	}
	return out
}
