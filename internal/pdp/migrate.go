package pdp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/faults"
	"github.com/aware-home/grbac/internal/shard"
)

// Subject ownership and migration. A shard answers every request for a
// subject it holds. A shard that follows the router's map feed
// (WithMapFeed) forwards a request for any other subject by the published
// maps, under a hop count, so no shard keeps per-subject state:
//
//	hop 0  to the committed owner, if another shard; else to the
//	       pending owner, if another shard
//	hop 1  to the pending owner, if another shard; with no pending map,
//	       to the committed owner, if another shard
//	else   answered here: 404, or a registration creates the subject
//
// A forwarded request (hop 1 or 2) is ruled on by a view at least as new
// as the one that sent it, which the shard waits for, and a shard that
// neither of its maps names the subject's owner answers it 409 instead
// of here. A session-only request is one for the subject its ID names. A
// shard without a feed never forwards. An online rebalance (DESIGN §14)
// drives the old owner's handoff: under its write gate it exports each
// subject, pushes the bundle to the new owner's import, then deletes its
// copy.
const (
	MigrateSubjectsPath = "/v1/migrate/subjects" // GET ?pending=N[&shard=ID]
	MigrateImportPath   = "/v1/migrate/import"
	MigrateHandoffPath  = "/v1/migrate/handoff"
)

// HopHeader counts the shards a forwarded request has passed, with the
// feed sequence (shard.Wire.Seq) of the view that sent it on: "1 7".
const HopHeader = "X-Grbac-Hop"

// MigrateSubjectsResponse lists a shard's resident subject IDs.
type MigrateSubjectsResponse struct {
	Subjects []string `json:"subjects"`
}

// MigrateHandoffRequest moves each subject the shard still holds to
// Move.To: copy, then delete here. Subjects it no longer holds are
// skipped, so a resumed run never copies twice.
type MigrateHandoffRequest struct {
	Moves []shard.Move `json:"moves"`
}

// ownership hangs off the Server: the feed it forwards by (nil: never),
// its own ID in the feed's maps, the forwarding clients by address, and
// the gate that orders subject-scoped mutations against handoff: the
// mutating handlers hold it shared (see gated), handoff and the resident
// listing exclusively. Decisions, batches and queries never take it.
type ownership struct {
	feed    *MapFeed
	self    string
	gate    sync.RWMutex
	clients sync.Map // addr → *Client
}

// WithMapFeed makes the server the shard named self in the maps of the
// router's feed f (the caller runs f.Run): it forwards requests for
// subjects it does not hold by the rule above and can take part in online
// rebalances. Until f's first fetch it answers only what it holds.
func WithMapFeed(self string, f *MapFeed) ServerOption {
	return func(s *Server) { s.owners.feed, s.owners.self = f, self }
}

var (
	errNoMapView = errors.New("this shard holds no such subject and has not fetched the shard map yet")
	errNotOwner  = errors.New("this shard holds no such subject and no published shard map names it the owner")
)

type hopKey struct{} // a forwarded call's HopHeader, on its context

// clientFor returns the cached forwarding client for a shard address.
func (o *ownership) clientFor(addr string) *Client {
	c, ok := o.clients.Load(addr)
	if !ok {
		c, _ = o.clients.LoadOrStore(addr, NewClient(addr, nil, WithRetry(2, 50*time.Millisecond)))
	}
	return c.(*Client)
}

// owner applies the rule to a request for subject, or for the one
// session's ID names: the shard to forward to, or nil to answer here.
func (s *Server) owner(r *http.Request, subject, session string) (*shard.Info, error) {
	f := s.owners.feed
	if f == nil {
		return nil, nil
	}
	if subject == "" {
		sub, _ := core.SessionSubject(core.SessionID(session))
		subject = string(sub)
	}
	if subject == "" || s.sys.HasSubject(core.SubjectID(subject)) {
		return nil, nil
	}
	v := f.View()
	if v == nil {
		return nil, errNoMapView
	}
	hop, sent, _ := strings.Cut(r.Header.Get(HopHeader), " ")
	if seq, _ := strconv.ParseUint(sent, 10, 64); hop != "" && v.seq < seq {
		ctx, cancel := context.WithTimeout(r.Context(), DefaultShardTimeout)
		err := f.await(ctx, func(v *MapView) bool { return v.seq >= seq })
		cancel()
		if err != nil {
			return nil, fmt.Errorf("this shard's map feed is behind the shard that forwarded the request: %w", err)
		}
		v = f.View()
	}
	self := s.owners.self
	to := v.Committed.Owner(subject)
	if v.Pending != nil && (hop != "" || to.ID == self) {
		to = v.Pending.Owner(subject)
	}
	switch {
	case to.ID != self && hop != "2":
		return &to, nil
	case hop != "" && to.ID != self && v.Committed.Owner(subject).ID != self:
		return nil, errNotOwner
	}
	return nil, nil
}

// forward answers a request the rule does not leave to this shard, and
// reports whether it did. in is the decoded body to re-serialize (nil
// for GETs).
func (s *Server) forward(w http.ResponseWriter, r *http.Request, subject, session string, in any) bool {
	sh, err := s.owner(r, subject, session)
	return s.forwardTo(w, r, sh, err, in)
}

// forwardTo relays the request to sh, the rule's answer (err when it had
// none), one hop further, and the reply back verbatim. The correlation ID
// correlate settled goes along, so the owner audits under the caller's ID.
func (s *Server) forwardTo(w http.ResponseWriter, r *http.Request, sh *shard.Info, err error, in any) bool {
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, errNotOwner) {
			status = http.StatusConflict
		}
		s.writeStatus(w, status, err.Error())
		return true
	}
	if sh == nil {
		return false
	}
	if err := faults.Inject(faults.MigrateForward); err != nil {
		s.writeStatus(w, http.StatusServiceUnavailable, "forward failed: "+err.Error())
		return true
	}
	path := r.URL.RequestURI()
	ctx := context.WithValue(r.Context(), hopKey{}, s.nextHop(r))
	if id := w.Header()[CorrelationHeader]; len(id) > 0 {
		ctx = withCorrelation(ctx, id[0])
	}
	var raw json.RawMessage
	if err := s.owners.clientFor(sh.Addr).Call(ctx, r.Method, path, in, &raw); err != nil {
		relayShardError(w, sh.ID, err)
		return true
	}
	writeReply(w, raw)
	return true
}

// nextHop is the HopHeader a request forwarded from r carries: its hop
// count and the sequence of the view that placed it.
func (s *Server) nextHop(r *http.Request) string {
	hop := "2 "
	if r.Header.Get(HopHeader) == "" {
		hop = "1 "
	}
	return hop + strconv.FormatUint(s.owners.feed.View().seq, 10)
}

// gated is forward for the subject-scoped mutating handlers, under the
// shared gate. A request answered here returns with the gate held, and
// the caller applies it and then calls release: a handoff sees each
// mutation either applied before its export or arriving after its
// delete. A forwarded mutation drops the gate first.
func (s *Server) gated(w http.ResponseWriter, r *http.Request, subject, session string, in any) (release func(), handled bool) {
	s.owners.gate.RLock()
	sh, err := s.owner(r, subject, session)
	if err == nil && sh == nil {
		return s.owners.gate.RUnlock, false
	}
	s.owners.gate.RUnlock()
	return nil, s.forwardTo(w, r, sh, err, in)
}

// forwardBatch has the batch items that failed here for a subject this
// shard does not hold mediated by their owners, one sub-batch per owner
// under the batch's correlation ID corr, over the local results.
func (s *Server) forwardBatch(r *http.Request, corr string, reqs []DecideRequest, out []BatchItem) {
	if s.owners.feed == nil {
		return
	}
	splitBatch(reqs, func(i int, dr *DecideRequest) (string, bool) {
		if out[i].Error == "" {
			return "", false
		}
		sh, err := s.owner(r, dr.Subject, dr.Session)
		if err != nil {
			out[i].Error = err.Error()
		}
		if sh == nil {
			return "", false
		}
		return sh.Addr, true
	}, func(addr string, sub []DecideRequest) (BatchDecideResponse, error) {
		if err := faults.Inject(faults.MigrateForward); err != nil {
			return BatchDecideResponse{}, err
		}
		ctx := context.WithValue(withCorrelation(r.Context(), corr), hopKey{}, s.nextHop(r))
		return s.owners.clientFor(addr).DecideBatch(ctx, sub)
	}, func(_ string, idx []int, resp BatchDecideResponse, err error) {
		for j, i := range idx {
			if err != nil {
				out[i] = BatchItem{Error: "forward failed: " + err.Error()}
				continue
			}
			out[i] = resp.Results[j]
		}
	})
}

// handleMigrateSubjects lists the resident subjects once the feed holds
// a map, committed or pending, of version ?pending=N or later, under the
// exclusive gate: every registration placed by an older map has landed,
// and every later one is placed by N. The coordinator also asks it at the
// committed version, to check that the shard is ready for a run. A
// ?shard=ID other than the one the shard follows the feed as is refused:
// the shard would forward by another shard's identity.
func (s *Server) handleMigrateSubjects(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	version, err := strconv.ParseUint(q.Get("pending"), 10, 64)
	id := q.Get("shard")
	switch {
	case err != nil:
		s.writeStatus(w, http.StatusBadRequest, "bad pending: want the pending map's version")
		return
	case s.owners.feed == nil:
		s.writeStatus(w, http.StatusConflict, "this shard follows no shard-map feed, so it cannot take part in a rebalance")
		return
	case id != "" && id != s.owners.self:
		s.writeStatus(w, http.StatusConflict, fmt.Sprintf("this shard follows the shard-map feed as %q, not %q", s.owners.self, id))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
	defer cancel()
	err = s.owners.feed.await(ctx, func(v *MapView) bool {
		return v.Committed.Version() >= version || (v.Pending != nil && v.Pending.Version() >= version)
	})
	if err != nil {
		s.writeStatus(w, http.StatusServiceUnavailable, fmt.Sprintf("shard-map feed has not delivered map v%d: %v", version, err))
		return
	}
	s.owners.gate.Lock()
	defer s.owners.gate.Unlock()
	ids := s.sys.Subjects()
	resp := MigrateSubjectsResponse{Subjects: make([]string, 0, len(ids))}
	for _, id := range ids {
		resp.Subjects = append(resp.Subjects, string(id))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMigrateImport(w http.ResponseWriter, r *http.Request) {
	var b core.SubjectBundle
	if !readJSON(w, r, &b, true) {
		return
	}
	if err := s.sys.RestoreSubject(b); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMigrateHandoff(w http.ResponseWriter, r *http.Request) {
	var req MigrateHandoffRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	s.owners.gate.Lock()
	defer s.owners.gate.Unlock()
	for _, mv := range req.Moves {
		id := core.SubjectID(mv.Subject)
		b, err := s.sys.ExportSubject(id)
		if errors.Is(err, core.ErrNotFound) {
			continue // handed off already: the copy's absence is the record
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		// Every subject-scoped write on this shard waits while the gate
		// is held, so an unresponsive new owner fails the handoff instead.
		ctx, cancel := context.WithTimeout(r.Context(), DefaultShardTimeout)
		err = s.owners.clientFor(mv.To.Addr).Call(ctx, http.MethodPost, MigrateImportPath, b, nil)
		cancel()
		if err != nil {
			relayShardError(w, mv.To.ID, err)
			return
		}
		if err := s.sys.RemoveSubject(id); err != nil {
			s.writeError(w, err)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// MigrationNode adapts a Client into the coordinator's per-shard
// interface (shard.NodeClient).
type MigrationNode struct {
	// ID is the shard's ID in the map. Every resident listing carries it,
	// and a shard that follows the feed as another ID refuses the listing,
	// so the coordinator's readiness check fails on a misnamed shard.
	// Empty skips the check.
	ID string
	c  *Client
}

// NewMigrationNode wraps the given addr's client for coordinator use.
func NewMigrationNode(addr string) *MigrationNode {
	return &MigrationNode{c: NewClient(addr, nil, WithRetry(3, 100*time.Millisecond))}
}

// Subjects lists the shard's residents once its feed holds a map of at
// least the given version.
func (n *MigrationNode) Subjects(ctx context.Context, version uint64) ([]string, error) {
	path := MigrateSubjectsPath + "?pending=" + strconv.FormatUint(version, 10)
	if n.ID != "" {
		path += "&shard=" + url.QueryEscape(n.ID)
	}
	var resp MigrateSubjectsResponse
	err := n.c.Call(ctx, http.MethodGet, path, nil, &resp)
	return resp.Subjects, err
}

// Handoff moves the subjects the shard still holds to their new owners.
func (n *MigrationNode) Handoff(ctx context.Context, moves []shard.Move) error {
	return n.c.Call(ctx, http.MethodPost, MigrateHandoffPath, MigrateHandoffRequest{Moves: moves}, nil)
}
