package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/shard"
)

// shadow is how a traced run times the layers it cannot wrap. The real
// system's core, audit and JSON work happens inside ServeHTTP or inside the
// SDK; the shadow holds the same policy in memory, is fed the identical op
// stream after each real operation, and is timed call by call. Its numbers
// are probes beside the operation, not spans of it.
type shadow struct {
	w     *world
	check bool // the real path asks CheckAccess (the SDK's hot path), not Decide
	audit bool // the real path logs every decision to an audit ring
	wire  bool // the real path crosses HTTP
	owner *shard.Map
	parts map[string]*shadowPart // per shard; one part under "" otherwise

	hitNs, walkNs, compileNs, sessionNs, mutateNs              []float64
	auditNs, reqEncNs, reqDecNs, respEncNs, respDecNs, ownerNs []float64
	inprocNs, sdkLocalNs                                       []float64

	decisions  int
	rootSum    time.Duration // real decide calls
	coreSum    time.Duration // the same decisions on the shadow
	auditSum   time.Duration
	reqDecSum  time.Duration
	respEncSum time.Duration
}

// shadowPart mirrors one node: a system for timing core calls, and a second
// system behind a pdp.Server for timing ServeHTTP without a network.
type shadowPart struct {
	sys    *core.System
	trail  *audit.Logger
	inSys  *core.System
	inproc http.Handler
}

func newShadow(wl workload, w *world) (*shadow, error) {
	s := &shadow{
		w:     w,
		check: wl.topo == "embedded",
		audit: wl.topo != "embedded",
		wire:  wl.topo == "direct" || wl.topo == "cluster",
		parts: make(map[string]*shadowPart),
	}
	states := map[string]core.State{"": w.state}
	if wl.topo == "cluster" {
		owner, err := shardOwner()
		if err != nil {
			return nil, err
		}
		s.owner = owner
		states = make(map[string]core.State)
		for _, id := range shardIDs {
			states[id] = partition(w.state, owner, id)
		}
	}
	for id, st := range states {
		p := &shadowPart{trail: audit.NewLogger()}
		var err error
		if p.sys, err = importState(core.NewSystem(), st); err != nil {
			return nil, err
		}
		if s.wire {
			if p.inSys, err = importState(core.NewSystem(), st); err != nil {
				return nil, err
			}
			p.inproc = pdp.NewServer(p.inSys, pdp.WithAuditLogger(audit.NewLogger()), pdp.WithErrorLog(quiet))
		}
		s.parts[id] = p
	}
	return s, nil
}

func (s *shadow) part(subject string) *shadowPart {
	if s.owner == nil {
		return s.parts[""]
	}
	start := time.Now()
	id := s.owner.Owner(subject).ID
	s.ownerNs = append(s.ownerNs, float64(time.Since(start)))
	return s.parts[id]
}

func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// decided replays a block of decisions the real system has just answered in
// `root`, classifying the shadow's work as cache hit, walk or compile by the
// movement of core's own counters. The block is timed as a whole, as the
// real one was; a block that mixes hits and misses adds to the core total
// but gives no per-class sample. Only single-decision blocks run on the
// cluster, so a block never spans shards.
func (s *shadow) decided(batch []*request, root time.Duration, reply []byte) {
	p := s.part(string(batch[0].core.Subject))
	before := p.sys.Stats()
	var d core.Decision
	spent := timed(func() {
		for _, r := range batch {
			if s.check {
				_, _ = p.sys.CheckAccess(r.core)
			} else {
				d, _ = p.sys.Decide(r.core)
			}
		}
	})
	after := p.sys.Stats()
	per := float64(spent) / float64(len(batch))
	switch {
	case after.SnapshotCompiles > before.SnapshotCompiles && len(batch) == 1:
		s.compileNs = append(s.compileNs, per)
	case after.DecisionMisses == before.DecisionMisses:
		s.hitNs = append(s.hitNs, per)
	case len(batch) == 1:
		s.walkNs = append(s.walkNs, per)
	}
	s.decisions += len(batch)
	s.rootSum += root
	s.coreSum += spent
	if s.check {
		s.sdkLocalNs = append(s.sdkLocalNs, float64(root-spent)/float64(len(batch)))
	}
	if len(batch) > 1 {
		return
	}
	if s.audit {
		dt := timed(func() { p.trail.LogWith(batch[0].core, d, "0123456789abcdef") })
		s.auditNs = append(s.auditNs, float64(dt))
		s.auditSum += dt
	}
	if s.wire {
		s.wireProbes(p, batch[0], reply)
	}
}

// wireProbes times the JSON work of one HTTP decision and the server's
// ServeHTTP on a recorder, where no connection is involved.
func (s *shadow) wireProbes(p *shadowPart, r *request, reply []byte) {
	var raw []byte
	dt := timed(func() { raw, _ = json.Marshal(r.wire) })
	s.reqEncNs = append(s.reqEncNs, float64(dt))
	var dr pdp.DecideRequest
	dt = timed(func() { _ = json.Unmarshal(raw, &dr) })
	s.reqDecNs = append(s.reqDecNs, float64(dt))
	s.reqDecSum += dt
	if len(reply) > 0 {
		var resp pdp.DecideResponse
		dt = timed(func() { _ = json.Unmarshal(reply, &resp) })
		s.respDecNs = append(s.respDecNs, float64(dt))
		dt = timed(func() { _, _ = json.Marshal(resp) })
		s.respEncNs = append(s.respEncNs, float64(dt))
		s.respEncSum += dt
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	dt = timed(func() { p.inproc.ServeHTTP(rec, req) })
	s.inprocNs = append(s.inprocNs, float64(dt))
}

func (s *shadow) session(subject string) {
	p := s.part(subject)
	dt := timed(func() {
		if sid, err := p.sys.CreateSession(core.SubjectID(subject)); err == nil {
			_ = p.sys.CloseSession(sid)
		}
	})
	s.sessionNs = append(s.sessionNs, float64(dt))
	if p.inSys != nil {
		if sid, err := p.inSys.CreateSession(core.SubjectID(subject)); err == nil {
			_ = p.inSys.CloseSession(sid)
		}
	}
}

func (s *shadow) flip(subject string) {
	p := s.part(subject)
	role := s.w.roleName[flipRoleIdx]
	dt := timed(func() { _ = p.sys.AssignSubjectRole(core.SubjectID(subject), role) })
	s.mutateNs = append(s.mutateNs, float64(dt))
	if p.inSys != nil {
		_ = p.inSys.AssignSubjectRole(core.SubjectID(subject), role)
	}
}
