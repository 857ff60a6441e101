package pdp

import (
	"errors"
	"log"
	"net/http"

	"github.com/aware-home/grbac/internal/shard"
)

// Rebalance HTTP surface: the routing tier exposes the coordinator so
// operators (grbacctl rebalance ...) can grow or shrink the cluster
// online. A rebalance is minutes of streaming work, so the POST is
// asynchronous: it validates, kicks the coordinator in the background,
// and answers 202 with the starting status; progress is polled from
// the status endpoint, and the pending and committed maps reach shards
// and SDK clients through the map watch.

// ShardRebalancePath starts a rebalance (POST {action,id,addr}).
const ShardRebalancePath = "/v1/shard/rebalance"

// ShardRebalanceStatusPath reports coordinator progress (GET).
const ShardRebalanceStatusPath = "/v1/shard/rebalance/status"

// RebalanceRequest asks the routing tier to grow ("add") or shrink
// ("remove") the cluster. Add needs the new shard's ID and address;
// remove needs only the ID.
type RebalanceRequest struct {
	Action string `json:"action"`
	ID     string `json:"id"`
	Addr   string `json:"addr,omitempty"`
}

// RebalanceHandler mounts the coordinator behind the two rebalance
// endpoints. Construct with NewRebalanceHandler and mount on an outer
// mux alongside the Router.
type RebalanceHandler struct {
	rt    *Router
	coord *shard.Coordinator
	mux   *http.ServeMux
	log   *log.Logger
}

// NewRebalanceHandler wires a coordinator to a router: the POSTed
// action rebalances relative to the router's active map, and the
// callbacks given to the coordinator (typically Router.SetPending, and
// Router.SetMap plus persistence) publish the run.
func NewRebalanceHandler(rt *Router, coord *shard.Coordinator, logger *log.Logger) *RebalanceHandler {
	if logger == nil {
		logger = log.Default()
	}
	h := &RebalanceHandler{rt: rt, coord: coord, log: logger}
	h.mux = newMux()
	handle(h.mux, ShardRebalancePath, h.handleStart, http.MethodPost)
	handle(h.mux, ShardRebalanceStatusPath, h.handleStatus, http.MethodGet)
	return h
}

func (h *RebalanceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *RebalanceHandler) handleStart(w http.ResponseWriter, r *http.Request) {
	var req RebalanceRequest
	if !readJSON(w, r, &req, false) {
		return
	}
	cur := h.rt.Map()
	var next *shard.Map
	var err error
	switch req.Action {
	case "add":
		if req.ID == "" || req.Addr == "" {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "add requires id and addr"})
			return
		}
		next, err = cur.Add(shard.Info{ID: req.ID, Addr: req.Addr})
	case "remove":
		if req.ID == "" {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "remove requires id"})
			return
		}
		next, err = cur.Remove(req.ID)
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "action must be add or remove"})
		return
	}
	if err != nil {
		// Shape errors (duplicate ID, unknown shard, last shard) are the
		// caller's mistake: synchronous 400, no background run.
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	// Start claims the single-flight slot, checks every shard of the run
	// and journals it before returning: concurrent POSTs race inside the
	// coordinator, not here, and the loser gets 409.
	st, err := h.coord.Start(r.Context(), cur, next)
	if err != nil {
		status := http.StatusBadGateway // a shard of the run is not ready
		if errors.Is(err, shard.ErrRebalanceActive) {
			status = http.StatusConflict
		}
		writeJSON(w, status, ErrorResponse{Error: err.Error()})
		return
	}
	h.log.Printf("rebalance %s %s accepted: map v%d -> v%d", req.Action, req.ID, st.FromVersion, st.ToVersion)
	writeJSON(w, http.StatusAccepted, st)
}

func (h *RebalanceHandler) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, h.coord.Status())
}
