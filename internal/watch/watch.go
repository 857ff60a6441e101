// Package watch is the one versioned long-poll behind every feed a tier
// follows: the policy generation a replication primary exports and the
// shard-map version a router pushes. A Notifier publishes a feed's version
// and parks waiters on it; Handler serves it as
//
//	GET <path>?after=N[&wait=D]
//
// which answers 200 with the feed's reply once the version exceeds N, the
// smaller of D and MaxWait elapses, or the client leaves, and 400 for a
// malformed after or a non-positive wait. Its mounts are GET routes. The
// capped "no change" reply doubles as a keepalive, so a follower can tell
// an idle feed from a dead one; a server armed with DrainOnShutdown sends
// it to every parked poll when its Shutdown starts.
package watch

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// MaxWait caps one long-poll. It sits below common load-balancer idle
// timeouts, so a parked poll is not severed mid-flight.
const MaxWait = 25 * time.Second

// Notifier holds a feed's version and wakes everyone waiting on it at each
// Publish. The zero value is ready at version 0.
type Notifier struct {
	mu sync.Mutex
	v  uint64
	ch chan struct{} // closed at the next Publish; nil until asked for
}

// Publish sets the version to v and wakes every waiter. Callers publish a
// monotonic sequence.
func (n *Notifier) Publish(v uint64) {
	n.mu.Lock()
	n.v = v
	if n.ch != nil {
		close(n.ch)
		n.ch = nil
	}
	n.mu.Unlock()
}

// Changed returns a channel closed at the next Publish. To wait for a
// change without missing one, take the channel first and read the version
// second: a Publish between the two shows in the version, and a Publish
// after closes the channel already held.
func (n *Notifier) Changed() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.changedLocked()
}

func (n *Notifier) changedLocked() chan struct{} {
	if n.ch == nil {
		n.ch = make(chan struct{})
	}
	return n.ch
}

// Wait blocks until the version exceeds after or ctx is done, and returns
// the version it ends at. Running out of ctx is a normal answer ("nothing
// new yet"), not an error.
func (n *Notifier) Wait(ctx context.Context, after uint64) uint64 {
	for {
		n.mu.Lock()
		v, ch := n.v, n.changedLocked()
		n.mu.Unlock()
		if v > after || ctx.Err() != nil {
			return v
		}
		select {
		case <-ctx.Done():
		case <-ch:
		}
	}
}

// Handler serves one feed as a long-poll. wait parks the request until the
// feed's version exceeds after or ctx is done and returns the version
// reached; it sees the request for feeds whose position holds more than a
// version (the replica feed's epoch). reply renders the 200 body.
func Handler(wait func(ctx context.Context, r *http.Request, after uint64) uint64, reply func(v uint64) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var after uint64
		if raw := q.Get("after"); raw != "" {
			n, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorBody{"bad after: want unsigned integer"})
				return
			}
			after = n
		}
		d := MaxWait
		if raw := q.Get("wait"); raw != "" {
			cd, err := time.ParseDuration(raw)
			if err != nil || cd <= 0 {
				writeJSON(w, http.StatusBadRequest, errorBody{"bad wait: want positive Go duration"})
				return
			}
			d = min(d, cd)
		}
		// A park may outlast the server's WriteTimeout (grbacd's is below
		// MaxWait): move this reply's write deadline past it, or the answer
		// is cut off.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(d + 10*time.Second))
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		if drain, ok := r.Context().Value(drainKey{}).(context.Context); ok {
			defer context.AfterFunc(drain, cancel)()
		}
		writeJSON(w, http.StatusOK, reply(wait(ctx, r, after)))
	}
}

type drainKey struct{} // a DrainOnShutdown server's drain, on its requests' contexts

// DrainOnShutdown makes srv's Shutdown end every long-poll it has parked
// with the normal "nothing new" reply, so a drain waits out in-flight
// requests and not parked ones. Every other request keeps its context.
// It sets srv.BaseContext; call it before srv serves.
func DrainOnShutdown(srv *http.Server) {
	drain, start := context.WithCancel(context.Background())
	srv.RegisterOnShutdown(start)
	srv.BaseContext = func(net.Listener) context.Context {
		return context.WithValue(context.Background(), drainKey{}, drain)
	}
}

// errorBody is the error envelope of every JSON endpoint in the repository.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client left; nobody is left to tell.
	_ = json.NewEncoder(w).Encode(v)
}
