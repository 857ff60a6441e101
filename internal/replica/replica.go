// Package replica turns one grbacd into a primary/follower cluster.
//
// The paper's deployment picture (§4.2.2) is many enforcement points — the
// Aware Home's sensors, appliances, and gateways — mediating against one
// centrally administered policy. A single in-memory PDP serves that shape
// only until the request rate outgrows one process. This package
// replicates the policy instead of the decisions: a primary exports a
// generation-stamped snapshot of its core.State and a long-poll watch on
// the policy generation; followers import the snapshot into their own
// core.System and re-sync whenever the generation advances. Every
// follower then answers Decide traffic locally, at local speed, from
// byte-identical policy.
//
// The protocol is three read-only HTTP endpoints on the primary:
//
//	GET /v1/replica/snapshot
//	    → {"epoch": e, "generation": g, "state": {...}}
//	GET /v1/replica/watch?epoch=e&after=g[&wait=d]
//	    → {"epoch": e', "generation": g'}   (blocks until g' > g or the
//	      poll cap — the smaller of internal/watch's MaxWait and the
//	      optional ?wait= duration — elapses; a foreign epoch answers at
//	      once)
//	GET /v1/replica/delta?epoch=e&after=g
//	    → {"epoch": e, "after": g, "generation": g', "mutations": [...]}
//	      or 410 Gone when no journal tail can answer (see DeltaPath)
//
// The watch is internal/watch's long-poll, the same one the router's
// shard-map watch runs. Its capped "no change" reply doubles as a
// liveness keepalive: followers request a ?wait= inside their staleness
// bound (KeepaliveWait), so a quiet primary keeps proving it is
// reachable.
//
// Generations are the monotonic mutation counter PR 1 introduced for
// decision-cache invalidation; they totally order policy versions within
// one primary process. The epoch — a random token minted when the
// primary's feed is constructed — disambiguates across primary restarts,
// where the generation counter resets: a follower that observes a new
// epoch discards its generation bookkeeping and takes a full snapshot.
//
// Followers degrade gracefully, never hard-fail: past the configured
// staleness bound they keep serving decisions (marked stale by the PDP
// layer) while retrying the primary with exponential backoff and jitter.
package replica

import "github.com/aware-home/grbac/internal/core"

// Paths of the replication feed on the primary's HTTP surface. The pdp
// server mounts them when constructed with WithReplicaSource.
const (
	SnapshotPath = "/v1/replica/snapshot"
	WatchPath    = "/v1/replica/watch"
	// DeltaPath serves the journaled mutation tail:
	//   GET /v1/replica/delta?epoch=e&after=g
	//     → {"epoch": e, "after": g, "generation": g', "mutations": [...]}
	// or 410 Gone when the tail no longer reaches back to g, the epoch
	// changed, or the primary keeps no tail at all, telling the follower
	// to take a full snapshot. Only a durable store keeps a tail (its WAL).
	DeltaPath = "/v1/replica/delta"
)

// Snapshot is the wire form of the primary's policy export: the state and
// the generation it was captured at, under one lock, plus the primary's
// feed epoch.
type Snapshot struct {
	Epoch      string     `json:"epoch"`
	Generation uint64     `json:"generation"`
	State      core.State `json:"state"`
}

// WatchResponse answers a long-poll watch: the primary's current epoch
// and generation at the moment the poll unblocked.
type WatchResponse struct {
	Epoch      string `json:"epoch"`
	Generation uint64 `json:"generation"`
}

// Delta is the wire form of a journal catch-up: every serializable
// mutation with generation in (After, Generation], in order. Generation
// may exceed the last mutation's stamp — the gap is ephemeral bumps
// (session churn on the primary) that change no replicable state, so a
// follower that applies Mutations is fully converged through Generation
// and must advance its position there, not to the last mutation.
type Delta struct {
	Epoch      string          `json:"epoch"`
	After      uint64          `json:"after"`
	Generation uint64          `json:"generation"`
	Mutations  []core.Mutation `json:"mutations,omitempty"`
}
