// Package shard partitions the GRBAC subject space across independent
// grbacd shards with a consistent-hash ring. Subjects (and everything
// hanging off them: role assignments, sessions, credentials) live on
// exactly one shard, chosen by hashing the subject ID onto a ring of
// virtual nodes; shared policy (object roles, environment roles,
// transactions, permissions, SoD constraints) is replicated to every
// shard and never consults the ring.
//
// A Map is immutable: Add and Remove return a new Map with the version
// bumped, so routers and SDK clients can swap maps atomically and stamp
// every routing decision with the version that produced it. Consistent
// hashing keeps rebalancing minimal — adding a shard to an N+1-shard map
// moves only ~K/(N+1) of K subjects, all of them onto the new shard, and
// removing one moves only the subjects it owned.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Typed map-construction errors. A wire map arrives over the network
// (router bootstrap, SDK bootstrap, rebalance push), so a malformed one
// must be rejected loudly and distinguishably — a silently-accepted
// duplicate or empty shard ID would misroute subjects for as long as the
// map lives.
var (
	// ErrNoShards reports a map with an empty shard set.
	ErrNoShards = errors.New("shard: map needs at least one shard")
	// ErrEmptyShardID reports a shard whose ID is the empty string.
	ErrEmptyShardID = errors.New("shard: empty shard ID")
	// ErrDuplicateShard reports two shards sharing one ID.
	ErrDuplicateShard = errors.New("shard: duplicate shard ID")
	// ErrBadVersion reports a wire map with version 0 — versions start at
	// 1, and 0 is the "never set" sentinel consumers gate on.
	ErrBadVersion = errors.New("shard: wire map has version 0")
)

// DefaultVNodes is the default number of virtual nodes per shard. 128
// points per shard keeps the max/min subject-load ratio across shards
// tight (≤ ~1.3 for clusters up to 16 shards) at negligible memory cost.
const DefaultVNodes = 128

// Info identifies one shard: a stable ID (hashed onto the ring — renaming
// a shard moves its keys) and the base URL its grbacd listens on.
type Info struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Wire is the serialized form of a Map, served by routers at
// /v1/shard/map with a running rebalance's target map as Pending, and
// embedded in config files. FromWire reads only the committed map.
type Wire struct {
	Version uint64 `json:"version"`
	VNodes  int    `json:"vnodes"`
	Shards  []Info `json:"shards"`
	Pending *Wire  `json:"pending,omitempty"`
}

// Seq is a published wire map's feed sequence, moved by every commit and
// pending set or clear, and resumed by a router that reloads its map.
func (w Wire) Seq() uint64 {
	if w.Pending != nil {
		return 2*w.Version + 1
	}
	return 2 * w.Version
}

// point is one virtual node on the ring.
type point struct {
	hash  uint64
	shard int32 // index into shards
}

// Map is an immutable, versioned consistent-hash routing table.
type Map struct {
	version uint64
	vnodes  int
	shards  []Info // sorted by ID
	byID    map[string]int
	ring    []point // sorted by (hash, shard ID) — ties broken stably
}

// New builds a version-1 map over the given shards. Shard IDs must be
// non-empty and unique; vnodes < 1 selects DefaultVNodes.
func New(vnodes int, shards ...Info) (*Map, error) {
	return build(1, vnodes, shards)
}

// FromWire reconstructs a Map (including its ring) from its wire form.
func FromWire(w Wire) (*Map, error) {
	if w.Version == 0 {
		return nil, ErrBadVersion
	}
	return build(w.Version, w.VNodes, w.Shards)
}

func build(version uint64, vnodes int, shards []Info) (*Map, error) {
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	if len(shards) == 0 {
		return nil, ErrNoShards
	}
	m := &Map{
		version: version,
		vnodes:  vnodes,
		shards:  make([]Info, len(shards)),
		byID:    make(map[string]int, len(shards)),
	}
	copy(m.shards, shards)
	sort.Slice(m.shards, func(i, j int) bool { return m.shards[i].ID < m.shards[j].ID })
	for i, s := range m.shards {
		if s.ID == "" {
			return nil, ErrEmptyShardID
		}
		if _, dup := m.byID[s.ID]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateShard, s.ID)
		}
		m.byID[s.ID] = i
	}
	m.ring = make([]point, 0, len(m.shards)*vnodes)
	for i, s := range m.shards {
		for v := 0; v < vnodes; v++ {
			m.ring = append(m.ring, point{hash: hashKey(s.ID + "#" + strconv.Itoa(v)), shard: int32(i)})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].hash != m.ring[j].hash {
			return m.ring[i].hash < m.ring[j].hash
		}
		return m.shards[m.ring[i].shard].ID < m.shards[m.ring[j].shard].ID
	})
	return m, nil
}

// hashKey is FNV-64a with a murmur3-style avalanche finalizer: fast,
// dependency-free, and stable across processes — every router and SDK
// must agree on placement. Raw FNV disperses short sequential keys badly
// enough to skew ring segments; the finalizer restores uniformity.
func hashKey(key string) uint64 {
	f := fnv.New64a()
	_, _ = f.Write([]byte(key))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Version returns the map's version; replacements always bump it.
func (m *Map) Version() uint64 { return m.version }

// VNodes returns the virtual-node count per shard.
func (m *Map) VNodes() int { return m.vnodes }

// Len returns the number of shards.
func (m *Map) Len() int { return len(m.shards) }

// Shards returns a copy of the shard set, sorted by ID.
func (m *Map) Shards() []Info {
	out := make([]Info, len(m.shards))
	copy(out, m.shards)
	return out
}

// Get looks a shard up by ID.
func (m *Map) Get(id string) (Info, bool) {
	i, ok := m.byID[id]
	if !ok {
		return Info{}, false
	}
	return m.shards[i], true
}

// Owner returns the shard that owns the subject: the first virtual node
// clockwise of the subject's hash, wrapping past the top of the ring.
func (m *Map) Owner(subject string) Info {
	h := hashKey(subject)
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	if i == len(m.ring) {
		i = 0
	}
	return m.shards[m.ring[i].shard]
}

// Add returns a new map (version+1) with s added.
func (m *Map) Add(s Info) (*Map, error) {
	if _, dup := m.byID[s.ID]; dup {
		return nil, fmt.Errorf("shard: shard %q already in map", s.ID)
	}
	return build(m.version+1, m.vnodes, append(m.Shards(), s))
}

// Remove returns a new map (version+1) without the named shard.
func (m *Map) Remove(id string) (*Map, error) {
	if _, ok := m.byID[id]; !ok {
		return nil, fmt.Errorf("shard: shard %q not in map", id)
	}
	rest := make([]Info, 0, len(m.shards)-1)
	for _, s := range m.shards {
		if s.ID != id {
			rest = append(rest, s)
		}
	}
	return build(m.version+1, m.vnodes, rest)
}

// Wire returns the serializable form of the map.
func (m *Map) Wire() Wire {
	return Wire{Version: m.version, VNodes: m.vnodes, Shards: m.Shards()}
}
