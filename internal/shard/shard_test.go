package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

func mkShards(n int) []Info {
	out := make([]Info, n)
	for i := range out {
		out[i] = Info{ID: fmt.Sprintf("shard-%02d", i), Addr: fmt.Sprintf("http://127.0.0.1:%d", 9000+i)}
	}
	return out
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("subject-%06d", i)
	}
	return out
}

// TestOwnerDeterministic pins that placement is a pure function of
// (map contents, subject): two independently built maps agree everywhere,
// which is what lets routers and SDK clients route without coordination.
func TestOwnerDeterministic(t *testing.T) {
	a, err := New(0, mkShards(5)...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(0, mkShards(5)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(2000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("placement of %q differs between identical maps", k)
		}
	}
}

// TestDistributionBalance asserts the virtual-node ring spreads subjects
// across shards with a bounded max/min load ratio, for every cluster size
// the sharding story targets.
func TestDistributionBalance(t *testing.T) {
	const nKeys = 20000
	for _, nShards := range []int{2, 4, 8, 16} {
		m, err := New(DefaultVNodes, mkShards(nShards)...)
		if err != nil {
			t.Fatal(err)
		}
		load := map[string]int{}
		for _, k := range keys(nKeys) {
			load[m.Owner(k).ID]++
		}
		if len(load) != nShards {
			t.Fatalf("%d shards: only %d received load", nShards, len(load))
		}
		min, max := nKeys, 0
		for _, n := range load {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		ratio := float64(max) / float64(min)
		t.Logf("%2d shards: min=%d max=%d ratio=%.3f", nShards, min, max, ratio)
		if ratio > 1.5 {
			t.Fatalf("%d shards: max/min load ratio %.3f exceeds 1.5 (min=%d max=%d)",
				nShards, ratio, min, max)
		}
	}
}

// TestMinimalMovementOnAdd asserts the defining consistent-hash property:
// growing N→N+1 shards reassigns at most ~K/(N+1) of K subjects (within
// 50% slack for hash variance), and every reassigned subject lands on the
// NEW shard — existing shards never trade keys with each other.
func TestMinimalMovementOnAdd(t *testing.T) {
	const nKeys = 20000
	for _, nShards := range []int{1, 2, 4, 8} {
		before, err := New(DefaultVNodes, mkShards(nShards)...)
		if err != nil {
			t.Fatal(err)
		}
		newShard := Info{ID: "shard-new", Addr: "http://127.0.0.1:9999"}
		after, err := before.Add(newShard)
		if err != nil {
			t.Fatal(err)
		}
		if after.Version() != before.Version()+1 {
			t.Fatalf("Add must bump version: %d → %d", before.Version(), after.Version())
		}
		moved := 0
		for _, k := range keys(nKeys) {
			oldOwner, newOwner := before.Owner(k), after.Owner(k)
			if oldOwner == newOwner {
				continue
			}
			moved++
			if newOwner.ID != newShard.ID {
				t.Fatalf("%d shards: key %q moved %s→%s, not onto the new shard",
					nShards, k, oldOwner.ID, newOwner.ID)
			}
		}
		bound := int(1.5 * float64(nKeys) / float64(nShards+1))
		t.Logf("%2d→%2d shards: moved %d/%d keys (bound %d)", nShards, nShards+1, moved, nKeys, bound)
		if moved > bound {
			t.Fatalf("%d shards: %d keys moved on add, bound K/N+ε = %d", nShards, moved, bound)
		}
		if moved == 0 {
			t.Fatalf("%d shards: new shard received no keys", nShards)
		}
	}
}

// TestMinimalMovementOnRemove asserts the inverse: removing a shard moves
// exactly the keys it owned, and nothing else.
func TestMinimalMovementOnRemove(t *testing.T) {
	const nKeys = 20000
	before, err := New(DefaultVNodes, mkShards(5)...)
	if err != nil {
		t.Fatal(err)
	}
	const victim = "shard-02"
	after, err := before.Remove(victim)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(nKeys) {
		oldOwner, newOwner := before.Owner(k), after.Owner(k)
		if oldOwner.ID == victim {
			if newOwner.ID == victim {
				t.Fatalf("key %q still owned by removed shard", k)
			}
			continue
		}
		if oldOwner != newOwner {
			t.Fatalf("key %q moved %s→%s though its owner was not removed",
				k, oldOwner.ID, newOwner.ID)
		}
	}
	if _, ok := after.Get(victim); ok {
		t.Fatal("removed shard still resolvable")
	}
}

// TestWireRoundTrip pins that a map survives JSON serialization with
// identical placement — the router hands its map to SDK clients this way.
func TestWireRoundTrip(t *testing.T) {
	m, err := New(32, mkShards(4)...)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m.Add(Info{ID: "zz-late", Addr: "http://127.0.0.1:9100"})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m2.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var w Wire
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	back, err := FromWire(w)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version() != m2.Version() || back.VNodes() != m2.VNodes() || back.Len() != m2.Len() {
		t.Fatalf("round trip changed shape: %+v vs %+v", back.Wire(), m2.Wire())
	}
	for _, k := range keys(2000) {
		if back.Owner(k) != m2.Owner(k) {
			t.Fatalf("round trip changed placement of %q", k)
		}
	}
}

// TestValidation covers the constructor's error paths.
func TestValidation(t *testing.T) {
	if _, err := New(8); err == nil {
		t.Fatal("empty map must be rejected")
	}
	if _, err := New(8, Info{ID: "", Addr: "x"}); err == nil {
		t.Fatal("empty shard ID must be rejected")
	}
	if _, err := New(8, Info{ID: "a", Addr: "x"}, Info{ID: "a", Addr: "y"}); err == nil {
		t.Fatal("duplicate shard ID must be rejected")
	}
	if _, err := FromWire(Wire{Version: 0, VNodes: 8, Shards: mkShards(1)}); err == nil {
		t.Fatal("wire version 0 must be rejected")
	}
	m, err := New(8, mkShards(2)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(Info{ID: "shard-00", Addr: "x"}); err == nil {
		t.Fatal("duplicate Add must be rejected")
	}
	if _, err := m.Remove("nope"); err == nil {
		t.Fatal("Remove of unknown shard must be rejected")
	}
	if _, err := m.Remove("shard-00"); err != nil {
		t.Fatalf("Remove of known shard: %v", err)
	}
}

func BenchmarkOwner(b *testing.B) {
	m, err := New(DefaultVNodes, mkShards(8)...)
	if err != nil {
		b.Fatal(err)
	}
	ks := keys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Owner(ks[i&1023])
	}
}

// TestFromWireValidation pins the typed rejections for malformed wire
// maps: a map arrives over the network, and accepting a duplicate or
// empty shard ID silently would misroute subjects for the map's lifetime.
func TestFromWireValidation(t *testing.T) {
	good := []Info{{ID: "a", Addr: "http://a"}, {ID: "b", Addr: "http://b"}}
	cases := []struct {
		name string
		wire Wire
		want error
	}{
		{"version zero", Wire{Version: 0, Shards: good}, ErrBadVersion},
		{"no shards", Wire{Version: 1}, ErrNoShards},
		{"empty shard ID", Wire{Version: 1, Shards: []Info{{ID: "", Addr: "http://x"}}}, ErrEmptyShardID},
		{"duplicate shard ID", Wire{Version: 1, Shards: []Info{
			{ID: "a", Addr: "http://a1"}, {ID: "a", Addr: "http://a2"}}}, ErrDuplicateShard},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromWire(tc.wire); !errors.Is(err, tc.want) {
				t.Fatalf("FromWire(%+v) error = %v, want %v", tc.wire, err, tc.want)
			}
		})
	}
	// And the happy path still round-trips.
	m, err := FromWire(Wire{Version: 7, VNodes: 16, Shards: good})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version() != 7 || m.Len() != 2 {
		t.Fatalf("round-trip lost version or shards: v%d len %d", m.Version(), m.Len())
	}
}
