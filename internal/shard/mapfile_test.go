package shard

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/aware-home/grbac/internal/faults"
)

func TestMapFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shardmap.json")

	// A missing file is a normal first boot.
	if m, err := LoadMap(path); m != nil || err != nil {
		t.Fatalf("LoadMap(missing) = %v, %v; want nil, nil", m, err)
	}

	m, err := New(8, Info{ID: "a", Addr: "http://a"}, Info{ID: "b", Addr: "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m.Add(Info{ID: "c", Addr: "http://c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveMap(path, m2); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMap(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != m2.Version() || got.Len() != 3 || got.VNodes() != 8 {
		t.Fatalf("round trip = v%d len %d vnodes %d, want v%d len 3 vnodes 8",
			got.Version(), got.Len(), got.VNodes(), m2.Version())
	}
	// Same ring: ownership is identical after the round trip.
	for _, sub := range []string{"alice", "bob", "carol", "dave"} {
		if got.Owner(sub).ID != m2.Owner(sub).ID {
			t.Fatalf("Owner(%s) = %s, want %s", sub, got.Owner(sub).ID, m2.Owner(sub).ID)
		}
	}

	// Corrupt file is a hard error, not silent fallback.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMap(path); err == nil {
		t.Fatal("LoadMap(corrupt) must error")
	}
}

// TestSaveMapSyncsDir pins the durability of the rename: SaveMap must fsync
// the directory after renaming the map into place and report a failed
// sync, since a map whose directory entry is not on disk can vanish in a
// crash while the router believes it committed.
func TestSaveMapSyncsDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shardmap.json")
	m, err := New(8, Info{ID: "a", Addr: "http://a"})
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(1, faults.Rule{
		Point: faults.StoreDirSync, Limit: 1,
		Action: faults.Action{Err: errors.New("simulated dir fsync failure")},
	})
	faults.Activate(plan)
	defer faults.Deactivate()
	if err := SaveMap(path, m); err == nil {
		t.Fatal("SaveMap succeeded despite a failed directory fsync")
	}
	if got := plan.Fired(faults.StoreDirSync); got != 1 {
		t.Fatalf("directory fsync point fired %d times, want 1", got)
	}
	if err := SaveMap(path, m); err != nil {
		t.Fatalf("save after the one injected failure: %v", err)
	}
}
