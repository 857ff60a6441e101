package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"github.com/aware-home/grbac/internal/disk"
)

// Durable shard map: the routing tier persists each committed map so a
// restarted router resumes routing against the last rebalanced state
// instead of the (possibly stale) boot-flag shard list.

// SaveMap writes the map's wire form to path with disk.WriteFile's
// atomic replace: a crash leaves either the old file or the new one,
// never a torn mix, and a failed directory fsync is reported, since a map
// whose directory entry is not on disk can vanish in a crash while the
// router already treats it as committed.
func SaveMap(path string, m *Map) error {
	b, err := json.MarshalIndent(m.Wire(), "", "  ")
	if err != nil {
		return fmt.Errorf("shard: marshal map: %w", err)
	}
	if err := disk.WriteFile(path, append(b, '\n'), true); err != nil {
		return fmt.Errorf("shard: save map: %w", err)
	}
	return nil
}

// LoadMap reads a map persisted by SaveMap. A missing file returns
// (nil, nil): no persisted state is a normal first boot, not an error.
func LoadMap(path string) (*Map, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: load map: %w", err)
	}
	var w Wire
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("shard: load map %s: %w", path, err)
	}
	m, err := FromWire(w)
	if err != nil {
		return nil, fmt.Errorf("shard: load map %s: %w", path, err)
	}
	return m, nil
}
