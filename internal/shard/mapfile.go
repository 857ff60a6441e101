package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"github.com/aware-home/grbac/internal/faults"
)

// Durable shard map: the routing tier persists each committed map so a
// restarted router resumes routing against the last rebalanced state
// instead of the (possibly stale) boot-flag shard list.

// SaveMap atomically writes the map's wire form to path: temp file in
// the same directory, fsync, rename, directory fsync. A crash leaves
// either the old file or the new one, never a torn mix.
func SaveMap(path string, m *Map) error {
	b, err := json.MarshalIndent(m.Wire(), "", "  ")
	if err != nil {
		return fmt.Errorf("shard: marshal map: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".shardmap-*")
	if err != nil {
		return fmt.Errorf("shard: save map: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("shard: save map: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("shard: save map: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("shard: save map: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("shard: save map: %w", err)
	}
	// The rename updated the directory, not the file: until the directory
	// is synced a crash can lose the new entry, and with it a map the
	// router already treats as committed.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("shard: save map: sync dir: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	if err := faults.Inject(faults.StoreDirSync); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
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
