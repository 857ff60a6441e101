// Package store persists GRBAC policy. Two layers:
//
//   - Save/Load: one-shot snapshot files (versioned JSON, written with
//     disk.WriteFile's atomic replace), used by grbac-policy and for
//     boot-time policy distribution.
//   - Durable: a write-ahead-logged store (durable.go) that journals every
//     core.System mutation, checkpoints snapshots, and replays
//     snapshot+WAL-tail on boot — crash-safe persistence for a live PDP.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/disk"
	"github.com/aware-home/grbac/internal/faults"
)

// Version is the current snapshot format version.
const Version = 1

// ErrVersion reports a snapshot produced by an incompatible format.
var ErrVersion = errors.New("store: unsupported snapshot version")

// ErrCorrupt reports a snapshot or WAL record that is structurally broken —
// truncated JSON, trailing garbage, a failed checksum, or an empty file.
// Load never half-imports: on ErrCorrupt no core.System is returned.
var ErrCorrupt = errors.New("store: corrupt data")

// Snapshot is the on-disk envelope around a core.State. Generation stamps
// checkpoints written by the durable store (0 for plain Save files, whose
// generation is meaningless across processes).
type Snapshot struct {
	Version    int        `json:"version"`
	SavedAt    time.Time  `json:"saved_at"`
	Generation uint64     `json:"generation,omitempty"`
	State      core.State `json:"state"`
}

// Save writes the system's current policy state to path atomically.
func Save(path string, sys *core.System, at time.Time) error {
	st, gen := sys.Snapshot()
	return writeSnapshot(path, Snapshot{Version: Version, SavedAt: at, Generation: gen, State: st})
}

// writeSnapshot writes snap to path with disk.WriteFile's atomic replace.
func writeSnapshot(path string, snap Snapshot) error {
	if err := faults.Inject(faults.StoreSave); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode: %w", err)
	}
	if err := disk.WriteFile(path, raw, true); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Load reads a snapshot file and reconstructs a fresh system from it. On
// any decode failure the error wraps ErrCorrupt (or ErrVersion for a clean
// version skew) and no system is returned.
func Load(path string) (*core.System, Snapshot, error) {
	if err := faults.Inject(faults.StoreLoad); err != nil {
		return nil, Snapshot{}, fmt.Errorf("store: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, Snapshot{}, fmt.Errorf("store: read: %w", err)
	}
	if len(raw) == 0 {
		return nil, Snapshot{}, fmt.Errorf("%w: %s is empty", ErrCorrupt, path)
	}
	var snap Snapshot
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&snap); err != nil {
		return nil, Snapshot{}, fmt.Errorf("%w: decode %s: %v", ErrCorrupt, path, err)
	}
	// A syntactically complete document followed by trailing bytes is a
	// torn or doubled write, not a snapshot.
	if dec.More() {
		return nil, Snapshot{}, fmt.Errorf("%w: %s has trailing data after the snapshot document", ErrCorrupt, path)
	}
	if snap.Version != Version {
		return nil, Snapshot{}, fmt.Errorf("%w: got %d, want %d", ErrVersion, snap.Version, Version)
	}
	sys := core.NewSystem()
	if err := sys.Import(snap.State); err != nil {
		return nil, Snapshot{}, fmt.Errorf("store: import: %w", err)
	}
	return sys, snap, nil
}
