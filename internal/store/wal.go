package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/disk"
)

// walRecord frames one mutation in the write-ahead log: one JSON document
// per line. Sum is a CRC32 (IEEE) over the raw mutation bytes, so a torn
// or bit-flipped line fails closed instead of replaying garbage; Gen
// duplicates the mutation's generation at the frame level so a scan can
// order records without decoding mutations.
type walRecord struct {
	Gen uint64          `json:"gen"`
	Sum uint32          `json:"sum"`
	Mut json.RawMessage `json:"mut"`
}

// encodeWALRecord frames m as one newline-terminated WAL line.
func encodeWALRecord(m core.Mutation) ([]byte, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("store: encode mutation: %w", err)
	}
	line, err := json.Marshal(walRecord{Gen: m.Gen, Sum: crc32.ChecksumIEEE(raw), Mut: raw})
	if err != nil {
		return nil, fmt.Errorf("store: encode wal record: %w", err)
	}
	return append(line, '\n'), nil
}

// decodeWALRecord parses one WAL line (without its trailing newline). Any
// structural failure — bad JSON, checksum mismatch, frame/mutation
// generation disagreement — wraps ErrCorrupt.
func decodeWALRecord(line []byte) (core.Mutation, error) {
	var rec walRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return core.Mutation{}, fmt.Errorf("%w: wal record: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(rec.Mut) != rec.Sum {
		return core.Mutation{}, fmt.Errorf("%w: wal record gen %d: checksum mismatch", ErrCorrupt, rec.Gen)
	}
	var m core.Mutation
	if err := json.Unmarshal(rec.Mut, &m); err != nil {
		return core.Mutation{}, fmt.Errorf("%w: wal mutation gen %d: %v", ErrCorrupt, rec.Gen, err)
	}
	if m.Gen != rec.Gen {
		return core.Mutation{}, fmt.Errorf("%w: wal frame gen %d disagrees with mutation gen %d", ErrCorrupt, rec.Gen, m.Gen)
	}
	return m, nil
}

// ReplayStats describes one boot-time recovery pass, reported through
// DurableStats and /v1/statsz so an operator (or the crash smoke test) can
// see that a restart replayed cleanly.
type ReplayStats struct {
	// Snapshot reports whether a checkpoint file was loaded.
	Snapshot bool `json:"snapshot"`
	// Records is the number of WAL records applied on top of the snapshot.
	Records int `json:"records"`
	// Skipped counts records already covered by the checkpoint generation.
	Skipped int `json:"skipped"`
	// TruncatedBytes is the size of the torn or corrupt tail dropped from
	// the WAL (0 for a clean log).
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Reason says why the tail was dropped, empty for a clean log.
	Reason string `json:"reason,omitempty"`
}

// openWAL opens the log at path and replays it through the shared line
// log's longest-clean-prefix rule, applying every record with generation
// above baseGen. A record that does not decode, regresses the generation
// order, or that the system refuses to apply ends the trusted prefix;
// records the checkpoint already covers (a failed post-checkpoint reset
// can leave them behind) are skipped.
func openWAL(path string, baseGen uint64, apply func(core.Mutation) error) (*disk.Log, ReplayStats, error) {
	var stats ReplayStats
	lastGen := baseGen
	wal, rep, err := disk.OpenLog(path, true, func(line []byte) error {
		m, err := decodeWALRecord(line)
		if err != nil {
			return err
		}
		if m.Gen <= lastGen {
			if m.Gen <= baseGen {
				stats.Skipped++
				return nil
			}
			return fmt.Errorf("generation regression: record gen %d after gen %d", m.Gen, lastGen)
		}
		if err := apply(m); err != nil {
			return fmt.Errorf("apply gen %d (%s): %v", m.Gen, m.Op, err)
		}
		lastGen = m.Gen
		stats.Records++
		return nil
	})
	if err != nil {
		return nil, stats, fmt.Errorf("store: wal: %w", err)
	}
	stats.TruncatedBytes, stats.Reason = rep.TruncatedBytes, rep.Reason
	return wal, stats, nil
}
