// Package disk holds the two crash-safe file disciplines the durable
// components share. Log is an append-only file of newline-terminated
// records that reopens to its longest clean prefix: the store's
// write-ahead log and the rebalance journal. WriteFile replaces a whole
// file atomically: store snapshots, the epoch file, the persisted shard
// map and decision-log chunk files.
package disk

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/aware-home/grbac/internal/faults"
)

// Repair describes what OpenLog cut off the end of a log.
type Repair struct {
	// TruncatedBytes is the size of the dropped tail, 0 for a clean log.
	TruncatedBytes int64
	// Reason says why the tail was dropped, empty for a clean log.
	Reason string
}

// Log is an append-only file of newline-terminated records. Its methods
// are safe for concurrent use.
type Log struct {
	f    *os.File
	sync bool

	mu   sync.Mutex
	size int64
	// err is sticky: after a failed fsync the page cache holds an unknown
	// state, so acknowledging later writes would lie about durability (the
	// PostgreSQL fsync lesson). A partial append that cannot be rolled
	// back poisons the log the same way.
	err error
}

// OpenLog opens (creating if needed) the log at path and scans it from
// the start, handing each newline-terminated line, without its newline,
// to accept. The first line accept refuses, or a final line with no
// newline (an append torn by a crash), ends the trusted prefix: the file
// is truncated there and the cut fsynced, so the next append lands on a
// line of its own. Recovery therefore keeps the longest clean prefix and
// never a partial or out-of-order suffix. sync=false skips every fsync
// the log would issue.
func OpenLog(path string, sync bool, accept func(line []byte) error) (*Log, Repair, error) {
	var rep Repair
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, rep, fmt.Errorf("disk: open log: %w", err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, rep, fmt.Errorf("disk: read log: %w", err)
	}
	clean := 0
	for clean < len(raw) {
		nl := bytes.IndexByte(raw[clean:], '\n')
		if nl < 0 {
			rep.Reason = "torn final record (no newline)"
			break
		}
		if err := accept(raw[clean : clean+nl]); err != nil {
			rep.Reason = err.Error()
			break
		}
		clean += nl + 1
	}
	l := &Log{f: f, sync: sync, size: int64(clean)}
	if clean < len(raw) {
		rep.TruncatedBytes = int64(len(raw) - clean)
		if err := f.Truncate(int64(clean)); err != nil {
			_ = f.Close()
			return nil, rep, fmt.Errorf("disk: repair log tail: %w", err)
		}
		if err := l.Sync(); err != nil {
			_ = f.Close()
			return nil, rep, err
		}
	}
	return l, rep, nil
}

// Append writes one record, which must end in its newline, with a single
// write. A partial write is rolled back so the next append does not land
// after garbage mid-file; if even the rollback fails, the log fails
// sticky. Append does not fsync: call Sync.
func (l *Log) Append(rec []byte) error {
	if len(rec) == 0 || rec[len(rec)-1] != '\n' {
		return errors.New("disk: log record must end in a newline")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(rec); err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.err = fmt.Errorf("disk: log unrecoverable: write: %v, rollback: %v", err, terr)
			return l.err
		}
		return fmt.Errorf("disk: log write: %w", err)
	}
	l.size += int64(len(rec))
	return nil
}

// Sync makes every completed append durable. A failed fsync is sticky:
// it and every later Sync or Append return the same error.
func (l *Log) Sync() error {
	if err := l.Err(); err != nil || !l.sync {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = fmt.Errorf("disk: log fsync failed, log is read-only: %w", err)
		}
		err = l.err
		l.mu.Unlock()
		return err
	}
	return nil
}

// Reset empties the log and fsyncs the cut.
func (l *Log) Reset() error {
	l.mu.Lock()
	if err := l.f.Truncate(0); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("disk: reset log: %w", err)
	}
	l.size = 0
	l.mu.Unlock()
	return l.Sync()
}

// Size returns the log's length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Err returns the sticky failure, nil while the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close closes the file.
func (l *Log) Close() error { return l.f.Close() }

// WriteFile replaces path with data atomically: the bytes go to a temp
// file in the same directory, which is fsynced, renamed over path, and
// then the directory is fsynced so the rename itself survives a crash. A
// reader at any moment sees either the old complete file or the new
// complete file. sync=false keeps the atomic rename but skips both
// fsyncs. The file is created with mode 0600.
func WriteFile(path string, data []byte, sync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("disk: temp file: %w", err)
	}
	// Best-effort cleanup if we bail before the rename.
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("disk: write: %w", err)
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			_ = tmp.Close()
			return fmt.Errorf("disk: sync: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("disk: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("disk: rename: %w", err)
	}
	if !sync {
		return nil
	}
	// The rename updated the directory, not the file: until the directory
	// is synced a crash can lose the new entry, and with it the whole
	// file, even though the data blocks were fsynced.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("disk: sync dir: %w", err)
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
