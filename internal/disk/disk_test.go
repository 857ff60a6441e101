package disk

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/aware-home/grbac/internal/faults"
)

// acceptAll records every line it is handed; lines starting with '!'
// stand for records the owner refuses to decode.
func acceptAll(got *[]string) func([]byte) error {
	return func(line []byte) error {
		if bytes.HasPrefix(line, []byte("!")) {
			return errors.New("refused")
		}
		*got = append(*got, string(line))
		return nil
	}
}

func openT(t testing.TB, path string) (*Log, Repair, []string) {
	t.Helper()
	var got []string
	l, rep, err := OpenLog(path, true, acceptAll(&got))
	if err != nil {
		t.Fatal(err)
	}
	return l, rep, got
}

// TestLogTruncationSweep cuts a three-record log at every byte offset.
// OpenLog must keep exactly the complete records before the cut, an
// append after the repair must read back on the next open, and that open
// must find nothing left to drop.
func TestLogTruncationSweep(t *testing.T) {
	recs := []string{"alpha", `{"op":"moved"}`, "3"}
	var full []byte
	for _, r := range recs {
		full = append(full, r+"\n"...)
	}
	dir := t.TempDir()
	for off := 0; off <= len(full); off++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.log", off))
		if err := os.WriteFile(path, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		clean := bytes.LastIndexByte(full[:off], '\n') + 1
		want := recs[:bytes.Count(full[:off], []byte("\n"))]

		l, rep, got := openT(t, path)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut %d: kept %q, want %q", off, got, want)
		}
		if rep.TruncatedBytes != int64(off-clean) || (rep.Reason == "") != (off == clean) {
			t.Fatalf("cut %d: repair %+v, want %d bytes dropped", off, rep, off-clean)
		}
		if l.Size() != int64(clean) {
			t.Fatalf("cut %d: size %d, want %d", off, l.Size(), clean)
		}
		if err := l.Append([]byte("after\n")); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()

		l, rep, got = openT(t, path)
		if rep.TruncatedBytes != 0 {
			t.Fatalf("cut %d: second open dropped %d bytes (%s)", off, rep.TruncatedBytes, rep.Reason)
		}
		if fmt.Sprint(got) != fmt.Sprint(append(append([]string(nil), want...), "after")) {
			t.Fatalf("cut %d: reopened to %q", off, got)
		}
		l.Close()
	}
}

// TestLogRefusedLineEndsPrefix: the first line accept refuses ends the
// trusted prefix even when valid lines follow it.
func TestLogRefusedLineEndsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("a\n!bad\nc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rep, got := openT(t, path)
	defer l.Close()
	if len(got) != 1 || rep.TruncatedBytes != int64(len("!bad\nc\n")) || rep.Reason != "refused" {
		t.Fatalf("kept %q with repair %+v", got, rep)
	}
}

// TestLogResetAndStickyFailure: Reset empties the log for further
// appends, and a failed fsync poisons every later Sync and Append.
func TestLogResetAndStickyFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _, _ := openT(t, path)
	if err := l.Append([]byte("a\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("no newline")); err == nil {
		t.Fatal("record without its newline accepted")
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("b\n")); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "b\n" || l.Size() != 2 {
		t.Fatalf("after reset and append: %q, size %d", raw, l.Size())
	}

	l.f.Close() // the next fsync fails
	err := l.Sync()
	if err == nil {
		t.Fatal("fsync of a closed file succeeded")
	}
	if l.Err() != err || l.Sync() != err || l.Append([]byte("c\n")) != err {
		t.Fatal("fsync failure is not sticky")
	}
}

// TestWriteFile: the replace leaves only the target behind, and only a
// synced write pays (and can fail on) the directory fsync.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	plan := faults.NewPlan(1, faults.Rule{
		Point:  faults.StoreDirSync,
		Action: faults.Action{Err: errors.New("dir fsync failed")},
	})
	faults.Activate(plan)
	defer faults.Deactivate()
	if err := WriteFile(path, []byte("one"), false); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("two"), true); err == nil {
		t.Fatal("failed directory fsync not reported")
	}
	if got := plan.Fired(faults.StoreDirSync); got != 1 {
		t.Fatalf("directory fsync point fired %d times, want 1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); len(entries) != 1 || string(raw) != "two" {
		t.Fatalf("directory %v holds %q", entries, raw)
	}
}

// FuzzOpenLog: whatever the file holds, OpenLog keeps a prefix ending at
// a line boundary, and a second open drops nothing.
func FuzzOpenLog(f *testing.F) {
	f.Add([]byte("a\nb\nc\n"))
	f.Add([]byte("a\n!b\nc"))
	f.Add([]byte("\n\ntorn"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []string
		l, rep, err := OpenLog(path, false, acceptAll(&got))
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) || int64(len(data)-len(kept)) != rep.TruncatedBytes ||
			(len(kept) > 0 && kept[len(kept)-1] != '\n') || bytes.Count(kept, []byte("\n")) != len(got) {
			t.Fatalf("kept %q of %q (repair %+v, %d lines accepted)", kept, data, rep, len(got))
		}
		l, rep, err = OpenLog(path, false, acceptAll(new([]string)))
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if rep.TruncatedBytes != 0 {
			t.Fatalf("second open dropped %d bytes (%s)", rep.TruncatedBytes, rep.Reason)
		}
	})
}
