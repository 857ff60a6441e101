package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALReplay throws arbitrary bytes at the WAL recovery path. Whatever
// the log contains — a clean run's records, a torn tail, bit rot, pure
// garbage — Open must come up without error or panic, and recovery must be
// idempotent: the repaired log boots a second time to the identical state
// with nothing further to drop.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real WAL so the fuzzer starts from structurally valid
	// records and mutates outward from there.
	refDir := f.TempDir()
	ref, err := Open(refDir, WithCheckpointEvery(1<<20), quiet)
	if err != nil {
		f.Fatal(err)
	}
	n := 0
	for _, st := range crashWorkload() {
		if !st.durable {
			continue
		}
		if err := st.run(ref.System()); err != nil {
			f.Fatal(err)
		}
		if n++; n == 8 {
			break
		}
	}
	wal, err := os.ReadFile(filepath.Join(refDir, WALFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal)
	f.Add(wal[:len(wal)/2])
	f.Add(wal[:len(wal)-1])
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"gen":1,"sum":0,"mut":{}}` + "\n"))
	f.Add([]byte(`{"gen":18446744073709551615,"sum":0,"mut":null}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, WALFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d1, err := Open(dir, WithCheckpointEvery(1<<20), quiet)
		if err != nil {
			t.Fatalf("Open on fuzzed WAL: %v", err)
		}
		got := d1.System().Export()
		gen := d1.System().Generation()
		epoch := d1.Epoch()

		d2, err := Open(dir, WithCheckpointEvery(1<<20), quiet)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if st := d2.Stats(); st.Replay.TruncatedBytes != 0 {
			t.Fatalf("recovery not idempotent: second boot dropped %d more bytes (%s)",
				st.Replay.TruncatedBytes, st.Replay.Reason)
		}
		if !reflect.DeepEqual(d2.System().Export(), got) {
			t.Fatal("second boot recovered a different state")
		}
		if d2.Epoch() != epoch {
			t.Fatal("epoch changed across reboots")
		}
		if d2.System().Generation() < gen {
			t.Fatal("generation regressed across reboots")
		}
	})
}
