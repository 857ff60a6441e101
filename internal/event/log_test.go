package event

import (
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

func fill(t testing.TB, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		l.Append(Event{
			Seq:    uint64(i + 1),
			Time:   time.Unix(int64(i), 0),
			Type:   TypeClockTick,
			Source: "test",
			Attrs:  map[string]string{"i": fmt.Sprint(i)},
		})
	}
}

// newBoundedLog returns a log whose retention bound is retain entries,
// dropped drop at a time.
func newBoundedLog(t testing.TB, retain, drop int) *Log {
	t.Helper()
	l, err := NewLog([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	l.retain, l.drop = retain, drop
	return l
}

func TestRetentionDropsOldestSegment(t *testing.T) {
	l := newBoundedLog(t, 10, 4)
	fill(t, l, 14) // the 11th append drops 0..3; retained: 4..13
	if got := l.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	if got := l.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	if l.Appended() != 14 {
		t.Fatalf("Appended = %d, want 14", l.Appended())
	}
	// The retained window still verifies: the last dropped entry's MAC
	// roots the chain.
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify after retention: %v", err)
	}
	// Full-history Entries now starts mid-chain, so genesis-rooted
	// VerifyEntries must fail and anchor-rooted verification must pass.
	all := l.Entries()
	if len(all) != 10 || all[0].Event.Attrs["i"] != "4" {
		t.Fatalf("Entries = %d starting at %q, want 10 starting at 4", len(all), all[0].Event.Attrs["i"])
	}
	if err := VerifyEntries([]byte("k"), all); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("genesis-rooted verify of truncated window: %v", err)
	}
	if err := VerifyEntriesFrom([]byte("k"), hex.EncodeToString(l.anchor), all); err != nil {
		t.Fatalf("anchor-rooted verify of truncated window: %v", err)
	}
	// Tampering inside the retained window still fails Verify.
	l.entries[3].Event.Attrs["i"] = "tampered"
	if err := l.Verify(); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("Verify of a tampered window: %v", err)
	}
}

// TestMemoryStaysFlatOverMillionAppends is the regression test for the
// unbounded-growth bug: a million appends through a bounded log must leave
// the heap where it started, within noise.
func TestMemoryStaysFlatOverMillionAppends(t *testing.T) {
	if testing.Short() {
		t.Skip("1M appends in -short mode")
	}
	l := newBoundedLog(t, 4*256, 256)
	ev := Event{Type: TypeClockTick, Source: "mem", Attrs: map[string]string{"k": "v"}}

	const warmup = 10_000
	for i := 0; i < warmup; i++ {
		ev.Seq = uint64(i)
		l.Append(ev)
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	const n = 1_000_000
	for i := warmup; i < n; i++ {
		ev.Seq = uint64(i)
		l.Append(ev)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if l.Appended() != n {
		t.Fatalf("appended %d", l.Appended())
	}
	if got := l.Len(); got > l.retain {
		t.Fatalf("retained %d entries, bound is %d", got, l.retain)
	}
	dropped := l.Dropped()
	if uint64(l.Len())+dropped != n {
		t.Fatalf("accounting: retained %d + dropped %d != %d", l.Len(), dropped, n)
	}
	// The retained window is ~1k tiny entries; allow generous noise
	// (GC timing, test framework) while still catching the old behavior,
	// which held all 1M entries (~hundreds of MB).
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > 16<<20 {
		t.Fatalf("heap grew %d bytes over %d appends; log is not bounded", growth, n-warmup)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify after 1M appends: %v", err)
	}
}

// BenchmarkAppendAtLength shows Append cost is independent of how many
// entries the log has ever seen — the fix for append stalls on long-lived
// logs.
func BenchmarkAppendAtLength(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("history/%d", n), func(b *testing.B) {
			l, err := NewLog([]byte("k"))
			if err != nil {
				b.Fatal(err)
			}
			fill(b, l, n)
			ev := Event{Type: TypeClockTick, Source: "bench", Attrs: map[string]string{"k": "v"}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Append(ev)
			}
		})
	}
}
