package event

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func fixedClock(t time.Time) func() time.Time {
	return func() time.Time { return t }
}

func TestPublishAssignsSequenceAndTime(t *testing.T) {
	now := time.Date(2000, 1, 17, 8, 0, 0, 0, time.UTC)
	b := NewBus(WithBusClock(fixedClock(now)))
	e1 := b.Publish(Event{Type: TypeStateChanged, Source: "test"})
	e2 := b.Publish(Event{Type: TypeStateChanged, Source: "test"})
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("sequence numbers = %d, %d; want 1, 2", e1.Seq, e2.Seq)
	}
	if !e1.Time.Equal(now) {
		t.Fatalf("event time = %v, want %v", e1.Time, now)
	}
	if b.Seq() != 2 {
		t.Fatalf("Seq() = %d, want 2", b.Seq())
	}
}

func TestSubscribeTypeFilter(t *testing.T) {
	b := NewBus()
	var locations, all int
	cancelLoc := b.Subscribe(func(Event) { locations++ }, TypeLocationChanged)
	cancelAll := b.Subscribe(func(Event) { all++ })
	defer cancelAll()

	b.Publish(Event{Type: TypeLocationChanged})
	b.Publish(Event{Type: TypeStateChanged})
	if locations != 1 {
		t.Fatalf("filtered handler saw %d events, want 1", locations)
	}
	if all != 2 {
		t.Fatalf("unfiltered handler saw %d events, want 2", all)
	}
	cancelLoc()
	cancelLoc() // idempotent
	b.Publish(Event{Type: TypeLocationChanged})
	if locations != 1 {
		t.Fatal("cancelled subscription still delivered")
	}
}

func TestHandlerMayPublish(t *testing.T) {
	b := NewBus()
	var seen []Type
	b.Subscribe(func(e Event) {
		seen = append(seen, e.Type)
		if e.Type == TypeStateChanged {
			b.Publish(Event{Type: TypeRoleActivated})
		}
	})
	b.Publish(Event{Type: TypeStateChanged})
	if len(seen) != 2 || seen[1] != TypeRoleActivated {
		t.Fatalf("re-entrant publish: seen = %v", seen)
	}
}

func TestEventCloneIsolation(t *testing.T) {
	b := NewBus()
	var got Event
	b.Subscribe(func(e Event) { got = e })
	attrs := map[string]string{"room": "kitchen"}
	b.Publish(Event{Type: TypeLocationChanged, Attrs: attrs})
	attrs["room"] = "mutated"
	if got.Attrs["room"] != "kitchen" {
		t.Fatal("subscriber event aliases publisher map")
	}
	got.Attrs["room"] = "mutated-by-subscriber"
	// Publish again; a second subscriber must see fresh copies.
	var second Event
	b.Subscribe(func(e Event) { second = e })
	b.Publish(Event{Type: TypeLocationChanged, Attrs: map[string]string{"room": "den"}})
	if second.Attrs["room"] != "den" {
		t.Fatal("event reused across publishes")
	}
}

func TestBusConcurrentPublish(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	b.Subscribe(func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		if seen[e.Seq] {
			t.Errorf("duplicate sequence %d", e.Seq)
		}
		seen[e.Seq] = true
	})
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Publish(Event{Type: TypeClockTick})
		}()
	}
	wg.Wait()
	if b.Seq() != n {
		t.Fatalf("Seq() = %d, want %d", b.Seq(), n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Fatalf("delivered %d unique events, want %d", len(seen), n)
	}
}

func TestNewLogRequiresKey(t *testing.T) {
	if _, err := NewLog(nil); err == nil {
		t.Fatal("NewLog(nil) accepted")
	}
	if _, err := NewLog([]byte("k")); err != nil {
		t.Fatal(err)
	}
}

func TestLogChainVerifies(t *testing.T) {
	l, err := NewLog([]byte("home-secret"))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBus(WithLog(l))
	for i := 0; i < 10; i++ {
		b.Publish(Event{Type: TypeStateChanged, Source: "thermostat",
			Attrs: map[string]string{"temp": fmt.Sprint(20 + i)}})
	}
	if l.Len() != 10 {
		t.Fatalf("log length = %d, want 10", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := VerifyEntries([]byte("home-secret"), l.Entries()); err != nil {
		t.Fatalf("VerifyEntries: %v", err)
	}
}

func TestLogDetectsTampering(t *testing.T) {
	l, err := NewLog([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBus(WithLog(l))
	for i := 0; i < 5; i++ {
		b.Publish(Event{Type: TypeStateChanged, Attrs: map[string]string{"i": fmt.Sprint(i)}})
	}
	entries := l.Entries()

	mutations := []struct {
		name   string
		mutate func([]Entry) []Entry
	}{
		{"payload edit", func(es []Entry) []Entry {
			es[2].Event.Attrs["i"] = "tampered"
			return es
		}},
		{"mac edit", func(es []Entry) []Entry {
			// Always a change: a MAC may already start with "0".
			first := "0"
			if es[1].MAC[0] == '0' {
				first = "1"
			}
			es[1].MAC = first + es[1].MAC[1:]
			return es
		}},
		{"entry removal", func(es []Entry) []Entry {
			return append(es[:1], es[2:]...)
		}},
		{"reorder", func(es []Entry) []Entry {
			es[0], es[1] = es[1], es[0]
			return es
		}},
		{"bad hex", func(es []Entry) []Entry {
			es[3].MAC = "zz"
			return es
		}},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			cp := l.Entries()
			bad := tt.mutate(cp)
			if err := VerifyEntries([]byte("k"), bad); !errors.Is(err, ErrChainBroken) {
				t.Fatalf("tampered log verified: %v", err)
			}
		})
	}
	// Untampered copy still verifies.
	if err := VerifyEntries([]byte("k"), entries); err != nil {
		t.Fatal(err)
	}
	// Wrong key fails.
	if err := VerifyEntries([]byte("other"), entries); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("wrong key verified: %v", err)
	}
}

// TestLogChainProperty: any single-byte flip in any attribute of any entry
// breaks verification.
func TestLogChainProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l, err := NewLog([]byte("k"))
		if err != nil {
			return false
		}
		b := NewBus(WithLog(l))
		n := 2 + rng.Intn(8)
		for i := 0; i < n; i++ {
			b.Publish(Event{
				Type:   TypeSensorObservation,
				Source: fmt.Sprintf("sensor-%d", rng.Intn(3)),
				Attrs:  map[string]string{"v": fmt.Sprint(rng.Intn(100))},
			})
		}
		entries := l.Entries()
		victim := rng.Intn(n)
		entries[victim].Event.Attrs["v"] += "x"
		return errors.Is(VerifyEntries([]byte("k"), entries), ErrChainBroken)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalSortsAttrs(t *testing.T) {
	e := Event{Seq: 1, Type: "t", Attrs: map[string]string{"b": "2", "a": "1"}}
	want := "seq=1|time=-6795364578871345152|type=t|source=|a=1|b=2"
	if got := e.canonical(); got != want {
		t.Fatalf("canonical = %q, want %q", got, want)
	}
}

// TestPanickingSubscriberIsContained is the regression test for the
// fail-safe delivery contract: a handler that panics must not unwind into
// Publish, must not starve subscribers after it, and must leave the
// tamper-evident log's HMAC chain verifiable.
func TestPanickingSubscriberIsContained(t *testing.T) {
	l, err := NewLog([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBus(WithLog(l), WithBusLogger(log.New(io.Discard, "", 0)))

	seen := map[string]int{}
	b.Subscribe(func(Event) { seen["first"]++ })
	b.Subscribe(func(Event) { panic("bad subscriber") })
	b.Subscribe(func(Event) { seen["last"]++ })

	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("publish %d let a subscriber panic escape: %v", i, p)
				}
			}()
			b.Publish(Event{Type: TypeStateChanged, Source: "test"})
		}()
	}

	if got := b.RecoveredPanics(); got != 3 {
		t.Fatalf("RecoveredPanics = %d, want 3", got)
	}
	if seen["first"] != 3 || seen["last"] != 3 {
		t.Fatalf("surviving subscribers starved: %v (want 3 deliveries each)", seen)
	}
	if l.Len() != 3 {
		t.Fatalf("log has %d entries, want 3", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("HMAC chain broken after subscriber panics: %v", err)
	}
}
