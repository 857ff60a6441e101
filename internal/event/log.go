package event

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// ErrChainBroken reports that the log's MAC chain does not verify: an entry
// was altered, inserted, or removed.
var ErrChainBroken = errors.New("event: MAC chain broken")

// Retention bounds the log at retainEntries entries and drops the oldest
// dropEntries at a time once the bound is passed. A PDP serving millions
// of decisions appends to this log on every policy mutation and
// environment change; the bound keeps its memory flat.
const (
	retainEntries = 64 * 1024
	dropEntries   = 1024
)

// Entry is one logged event together with its chained MAC.
type Entry struct {
	Event Event
	// MAC is HMAC-SHA256(key, prevMAC || canonical(event)), hex-encoded.
	MAC string
}

// Log is a tamper-evident append-only event record. Every entry's MAC
// covers the previous entry's MAC, so any modification of a prefix
// invalidates every subsequent MAC. This is the minimal realization of the
// paper's requirement that environment data be "securely and accurately"
// collected: a verifier holding the key can detect tampering with the
// recorded state history.
//
// The log is bounded: past retainEntries it drops its oldest dropEntries
// entries, keeping the MAC of the last dropped one as the anchor that
// roots verification of the retained window.
type Log struct {
	mu      sync.Mutex
	key     []byte
	entries []Entry
	// anchor is the MAC of the entry before entries[0] (nil at genesis);
	// lastMAC is the newest entry's MAC.
	anchor  []byte
	lastMAC []byte
	dropped uint64
	// retain and drop are the retention bound (the package constants,
	// smaller in tests).
	retain, drop int
}

// NewLog constructs a log keyed with the given MAC key. The key must be
// non-empty; it is copied.
func NewLog(key []byte) (*Log, error) {
	if len(key) == 0 {
		return nil, errors.New("event: empty MAC key")
	}
	return &Log{key: append([]byte(nil), key...), retain: retainEntries, drop: dropEntries}, nil
}

// Append records the event and returns its entry. Appending is O(1)
// amortized regardless of how many entries the log has ever seen.
func (l *Log) Append(e Event) Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	mac := chainMAC(l.key, l.lastMAC, e)
	entry := Entry{Event: e.clone(), MAC: hex.EncodeToString(mac)}
	l.entries = append(l.entries, entry)
	l.lastMAC = mac
	if len(l.entries) > l.retain {
		// The anchor is a MAC this log computed, so it always decodes.
		l.anchor, _ = hex.DecodeString(l.entries[l.drop-1].MAC)
		// Zero the dropped entries so their events are collectable before
		// append next reallocates the backing array.
		clear(l.entries[:l.drop])
		l.entries = l.entries[l.drop:]
		l.dropped += uint64(l.drop)
	}
	return entry
}

// Len returns the number of retained entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Appended returns how many entries the log has ever recorded.
func (l *Log) Appended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped + uint64(len(l.entries))
}

// Dropped returns how many entries retention has discarded.
func (l *Log) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Entries returns a copy of all retained entries in append order.
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.entries))
	for i, e := range l.entries {
		out[i] = Entry{Event: e.Event.clone(), MAC: e.MAC}
	}
	return out
}

// Verify walks the retained chain from its anchor and returns
// ErrChainBroken (with the position of the first bad entry) if any MAC
// fails.
func (l *Log) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return verifyFrom(l.key, l.anchor, l.entries, l.dropped)
}

// VerifyEntries checks an exported entry slice that starts at the chain
// genesis against the given key. It lets an external auditor validate a
// log copy without access to the live Log; for a slice that starts
// mid-chain use VerifyEntriesFrom with the anchor MAC.
func VerifyEntries(key []byte, entries []Entry) error {
	return VerifyEntriesFrom(key, "", entries)
}

// VerifyEntriesFrom checks an exported entry slice whose first entry was
// chained onto anchor (hex MAC; "" means the slice starts at genesis).
// It verifies any suffix of an exported copy, anchored on the MAC of the
// entry before it.
func VerifyEntriesFrom(key []byte, anchor string, entries []Entry) error {
	var prev []byte
	if anchor != "" {
		b, err := hex.DecodeString(anchor)
		if err != nil {
			return fmt.Errorf("%w: bad anchor", ErrChainBroken)
		}
		prev = b
	}
	return verifyFrom(key, prev, entries, 0)
}

// verifyFrom walks entries chained onto prev. pos is the absolute
// position of entries[0], for error messages.
func verifyFrom(key, prev []byte, entries []Entry, pos uint64) error {
	for i, entry := range entries {
		want := chainMAC(key, prev, entry.Event)
		got, err := hex.DecodeString(entry.MAC)
		if err != nil || !hmac.Equal(want, got) {
			return fmt.Errorf("%w: entry %d", ErrChainBroken, pos+uint64(i))
		}
		prev = want
	}
	return nil
}

func chainMAC(key, prev []byte, e Event) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(prev)
	h.Write([]byte(e.canonical()))
	return h.Sum(nil)
}
