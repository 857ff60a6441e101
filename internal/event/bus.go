package event

import (
	"log"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aware-home/grbac/internal/faults"
)

// Handler consumes one event. Handlers run synchronously on the publishing
// goroutine, after the bus has released its internal lock, so they may
// publish further events (the bus re-enters cleanly) but should be quick.
type Handler func(Event)

// Bus is a totally-ordered, in-process publish/subscribe event bus. The
// zero value is not usable; construct with NewBus.
type Bus struct {
	mu     sync.Mutex
	seq    uint64
	subs   map[int]*subscription
	nextID int
	now    func() time.Time
	log    *Log
	logger *log.Logger
	panics atomic.Uint64
	// Delivery counters are atomics: published is bumped under the lock,
	// but delivered/dropped are bumped during the unlocked delivery walk.
	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

type subscription struct {
	id      int
	types   map[Type]bool // empty means all types
	handler Handler
}

// BusOption configures a Bus.
type BusOption func(*Bus)

// WithLog attaches a tamper-evident log that records every published event.
func WithLog(l *Log) BusOption {
	return func(b *Bus) { b.log = l }
}

// NewBus constructs an empty bus.
func NewBus(opts ...BusOption) *Bus {
	b := &Bus{
		subs:   make(map[int]*subscription),
		now:    time.Now,
		logger: log.Default(),
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// Subscribe registers a handler for the given event types (all types when
// none are listed) and returns a cancel function that removes the
// subscription. Cancel is idempotent.
func (b *Bus) Subscribe(handler Handler, types ...Type) (cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	id := b.nextID
	sub := &subscription{id: id, handler: handler}
	if len(types) > 0 {
		sub.types = make(map[Type]bool, len(types))
		for _, t := range types {
			sub.types[t] = true
		}
	}
	b.subs[id] = sub
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		delete(b.subs, id)
	}
}

// Publish assigns the event a sequence number and timestamp, appends it to
// the attached log (if any), and delivers it synchronously to every
// matching subscriber. It returns the stamped event.
func (b *Bus) Publish(e Event) Event {
	b.mu.Lock()
	b.seq++
	e.Seq = b.seq
	e.Time = b.now()
	stamped := e.clone()
	if b.log != nil {
		b.log.Append(stamped)
	}
	handlers := make([]Handler, 0, len(b.subs))
	for _, sub := range b.subs {
		if sub.types == nil || sub.types[e.Type] {
			handlers = append(handlers, sub.handler)
		}
	}
	b.mu.Unlock()
	b.published.Add(1)

	// Deliver outside the lock so handlers may publish or subscribe.
	for _, h := range handlers {
		b.deliver(h, stamped.clone())
	}
	return stamped
}

// deliver invokes one handler, recovering any panic so a crashing
// subscriber can neither unwind into the publisher nor starve the
// subscribers after it in delivery order. The tamper-evident log entry was
// appended under the lock before delivery began, so the HMAC chain stays
// consistent whatever handlers do. The faults.EventDeliver hook lets chaos
// drills slow a subscriber (delay), crash one (panic — recovered here like
// any other), or drop a delivery (error).
func (b *Bus) deliver(h Handler, e Event) {
	defer func() {
		if p := recover(); p != nil {
			b.panics.Add(1)
			b.logger.Printf("event: recovered subscriber panic on %s #%d: %v", e.Type, e.Seq, p)
		}
	}()
	if err := faults.Inject(faults.EventDeliver); err != nil {
		b.dropped.Add(1)
		return // injected drop: the subscriber misses this event
	}
	h(e)
	b.delivered.Add(1)
}

// RecoveredPanics reports how many subscriber panics the bus has absorbed.
func (b *Bus) RecoveredPanics() uint64 { return b.panics.Load() }

// Published reports the number of events ever published on the bus.
func (b *Bus) Published() uint64 { return b.published.Load() }

// Delivered reports the number of successful subscriber deliveries (one
// event fanning out to three subscribers counts three).
func (b *Bus) Delivered() uint64 { return b.delivered.Load() }

// Dropped reports deliveries suppressed by fault injection.
func (b *Bus) Dropped() uint64 { return b.dropped.Load() }

// Seq returns the sequence number of the most recently published event.
func (b *Bus) Seq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}
