// Package faults is a deterministic fault-injection harness for chaos
// drills and robustness tests. Hot paths across the stack — the policy
// store, the trusted event bus, the sensor→environment pipeline, the
// replication transport, and the PDP request handlers — call Inject at a
// named point; when a Plan is active, matching rules fire error, latency,
// or panic actions on a seedable schedule, and when no plan is active the
// hook is a single atomic pointer load, cheap enough to stay compiled into
// production builds.
//
// Schedules are deterministic: a rule fires by hit count (After skips the
// first hits, Every fires each Nth eligible hit, Limit caps total fires)
// and optionally by a probability gate drawn from the plan's seeded RNG,
// so a failing chaos run replays exactly from its seed.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known injection points. Call sites may use ad-hoc names too; these
// constants name the hooks threaded through the repository's own stack.
const (
	// StoreSave and StoreLoad wrap policy snapshot persistence.
	StoreSave = "store.save"
	StoreLoad = "store.load"
	// StoreDirSync wraps the parent-directory fsync of every synced atomic
	// replace (disk.WriteFile): store snapshots, the epoch file and the
	// shard map. A panic here is a crash after rename but before the entry
	// is on disk. Decision-log chunk files skip the fsyncs, and this point.
	StoreDirSync = "store.dirsync"
	// WALAppend and WALFsync bracket one write-ahead-log append: a panic at
	// WALAppend is a crash before the record reaches the file, a panic at
	// WALFsync is a crash after the write but before it is durable (the
	// torn-tail case recovery must tolerate).
	WALAppend = "store.wal.append"
	WALFsync  = "store.wal.fsync"
	// Checkpoint wraps the durable store's snapshot+truncate checkpoint; a
	// panic is a crash with the full WAL tail still pending replay.
	Checkpoint = "store.checkpoint"
	// EventDeliver wraps the delivery of one bus event to one subscriber:
	// a delay is a slow subscriber, a panic is a crashing subscriber, and
	// an error drops the delivery (a lossy subscriber).
	EventDeliver = "event.deliver"
	// EnvironmentSet wraps one attribute write in the sensor→environment
	// pipeline; a delay is a stalled sensor feed. Error actions are
	// ignored here (Set has no error path) but delay and panic apply.
	EnvironmentSet = "environment.set"
	// ReplicaSnapshot and ReplicaWatch wrap the follower's replication
	// transport; an error is a dropped poll, a delay is a slow primary.
	ReplicaSnapshot = "replica.snapshot"
	ReplicaWatch    = "replica.watch"
	// PDPDecide wraps the PDP's decision handlers after admission: a
	// delay is slow mediation (holding an admission slot), an error is an
	// internal failure, a panic exercises the recovery middleware.
	PDPDecide = "pdp.decide"
	// SDKFallback wraps the embedded SDK's remote-fallback call: an error
	// is an unreachable primary (forcing the fail-safe deny path), a delay
	// is a slow remote Decide. The SDK's resync transport shares
	// ReplicaSnapshot and ReplicaWatch with the follower.
	SDKFallback = "sdk.fallback"
	// MigrateForward wraps a shard's forwarding of one request for a
	// subject it does not hold to the owner the published shard map names:
	// an error is a partition between the two shards, a delay a slow hop.
	MigrateForward = "migrate.forward"
	// The Rebalance* points bracket the shard-rebalance coordinator's
	// steps, one kill point per journaled transition: a panic is a
	// coordinator crash the resume path must recover from. Journal wraps
	// each journal append (crash before the step is recorded), the rest
	// fire after the named remote step succeeds but before it is recorded.
	// DeclogUpload wraps one decision-log chunk upload attempt: an error
	// is an unreachable collector (the pipeline retries with backoff and
	// sheds past its bounds), a delay is a stalled sink.
	DeclogUpload     = "declog.upload"
	RebalanceJournal = "rebalance.journal"
	RebalanceHandoff = "rebalance.handoff"
	RebalanceCommit  = "rebalance.commit"
)

// Action is what a rule does when it fires. All set fields apply: the
// delay elapses first, then a panic (if any) is raised, then the error
// (if any) is returned.
type Action struct {
	// Err is returned from Inject.
	Err error
	// Delay is slept before returning.
	Delay time.Duration
	// Panic, when non-empty, makes Inject panic with this message.
	Panic string
}

// Rule schedules one action at one injection point.
type Rule struct {
	// Point is the injection point the rule arms.
	Point string
	// After skips the first After hits entirely.
	After int
	// Every fires on each Every-th eligible hit (0 and 1 both mean every
	// eligible hit).
	Every int
	// Limit caps the number of fires; 0 is unlimited.
	Limit int
	// Prob gates each otherwise-eligible fire on a draw from the plan's
	// seeded RNG; 0 (and >= 1) means always fire.
	Prob float64
	// Action is what happens on a fire.
	Action Action
}

type ruleState struct {
	Rule
	hits  int
	fires int
}

// Plan is an armed set of rules sharing one seeded RNG. Activate installs
// it globally; a nil plan (or Deactivate) turns all injection off.
type Plan struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string][]*ruleState
	fired map[string]uint64
}

// NewPlan builds a plan from rules, with all probability draws seeded.
func NewPlan(seed int64, rules ...Rule) *Plan {
	p := &Plan{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string][]*ruleState),
		fired: make(map[string]uint64),
	}
	for _, r := range rules {
		if r.Every <= 0 {
			r.Every = 1
		}
		p.rules[r.Point] = append(p.rules[r.Point], &ruleState{Rule: r})
	}
	return p
}

var active atomic.Pointer[Plan]

// Activate installs p as the process-wide plan (nil deactivates). Tests
// must pair it with a deferred Deactivate; plans are global state.
func Activate(p *Plan) { active.Store(p) }

// Deactivate turns all fault injection off.
func Deactivate() { active.Store(nil) }

// Enabled reports whether any plan is active.
func Enabled() bool { return active.Load() != nil }

// Inject is the hook threaded through instrumented code paths. With no
// active plan it is one atomic load and a nil check — free enough for the
// hottest paths. With a plan, matching rules fire their actions: the
// longest due delay is slept, a due panic is raised, and a due error is
// returned.
func Inject(point string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.hit(point)
}

func (p *Plan) hit(point string) error {
	p.mu.Lock()
	var (
		delay    time.Duration
		panicMsg string
		err      error
	)
	for _, rs := range p.rules[point] {
		if !rs.due(p.rng) {
			continue
		}
		rs.fires++
		p.fired[point]++
		if rs.Action.Delay > delay {
			delay = rs.Action.Delay
		}
		if panicMsg == "" {
			panicMsg = rs.Action.Panic
		}
		if err == nil {
			err = rs.Action.Err
		}
	}
	p.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if panicMsg != "" {
		panic("faults: injected panic at " + point + ": " + panicMsg)
	}
	return err
}

// due advances the rule's hit counter and reports whether this hit fires.
// The caller holds the plan lock.
func (rs *ruleState) due(rng *rand.Rand) bool {
	rs.hits++
	if rs.hits <= rs.After {
		return false
	}
	if rs.Limit > 0 && rs.fires >= rs.Limit {
		return false
	}
	if (rs.hits-rs.After)%rs.Every != 0 {
		return false
	}
	if rs.Prob > 0 && rs.Prob < 1 && rng.Float64() >= rs.Prob {
		return false
	}
	return true
}

// Fired returns how many times any rule fired at the given point.
func (p *Plan) Fired(point string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired[point]
}

// TotalFired returns the total fire count across all points.
func (p *Plan) TotalFired() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for _, c := range p.fired {
		n += c
	}
	return n
}

// Summary renders per-point fire counts ("point=3 other=1"), for chaos
// drill logs.
func (p *Plan) Summary() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	points := make([]string, 0, len(p.fired))
	for pt := range p.fired {
		points = append(points, pt)
	}
	sort.Strings(points)
	parts := make([]string, 0, len(points))
	for _, pt := range points {
		parts = append(parts, fmt.Sprintf("%s=%d", pt, p.fired[pt]))
	}
	return strings.Join(parts, " ")
}

// ParseRules parses an operator-facing fault spec, as accepted by grbacd's
// -faults flag. Rules are separated by ';', each of the form
//
//	point:key=value,key=value
//
// with keys error (message), delay (Go duration), panic (message), after,
// every, limit (integers), and prob (float in (0,1]). Example:
//
//	pdp.decide:delay=50ms,prob=0.5;replica.watch:error=dropped,every=3
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		point, args, ok := strings.Cut(raw, ":")
		if !ok || point == "" {
			return nil, fmt.Errorf("faults: bad rule %q: want point:key=value,...", raw)
		}
		r := Rule{Point: strings.TrimSpace(point)}
		for _, kv := range strings.Split(args, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faults: bad argument %q in rule %q", kv, raw)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			var err error
			switch key {
			case "error":
				r.Action.Err = errors.New("faults: injected error: " + val)
			case "delay":
				r.Action.Delay, err = time.ParseDuration(val)
			case "panic":
				r.Action.Panic = val
			case "after":
				r.After, err = strconv.Atoi(val)
			case "every":
				r.Every, err = strconv.Atoi(val)
			case "limit":
				r.Limit, err = strconv.Atoi(val)
			case "prob":
				r.Prob, err = strconv.ParseFloat(val, 64)
				if err == nil && (r.Prob < 0 || r.Prob > 1) {
					err = fmt.Errorf("prob %v outside [0,1]", r.Prob)
				}
			default:
				return nil, fmt.Errorf("faults: unknown key %q in rule %q", key, raw)
			}
			if err != nil {
				return nil, fmt.Errorf("faults: bad %s in rule %q: %v", key, raw, err)
			}
		}
		if r.Action == (Action{}) {
			return nil, fmt.Errorf("faults: rule %q has no action (want error=, delay=, or panic=)", raw)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, errors.New("faults: empty spec")
	}
	return rules, nil
}
