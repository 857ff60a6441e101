package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// loadGoroutines is the most goroutines that issue load at once; the
// sandbox has two cores and the systems under test share them.
const loadGoroutines = 2

// windowsPerSegment is how many latency windows one boot's share of a
// measured run is cut into; a traced run is one boot and one window.
const windowsPerSegment = 4

// workload is one named traffic mix on one topology.
type workload struct {
	name    string
	topo    string
	traffic traffic
	// deciders is the number of closed-loop goroutines that decide; block is
	// how many decisions share one latency sample, so that on a path of a
	// few hundred nanoseconds the clock's own cost is amortised.
	deciders int
	block    int
	warmOps  int
	// peakRate is a ceiling on one decider's decisions per second, used only
	// to size its latency buffer so that it does not grow while timed.
	peakRate float64
	// writer is the fixed-rate write load of a goroutine of its own beside
	// the deciders. Where the timed phase lacks sessions or flips, a traced
	// run issues them in a closed-loop write probe after it.
	writer writerRates
	loop   string
}

var workloads = []workload{
	{
		name: "embedded-warm", topo: "embedded", deciders: loadGoroutines, block: 1024, warmOps: 1 << 16, peakRate: 16e6,
		traffic: traffic{zipfS: 1.2, universe: 2048, perSubject: 1, streamLen: 1 << 16, salt: 0xe1},
		loop:    "closed loop, 2 goroutines, zipf(1.2) over 2048 requests, no writes in the timed phase",
	},
	{
		name: "embedded-churn", topo: "churn", deciders: 1, block: 1, warmOps: 1 << 10, peakRate: 100e3,
		traffic: traffic{zipfS: 1.2, universe: numSubjects * 4, perSubject: 4, streamLen: 1 << 16, churnEvery: 16, salt: 0xe2},
		loop:    "closed loop, 1 goroutine, zipf(1.2) over 4096 subjects, 1 session pair per 16 decisions (count-tied)",
	},
	{
		name: "direct-read", topo: "direct", deciders: loadGoroutines, block: 1, warmOps: 1 << 10, peakRate: 100e3,
		traffic: traffic{zipfS: 1.1, universe: 1 << 20, perSubject: 256, streamLen: 1 << 18, salt: 0xe3},
		loop:    "closed loop, 2 clients with a connection each, zipf(1.1) over 2^20 requests, no writes in the timed phase",
	},
	{
		name: "cluster-mixed", topo: "cluster", deciders: 1, block: 1, warmOps: 1 << 10, peakRate: 100e3,
		traffic: traffic{zipfS: 1.1, universe: 1 << 20, perSubject: 256, streamLen: 1 << 18, salt: 0xe4},
		writer:  writerRates{sessionsPerSec: 40, flipsPerSec: 10},
		loop:    "1 closed-loop decider via the router; 1 open-loop writer at 40 session pairs/s and 10 durable role flips/s, timed from due time",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// probeCounts is the size of the closed-loop write probe.
type probeCounts struct{ sessions, flips int }

// config is what one run is asked to do.
type config struct {
	seed     int64
	seconds  time.Duration
	setups   int // boots of a measured run, each a setup_s sample and a share of the phase
	probe    probeCounts
	traceOut string
	workRoot string
}

// flipOwner is the subjects whose flips the topology's reader can see: the
// cluster's SDK replicates shard s0 only.
func flipOwner(topo string) (func(string) bool, error) {
	if topo != "cluster" {
		return nil, nil
	}
	m, err := shardOwner()
	if err != nil {
		return nil, err
	}
	return func(subject string) bool { return m.Owner(subject).ID == homeShard }, nil
}

// inputs is everything a run feeds the system, drawn from the seed alone.
type inputs struct {
	w        *world
	stream   opStream
	schedule []writeOp // the writer's ops for one timed phase
	probe    []writeOp // a traced run's closed-loop probe after the phase, due times unused
}

// drawInputs draws the policy, the decision streams and the writes for a
// timed phase of the given length.
func drawInputs(wl workload, cfg config, phase time.Duration) (*inputs, error) {
	owns, err := flipOwner(wl.topo)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: newWorld(cfg.seed)}
	in.stream = in.w.drawStream(wl.traffic, wl.deciders)
	pool := in.w.flipPool(owns)
	in.schedule = in.w.drawSchedule(wl.writer, phase, pool)
	used := 0
	for _, op := range in.schedule {
		if op.flip {
			used++
		}
	}
	// The probe covers what the timed phase leaves out.
	if wl.writer.sessionsPerSec == 0 && wl.traffic.churnEvery == 0 {
		for i := 0; i < cfg.probe.sessions; i++ {
			in.probe = append(in.probe, writeOp{subj: in.w.subjPerm[i%numSubjects]})
		}
	}
	if wl.writer.flipsPerSec == 0 {
		for i := 0; i < cfg.probe.flips && used+i < len(pool); i++ {
			in.probe = append(in.probe, writeOp{flip: true, subj: pool[used+i]})
		}
	}
	return in, nil
}

// tally counts what was asked of the system and what came back wrong.
type tally struct{ attempted, failed int64 }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

// writeSide issues sessions and role flips and keeps their latencies.
type writeSide struct {
	w    *world
	topo topology
	tr   *tracer
	sh   *shadow

	sessionNs   []float64
	mutateNs    []float64
	propagateNs []float64
	lateNs      []float64
	lagMax      uint64
	acked       []int
	tally
}

const flipTimeout = 5 * time.Second

// session opens and closes one session; from is when the pair was due.
func (ws *writeSide) session(subj int, from time.Time) {
	subject := ws.w.subjects[subj]
	start := time.Now()
	if ws.tr.enabled() {
		ws.tr.begin(opSession)
	}
	err := ws.topo.sessionPair(subject)
	end := time.Now()
	if ws.tr.enabled() {
		ws.tr.end(start, end)
		ws.sh.session(subject)
	}
	ws.attempted++
	if err != nil {
		ws.failed++
		return
	}
	ws.sessionNs = append(ws.sessionNs, float64(end.Sub(from)))
}

// flip assigns the flip role and waits until the reader serves the flipped
// answer. The mutation is timed from `from` to its acknowledgement, the
// propagation from the acknowledgement to the first flipped answer.
func (ws *writeSide) flip(subj int, from time.Time) {
	subject := ws.w.subjects[subj]
	after := ws.w.flipRequest(subj, true)
	ws.attempted++
	if got, err := ws.topo.visible(&after); err != nil || got {
		ws.failed++ // the flip must be what changes the answer
		return
	}
	start := time.Now()
	if ws.tr.enabled() {
		ws.tr.begin(opFlip)
	}
	err := ws.topo.flip(subject)
	acked := time.Now()
	if ws.tr.enabled() {
		ws.tr.end(start, acked)
		ws.sh.flip(subject)
	}
	if err != nil {
		ws.failed++
		return
	}
	ws.acked = append(ws.acked, subj)
	ws.mutateNs = append(ws.mutateNs, float64(acked.Sub(from)))
	if ws.tr.enabled() {
		ws.lagMax = max(ws.lagMax, ws.topo.lag())
	}
	for {
		ch := ws.topo.changed()
		got, err := ws.topo.visible(&after)
		if err == nil && got {
			break
		}
		if err != nil || time.Since(acked) > flipTimeout {
			ws.failed++
			return
		}
		if ch == nil {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		select {
		case <-ch:
		case <-time.After(flipTimeout):
		}
	}
	ws.propagateNs = append(ws.propagateNs, float64(time.Since(acked)))
}

func (ws *writeSide) do(op writeOp, from time.Time) {
	if op.flip {
		ws.flip(op.subj, from)
	} else {
		ws.session(op.subj, from)
	}
}

// runSchedule is the open-loop writer: each op is issued when due, or at
// once if the previous one overran, and timed from its due time.
func (ws *writeSide) runSchedule(schedule []writeOp, start time.Time, d time.Duration) {
	for _, op := range schedule {
		due := start.Add(op.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		if now.Sub(start) >= d {
			return
		}
		ws.lateNs = append(ws.lateNs, float64(now.Sub(due)))
		ws.do(op, due)
	}
}

// runProbe is the closed-loop probe: one op after the other, each timed
// from its own start.
func (ws *writeSide) runProbe(ops []writeOp) {
	for _, op := range ops {
		ws.do(op, time.Now())
	}
}

// loader replays one client's op stream against the topology.
type loader struct {
	wl     workload
	topo   topology
	client int
	table  []request
	ops    []uint32
	pos    int
	lat    *latencies
	writes *writeSide // session ops inside the stream, and the inline schedule
	inline []writeOp  // traced runs issue the writer's schedule from this loop
	tr     *tracer
	sh     *shadow
	batch  []*request
	tally
}

func (l *loader) next() uint32 {
	op := l.ops[l.pos]
	if l.pos++; l.pos == len(l.ops) {
		l.pos = 0
	}
	return op
}

// step issues the next op of the stream: a session pair, or one block of
// decisions checked against the oracle.
func (l *loader) step() {
	op := l.next()
	if op&sessionOp != 0 {
		l.writes.session(int(op&^sessionOp), time.Now())
		return
	}
	l.batch = append(l.batch[:0], &l.table[op])
	for len(l.batch) < l.wl.block {
		l.batch = append(l.batch, &l.table[l.next()])
	}
	traced := l.tr.enabled()
	start := time.Now()
	if traced {
		l.tr.begin(opDecide)
	}
	for _, r := range l.batch {
		got, err := l.topo.decide(l.client, r)
		if err != nil || got != r.want {
			l.failed++
		}
	}
	end := time.Now()
	if traced {
		l.tr.end(start, end)
		l.sh.decided(l.batch, end.Sub(start), l.tr.reply())
	}
	l.attempted += int64(len(l.batch))
	if l.lat != nil {
		l.lat.add(end.Sub(start))
	}
}

// warm replays the first n ops, untimed, so caches and connections are in
// their steady state when the phase starts.
func (l *loader) warm(n int) {
	lat := l.lat
	l.lat = nil
	for done := int64(0); done < int64(n); {
		before := l.attempted + l.writes.attempted
		l.step()
		done += l.attempted + l.writes.attempted - before
	}
	l.lat = lat
}

// run replays the stream for d, cut into the given number of latency windows.
func (l *loader) run(start time.Time, d time.Duration, windows int) {
	window := d / time.Duration(windows)
	mark := window
	for {
		elapsed := time.Since(start)
		if elapsed >= d {
			break
		}
		if elapsed >= mark && len(l.lat.marks) < windows-1 {
			l.lat.endWindow()
			mark += window
		}
		if len(l.inline) > 0 && elapsed >= l.inline[0].due {
			op := l.inline[0]
			l.inline = l.inline[1:]
			l.writes.lateNs = append(l.writes.lateNs, float64(elapsed-op.due))
			l.writes.do(op, start.Add(op.due))
			continue
		}
		l.step()
	}
	l.lat.endWindow()
}

// booted is a topology with its warm loaders.
type booted struct {
	topo    topology
	loaders []*loader
	writes  *writeSide
	dir     string
}

// setUp boots the workload's topology, loads the policy and warms it up;
// the time it takes is one sample of setup_s.
func setUp(wl workload, in *inputs, cfg config, tr *tracer, sh *shadow) (*booted, time.Duration, error) {
	dir, err := os.MkdirTemp(cfg.workRoot, wl.name+"-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	topo, err := boot(wl.topo, in.w, dir, wl.deciders, tr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("boot %s: %w", wl.topo, err)
	}
	b := &booted{topo: topo, dir: dir, writes: &writeSide{w: in.w, topo: topo, tr: tr, sh: sh}}
	for c := 0; c < wl.deciders; c++ {
		l := &loader{wl: wl, topo: topo, client: c, table: in.stream.table, ops: in.stream.ops[c],
			writes: b.writes, tr: tr, sh: sh}
		l.warm(wl.warmOps)
		b.loaders = append(b.loaders, l)
	}
	b.writes.sessionNs = b.writes.sessionNs[:0] // warm-up sessions are not samples
	return b, time.Since(start), nil
}

// tearDown stops the topology, checks recovery and removes its files.
func (b *booted) tearDown(w *world) (recoverMs float64, lost int, err error) {
	recoverMs, lost, err = b.topo.close(w, b.writes.acked)
	if rerr := os.RemoveAll(b.dir); rerr != nil && err == nil {
		err = rerr
	}
	return recoverMs, lost, err
}

func (b *booted) tally() tally {
	t := b.writes.tally
	for _, l := range b.loaders {
		t.add(l.tally)
	}
	return t
}

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// outcome is what a run found: its metrics, how many operations it asked
// for and got wrong, and the fingerprint of the inputs it replayed.
type outcome struct {
	metrics  map[string]metric
	extra    map[string]metric
	opStream string
	tally
}

// runMeasured is the untraced run that yields the end-to-end metrics. It
// boots the topology cfg.setups times; every boot is one sample of setup_s
// and carries an equal share of the timed phase, so that what one boot
// happens to get (which core a connection's goroutines land on, where the
// heap sits) is not what the run reports.
func runMeasured(wl workload, cfg config) (outcome, error) {
	segment := cfg.seconds / time.Duration(cfg.setups)
	in, err := drawInputs(wl, cfg, segment)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{opStream: in.stream.hash(in.schedule)}
	capacity := int(segment.Seconds()*wl.peakRate)/wl.block + 1024
	var (
		setups  []float64
		windows [][]float64 // per window, every decider's samples
		rates   []float64   // per window, decisions per second
		ws      = &writeSide{}
		cpu     time.Duration
	)
	for seg := 0; seg < cfg.setups; seg++ {
		b, setup, err := setUp(wl, in, cfg, nil, nil)
		if err != nil {
			return out, err
		}
		setups = append(setups, setup.Seconds())
		for _, l := range b.loaders {
			l.lat = newLatencies(capacity)
		}
		var wg sync.WaitGroup
		cpu0 := cpuTime()
		start := time.Now()
		for _, l := range b.loaders {
			wg.Add(1)
			go func(l *loader) {
				defer wg.Done()
				l.run(start, segment, windowsPerSegment)
			}(l)
		}
		if len(in.schedule) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.writes.runSchedule(in.schedule, start, segment)
			}()
		}
		wg.Wait()
		cpu += cpuTime() - cpu0

		var parts []*latencies
		for _, l := range b.loaders {
			parts = append(parts, l.lat)
		}
		for _, w := range mergeLatencies(parts) {
			windows = append(windows, w)
			rates = append(rates, float64(len(w)*wl.block)/(segment.Seconds()/windowsPerSegment))
		}
		ws.sessionNs = append(ws.sessionNs, b.writes.sessionNs...)
		ws.mutateNs = append(ws.mutateNs, b.writes.mutateNs...)
		ws.propagateNs = append(ws.propagateNs, b.writes.propagateNs...)
		ws.lateNs = append(ws.lateNs, b.writes.lateNs...)

		out.add(b.tally())
		_, lost, err := b.tearDown(in.w)
		if err != nil {
			return out, err
		}
		out.attempted += int64(len(b.writes.acked))
		out.failed += int64(lost)
	}

	// A sample is a whole block; per decision it is divided only here, so
	// that the nanosecond clock's grain is not the metric's.
	perUs := 1e3 * float64(wl.block)
	var p50s, p99s []float64
	decisions := 0
	for _, w := range windows {
		sw := sortedCopy(w)
		p50s = append(p50s, quantile(sw, 0.5)/perUs)
		p99s = append(p99s, quantile(sw, 0.99)/perUs)
		decisions += len(w) * wl.block
	}
	samples := decisions / wl.block
	// The host is a shared two-core VM, and what it does to a run only ever
	// slows it down. Set-up is therefore the fastest boot and throughput
	// the quiet tenth of the windows; the median latency is steady enough
	// as the median window's. Ten runs on ten seeds spread less this way
	// than with medians throughout (README.md has both tables).
	sort.Float64s(setups)
	sort.Float64s(rates)
	out.metrics = map[string]metric{
		"setup_s":       {Value: setups[0], Unit: "s", N: len(setups)},
		"decide_p50_us": {Value: median(p50s), Unit: "us", N: samples},
		"decide_ops_s":  {Value: quantile(rates, 0.9), Unit: "1/s", N: decisions},
		"peak_rss_mb":   {Value: peakRSSMB(), Unit: "MB", N: 1},
	}
	// Too unsteady here to carry a bound, or absent from some workloads:
	// printed beside the result, not in it.
	out.extra = map[string]metric{
		"setup_median_s":      {Value: median(setups), Unit: "s", N: len(setups)},
		"decide_ops_median_s": {Value: median(rates), Unit: "1/s", N: decisions},
		"decide_cpu_us":       {Value: float64(cpu) / 1e3 / float64(decisions), Unit: "us", N: decisions},
		"decide_p99_us":       {Value: median(p99s), Unit: "us", N: samples},
		"session_p50_us":      {Value: median(ws.sessionNs) / 1e3, Unit: "us", N: len(ws.sessionNs)},
		"mutate_p50_us":       {Value: median(ws.mutateNs) / 1e3, Unit: "us", N: len(ws.mutateNs)},
		"propagate_p50_ms":    {Value: median(ws.propagateNs) / 1e6, Unit: "ms", N: len(ws.propagateNs)},
		"writer_late_p99_ms":  {Value: quantile(sortedCopy(ws.lateNs), 0.99) / 1e6, Unit: "ms", N: len(ws.lateNs)},
	}
	return out, nil
}
