// Package guardtest holds the two assertions the TestGuard… tests share:
// that a hook compiled into the mediation path is free when idle
// (ZeroCost), and that warm mediation takes no contended lock
// (NoLockContention). Each guard test lives beside the code it pins and
// keeps its threshold as a constant; `go test -run '^TestGuard' ./...`
// runs the family.
package guardtest

import (
	"bytes"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// SkipUnderRace skips t when the race detector is compiled in: its
// instrumentation allocates, slows every memory access and serialises
// goroutines, so allocation counts, latencies and lock profiles taken
// under it say nothing about the production build.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts, latencies and lock profiles are skewed by race instrumentation")
	}
}

// ZeroCost fails t unless fn allocates nothing and its mean cost, as
// testing.Benchmark measures it, is at most maxNs nanoseconds. The
// benchmark runs fn on its own goroutine, so fn reports failures with
// t.Error, never t.Fatal.
func ZeroCost(t *testing.T, maxNs float64, fn func()) {
	t.Helper()
	SkipUnderRace(t)
	if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
		t.Fatalf("%.1f allocs/op, want 0", allocs)
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	t.Logf("%.2f ns/op, 0 allocs/op (ceiling %.0f ns)", ns, maxNs)
	if ns > maxNs {
		t.Fatalf("%.2f ns/op, over the %.0f ns ceiling", ns, maxNs)
	}
}

// contentionWindow is how long fn runs at each GOMAXPROCS setting: long
// enough for a lock planted anywhere on a warm ~100 ns path to be
// contended dozens of times over, on two cores as on many.
const contentionWindow = 300 * time.Millisecond

// lockFrame matches the frames a sync.Mutex or sync.RWMutex contention
// record carries (internal/sync's as well, from Go 1.24).
var lockFrame = regexp.MustCompile(`sync\.\(\*(RW)?Mutex\)`)

// NoLockContention runs fn in a loop from as many goroutines as
// GOMAXPROCS, at GOMAXPROCS 2 and then 8, for contentionWindow each, with
// every mutex contention event profiled, and fails t on any new
// sync.Mutex or sync.RWMutex contention whose stack passes through a
// function whose full name matches the focus regexp. fn runs off the test
// goroutine, so it reports failures with t.Error.
func NoLockContention(t *testing.T, focus string, fn func()) {
	t.Helper()
	SkipUnderRace(t)
	focusRE := regexp.MustCompile(focus)
	defer runtime.SetMutexProfileFraction(runtime.SetMutexProfileFraction(1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	// The mutex profile is cumulative for the whole process, so earlier
	// tests may have left contended records behind: only what this run
	// adds counts.
	before := mutexProfile(t)
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		var stop atomic.Bool
		time.AfterFunc(contentionWindow, func() { stop.Store(true) })
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					fn()
				}
			}()
		}
		wg.Wait()
	}
	for stack, rec := range mutexProfile(t) {
		added := rec.count - before[stack].count
		if added > 0 && rec.matches(lockFrame) && rec.matches(focusRE) {
			t.Errorf("%d contended lock event(s) below %s:\n\t%s",
				added, focus, strings.Join(rec.funcs, "\n\t"))
		}
	}
}

// contention is one record of the mutex profile: how many contention
// events its stack has seen, and the stack's function names, inlined
// frames included.
type contention struct {
	count int64
	funcs []string
}

func (c contention) matches(re *regexp.Regexp) bool {
	for _, f := range c.funcs {
		if re.MatchString(f) {
			return true
		}
	}
	return false
}

// mutexProfile reads the process's mutex profile in its debug=1 text
// form, keyed by each record's stack of program counters. A record is a
// "cycles count @ pc pc …" line followed by one "#\tpc\tfunc+off\tfile:line"
// line per frame.
func mutexProfile(t *testing.T) map[string]contention {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatalf("read mutex profile: %v", err)
	}
	recs := make(map[string]contention)
	var key string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			if key == "" {
				continue
			}
			fields := strings.Split(line, "\t")
			if len(fields) < 3 {
				continue
			}
			fn := fields[2]
			if i := strings.LastIndex(fn, "+0x"); i >= 0 {
				fn = fn[:i]
			}
			rec := recs[key]
			rec.funcs = append(rec.funcs, fn)
			recs[key] = rec
			continue
		}
		head, stack, ok := strings.Cut(line, " @ ")
		if !ok {
			key = ""
			continue
		}
		fields := strings.Fields(head)
		if len(fields) != 2 {
			t.Fatalf("mutex profile record %q: want \"cycles count @ stack\"", line)
		}
		count, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("mutex profile record %q: %v", line, err)
		}
		key = stack
		recs[key] = contention{count: count}
	}
	return recs
}
