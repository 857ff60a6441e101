package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted (nearest rank), 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// latencies collects per-sample latencies in nanoseconds and remembers where
// each time window of the phase ended, so a tail percentile can be taken per
// window and the windows' median reported.
type latencies struct {
	ns    []uint32
	marks []int
}

func newLatencies(capacity int) *latencies {
	return &latencies{ns: make([]uint32, 0, capacity)}
}

func (l *latencies) add(d time.Duration) {
	if d > 1<<32-1 {
		d = 1<<32 - 1
	}
	l.ns = append(l.ns, uint32(d))
}

func (l *latencies) endWindow() { l.marks = append(l.marks, len(l.ns)) }

func toFloats(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

// mergeLatencies pools the clients' samples window by window.
func mergeLatencies(parts []*latencies) [][]float64 {
	nWin := 0
	for _, p := range parts {
		nWin = max(nWin, len(p.marks))
	}
	windows := make([][]float64, nWin)
	for _, p := range parts {
		lo := 0
		for w, hi := range p.marks {
			windows[w] = append(windows[w], toFloats(p.ns[lo:hi])...)
			lo = hi
		}
	}
	return windows
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// procUsage is a reading of the process-wide cost counters.
type procUsage struct {
	cpu        time.Duration
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime accounts it
	mallocs    uint64
	allocBytes uint64
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProcUsage() procUsage {
	u := procUsage{cpu: cpuTime()}
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		u.totalCPU = s[1].Value.Float64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs, u.allocBytes = ms.Mallocs, ms.TotalAlloc
	return u
}
