package main

import (
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

func quickConfig(dir string) config {
	return config{seed: 12, seconds: time.Second, setups: 1,
		probe: probeCounts{sessions: 20, flips: 10}, workRoot: dir}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func specNames(ms []specMetric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuickRunsMatchSpec is the rot guard: every workload boots, answers
// every operation as the oracle expects in both kinds of run, emits exactly
// the metric names BENCHMARK.json lists with the units it lists, and leaves
// neither goroutines nor files behind.
func TestQuickRunsMatchSpec(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var specWorkloads, ours []string
	for _, w := range sp.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, wl := range workloads {
		ours = append(ours, wl.name)
	}
	sort.Strings(specWorkloads)
	sort.Strings(ours)
	if !equalStrings(specWorkloads, ours) {
		t.Fatalf("workloads: BENCHMARK.json has %v, the benchmark has %v", specWorkloads, ours)
	}
	units := make(map[string]string)
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		units[m.Name] = m.Unit
	}

	dir := t.TempDir()
	goroutines := runtime.NumGoroutine()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			_, res, err := runOne(wl, traced, quickConfig(dir))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", wl.name, traced, res.Failed, res.Attempted)
			}
			want := specNames(sp.EndToEnd)
			if traced {
				want = specNames(sp.PerLayer)
			}
			if got := sortedKeys(res.Metrics); !equalStrings(got, want) {
				t.Errorf("%s traced=%v: metrics\n got  %v\n want %v", wl.name, traced, got, want)
			}
			for name, m := range res.Metrics {
				if m.Unit != units[name] {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.name, name, m.Unit, units[name])
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", wl.name, name, m.Value)
				}
			}
		}
	}

	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("runs left %d entries in the work directory, first %s", len(left), left[0].Name())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the runs, %d after\n%s", goroutines, now, buf[:runtime.Stack(buf, true)])
	}
}

func docOf(workload string, values map[string][]float64) *document {
	d := &document{}
	n := 0
	for _, v := range values {
		n = max(n, len(v))
	}
	for i := 0; i < n; i++ {
		r := record{}
		r.Workload, r.Correct, r.Metrics = workload, true, make(map[string]metric)
		for name, v := range values {
			if i < len(v) {
				r.Metrics[name] = metric{Value: v[i]}
			}
		}
		d.Runs = append(d.Runs, r)
	}
	return d
}

func TestCompareVerdicts(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{
		{Name: "latency_us", Better: "lower", Bound: 0.10},
		{Name: "ops_s", Better: "higher", Bound: 0.10},
	}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	base := docOf("w", map[string][]float64{"latency_us": {100, 101, 99, 100}, "ops_s": {1000, 1010, 990, 1000}})
	same := docOf("w", map[string][]float64{"latency_us": {104, 103, 105, 104}, "ops_s": {960, 970, 950, 960}})
	if compareDocuments(sp, base, same) != 0 {
		t.Error("a 4% move inside a 10% bound must pass")
	}
	slower := docOf("w", map[string][]float64{"latency_us": {100, 101, 99, 100}, "ops_s": {850, 860, 840, 850}})
	if compareDocuments(sp, base, slower) == 0 {
		t.Error("15% less throughput must breach a 10% bound")
	}
	wide := docOf("w", map[string][]float64{"latency_us": {100, 160, 70, 130}, "ops_s": {1000, 1010, 990, 1000}})
	if compareDocuments(sp, base, wide) != 0 {
		t.Error("a spread wider than the bound is unresolved, not a breach")
	}
	single := docOf("w", map[string][]float64{"latency_us": {150}, "ops_s": {1000}})
	if compareDocuments(sp, base, single) != 0 {
		t.Error("one run a side cannot resolve a difference on a noisy host")
	}
	wrong := docOf("w", map[string][]float64{"latency_us": {100}, "ops_s": {1000}})
	wrong.Runs[0].Correct = false
	if compareDocuments(sp, base, wrong) == 0 {
		t.Error("a run with a wrong answer must fail the comparison")
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which the
// acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
