package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spec is BENCHMARK.json: the names, directions and bounds this benchmark
// is held to.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json from the repository root or from bench/.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// quartiles follows Python's statistics.quantiles(values, n=4), the rule the
// acceptance check applies to repeated runs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sortedCopy(values)
	n := len(data)
	cut := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		j = min(max(j, 1), n-1)
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// minRuns is how many runs a side needs before its spread, and so a
// verdict, means anything: statistics.quantiles needs two points, and a
// quartile of fewer than four is one of the points.
const minRuns = 4

// spread is a side's run-to-run width as a share of its median: the
// interquartile range of its runs.
func spread(values []float64) float64 {
	m := median(values)
	if len(values) < minRuns || m == 0 {
		return 0
	}
	q1, _, q3 := quartiles(values)
	return (q3 - q1) / m
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// valuesOf collects a metric's values over a document's measured runs of
// one workload, and whether any of those runs was incorrect.
func (d *document) valuesOf(workload, name string) (values []float64, wrong bool) {
	for _, r := range d.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if !r.Correct {
			wrong = true
		}
		if m, ok := r.Metrics[name]; ok {
			values = append(values, m.Value)
		}
	}
	return values, wrong
}

// compareFiles prints, per workload and end-to-end metric, how far b's
// median is from a's against the metric's bound. A pair whose own spread is
// wider than the bound, or with fewer than four runs a side (bench -repeat),
// is unresolved rather than unchanged or worse: on this host single runs of
// one commit differ by more than a bound. It returns non-zero when b is
// worse than a by more than a bound, or a run was wrong.
func compareFiles(pathA, pathB string) int {
	sp, err := loadSpec()
	if err == nil {
		var a, b *document
		if a, err = readDocument(pathA); err == nil {
			if b, err = readDocument(pathB); err == nil {
				return compareDocuments(sp, a, b)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareDocuments(sp *spec, a, b *document) int {
	status := 0
	fmt.Printf("%-15s %-18s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	names := make([]string, 0, len(sp.Workloads))
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	for _, workload := range names {
		for _, m := range sp.EndToEnd {
			va, wrongA := a.valuesOf(workload, m.Name)
			vb, wrongB := b.valuesOf(workload, m.Name)
			if wrongA || wrongB {
				fmt.Printf("%-15s %-18s a run gave a wrong answer or lost a mutation\n", workload, m.Name)
				status = 1
				continue
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-15s %-18s missing\n", workload, m.Name)
				status = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if m.Better == "higher" {
					worse = -worse
				}
			}
			width := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case len(va) < minRuns || len(vb) < minRuns:
				verdict = "unresolved: fewer than 4 runs a side"
			case width > m.Bound:
				verdict = "unresolved: spread wider than bound"
			case worse > m.Bound:
				verdict = "BREACH"
				status = 1
			}
			fmt.Printf("%-15s %-18s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				workload, m.Name, ma, mb, 100*worse, 100*width, 100*m.Bound, verdict)
		}
	}
	return status
}
