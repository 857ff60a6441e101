// Command bench is the repository's one benchmark. It boots each topology
// in-process on loopback with real net/http, drives a seeded, pre-drawn op
// stream from this single process, checks every answer against the
// generator's oracle and prints every metric by name.
//
// One run of one workload:
//
//	bench -workload direct-read -seed 12 -seconds 15 -trace 0   # end-to-end metrics
//	bench -workload direct-read -seed 12 -seconds 15 -trace 1   # per-layer metrics
//
// Its last line of output is one JSON object with the keys correct,
// attempted, failed and metrics. Without -workload or -trace the command
// runs every combination, each in a process of its own so that peak memory
// is per workload, and prints one JSON document; -compare checks two such
// documents against the bounds in BENCHMARK.json. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// result is the last line of a run, in the shape the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before it: what was run and how many samples stand
// behind each metric.
type detail struct {
	Workload string         `json:"workload"`
	Trace    int            `json:"trace"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Loop     string         `json:"loop"`
	OpStream string         `json:"op_stream"`
	Samples  map[string]int `json:"samples"`
	// Extra is what a measured run saw besides its bounded metrics.
	Extra map[string]metric `json:"extra,omitempty"`
}

// record is one run inside the document the all-workloads mode prints.
type record struct {
	detail
	result
}

type document struct {
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Quick   bool     `json:"quick"`
	Runs    []record `json:"runs"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 12, "seed of the policy and of every op stream")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.String("trace", "", "0: measured run, 1: traced run (default: both)")
	quick := fs.Bool("quick", false, "about one second per run, two boots, a small write probe")
	traceOut := fs.String("trace-out", "", "traced run: write the spans to this file as JSON lines")
	repeat := fs.Int("repeat", 1, "all-workloads mode: runs of each combination")
	compare := fs.Bool("compare", false, "compare two documents: bench -compare a.json b.json")
	workRoot := fs.String("workdir", filepath.Join(".bench_build", "tmp"), "directory for stores and decision logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	cfg := config{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		setups: 10, probe: probeCounts{sessions: 400, flips: 100},
		traceOut: *traceOut, workRoot: *workRoot,
	}
	if *quick {
		cfg.seconds, cfg.setups, cfg.probe = time.Second, 2, probeCounts{sessions: 20, flips: 10}
	}
	if *workloadName == "" || *trace == "" {
		return runAll(*workloadName, *trace, *repeat, *quick, cfg)
	}
	wl, ok := findWorkload(*workloadName)
	traced, err := strconv.ParseBool(*trace)
	if !ok || err != nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or trace mode %q\n", *workloadName, *trace)
		return 2
	}
	det, res, err := runOne(wl, traced, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := printLines(det, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne performs one measured or traced run in this process.
func runOne(wl workload, traced bool, cfg config) (detail, result, error) {
	if err := os.MkdirAll(cfg.workRoot, 0o755); err != nil {
		return detail{}, result{}, err
	}
	runner := runMeasured
	if traced {
		runner = runTraced
	}
	out, err := runner(wl, cfg)
	if err != nil {
		return detail{}, result{}, err
	}
	det := detail{
		Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Loop: wl.loop,
		OpStream: out.opStream, Samples: make(map[string]int), Extra: out.extra,
	}
	if traced {
		det.Trace = 1
	}
	res := result{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted,
		Failed: out.failed, Metrics: make(map[string]metric)}
	for name, m := range out.metrics {
		det.Samples[name] = m.N
		res.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return det, res, nil
}

func printLines(det detail, res result) error {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(det); err != nil {
		return err
	}
	return enc.Encode(res)
}

// runAll runs the selected workloads and modes, each in a child process,
// and prints one document. It exits non-zero if any run gave a wrong answer
// or lost an acknowledged mutation.
func runAll(only, trace string, repeat int, quick bool, cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	modes := []string{"0", "1"}
	if trace != "" {
		modes = []string{trace}
	}
	doc := document{Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Quick: quick}
	status := 0
	for rep := 0; rep < repeat; rep++ {
		for _, wl := range workloads {
			if only != "" && wl.name != only {
				continue
			}
			for _, mode := range modes {
				args := []string{"-workload", wl.name, "-trace", mode, "-workdir", cfg.workRoot,
					"-seed", strconv.FormatInt(cfg.seed, 10),
					"-seconds", strconv.FormatFloat(cfg.seconds.Seconds(), 'f', -1, 64)}
				if quick {
					args = append(args, "-quick")
				}
				if cfg.traceOut != "" && mode == "1" {
					args = append(args, "-trace-out", wl.name+"."+cfg.traceOut)
				}
				fmt.Fprintf(os.Stderr, "bench: %s trace=%s\n", wl.name, mode)
				rec, err := runChild(self, args)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s trace=%s: %v\n", wl.name, mode, err)
					status = 1
				}
				if rec != nil {
					doc.Runs = append(doc.Runs, *rec)
				}
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return status
}

// runChild runs one combination and reads the two lines it prints. A child
// that printed a result but exited non-zero had a wrong answer; its record
// is kept and the error returned as well.
func runChild(self string, args []string) (*record, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, errors.Join(errors.New("no result printed"), runErr)
	}
	var rec record
	if err := json.Unmarshal(lines[len(lines)-2], &rec.detail); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
		return nil, err
	}
	for name, n := range rec.Samples {
		m := rec.Metrics[name]
		m.N = n
		rec.Metrics[name] = m
	}
	if !rec.Correct {
		runErr = errors.Join(fmt.Errorf("%d of %d operations failed", rec.Failed, rec.Attempted), runErr)
	}
	return &rec, runErr
}
