// Command grbac-bench runs the paper-reproduction experiment suite
// (DESIGN.md §4, E1–E15; E16–E20 live in their packages' benchmarks and
// drills) and prints one report block per experiment. The output is
// what EXPERIMENTS.md records.
//
// Usage:
//
//	grbac-bench            # run everything
//	grbac-bench -run E4    # run one experiment
//	grbac-bench -list      # list the suite
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/aware-home/grbac/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("grbac-bench: ")
	runID := flag.String("run", "", "run a single experiment (E1..E15)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-45s %s\n", e.ID, e.Title, e.Source)
		}
		return
	}
	if *runID != "" {
		e, ok := experiments.Find(*runID)
		if !ok {
			log.Fatalf("unknown experiment %q (try -list)", *runID)
		}
		if err := experiments.RunOne(os.Stdout, e); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := experiments.RunAll(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
