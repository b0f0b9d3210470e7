// Command bench is the repository's request-in → splits-out benchmark: a
// closed-loop load generator that drives fleet.Fleet → resilience.Server
// → core.Model in-process on Abilene, GEANT and KDL at all-pairs flow
// counts, checks every answer, and reports the end-to-end metrics and
// the per-layer budget that BENCHMARK.json declares. README.md documents
// the workloads, the metrics and how they interact.
//
//	go run ./bench                                  all workloads, each in a fresh process
//	go run ./bench --workload hot_cache --trace 1   one workload's per-layer budget
//	go run ./bench -runs 5 -out new.json            a results file with run-to-run spread
//	go run ./bench -compare old.json new.json       regression check against the bounds
//	go run ./bench -train-weights                   regenerate testdata/harp_abilene.model
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if err := run(time.Now()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(processStart time.Time) error {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (default: all, each in a fresh process)")
		seed         = flag.Int64("seed", 1, "seed for traffic matrices and failure variants; topologies, tunnels and weights are fixed")
		seconds      = flag.Float64("seconds", 15, "length of the measured window")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer budget from a traced run")
		traceOut     = flag.String("trace-out", "", "with --trace 1, write the traced run's spans to this file")
		runs         = flag.Int("runs", 1, "untraced runs per workload when running all (the spread of a results file comes from these)")
		out          = flag.String("out", "", "when running all, write the results file here")
		compare      = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
		train        = flag.Bool("train-weights", false, "train the benchmark's model and write "+weightsPath)
	)
	flag.Parse()
	switch {
	case *train:
		return trainWeights(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files, got %d arguments", flag.NArg())
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *runs < 1 {
		return fmt.Errorf("need --seconds >= 1, --trace 0 or 1, -runs >= 1")
	}
	if err := checkWeights(); err != nil {
		return err
	}
	if *workloadName == "" {
		return runAll(os.Stdout, *seed, *seconds, *runs, *out)
	}
	w, err := workloadByName(*workloadName)
	if err != nil {
		return err
	}
	cfg := runConfig{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		warmup:   2 * time.Second,
		traceOut: *traceOut,
	}
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	defs, runOne := endToEnd, runUntraced
	if *trace == 1 {
		defs, runOne = perLayer, runTraced
	}
	r, err := runOne(w, cfg, processStart, os.Stdout)
	if err != nil {
		return err
	}
	if err := r.print(os.Stdout, defs); err != nil {
		return err
	}
	if !r.Correct {
		// The result line is printed, so the reader sees what failed; the
		// exit status says the numbers are not to be used.
		os.Exit(1)
	}
	return nil
}
