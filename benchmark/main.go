// Command benchmark is the repository's yardstick: it drives one real
// deployment (unified client → loopback TCP → service → instance over a
// disk store and a journal) with one of four seeded workloads, checks the
// program's answers against its own ledger, and prints end-to-end metrics
// or, in a traced run, per-layer metrics. README.md describes every
// metric and workload; ../BENCHMARK.json names them for the driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// runLimit is how long one run may take before it gives up; the driver
// allows 180 seconds.
const runLimit = 170 * time.Second

// traceDir receives a traced run's span file, relative to the root of the
// checkout the benchmark runs from.
const traceDir = "benchmark/out"

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 20, "seconds of measurement in one run")
		trace     = flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
		selfCheck = flag.Bool("selfcheck", false, "run two sets of runs of every workload and compare them")
		runs      = flag.Int("runs", 5, "runs per workload in each set of -selfcheck")
	)
	flag.Parse()
	if *selfCheck {
		os.Exit(selfcheck(*runs, *seconds))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; want one of %s\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// A run that has not finished by now never will within the driver's
	// limit; say where it is stuck rather than be killed silently.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded", runLimit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(3)
	})
	res, err := run(options{workload: *w, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: traceDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d GOMAXPROCS %d\n", w.name, *seed, procs)
	for _, n := range names {
		fmt.Printf("%-28s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}
