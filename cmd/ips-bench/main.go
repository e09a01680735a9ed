// Command ips-bench regenerates the paper's evaluation artifacts: every
// table and figure of §IV plus the quantified claims of §III. Run a single
// experiment with -exp, or everything with -exp all. The -full flag uses
// larger, slower parameterizations; the default runs each experiment in
// seconds.
//
//	ips-bench -exp fig16
//	ips-bench -exp all -full
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ips/internal/bench"
)

type experiment struct {
	id, desc string
	run      func(full bool) error
}

func main() {
	exp := flag.String("exp", "", "experiment id (fig16, fig17, tab2, fig18, fig19, iso80, compaction, lambda, tail, recovery, hotkey, migrate, tiered, sub, fig10, fig11, all)")
	full := flag.Bool("full", false, "run the larger, slower parameterization")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()

	experiments := []experiment{
		{"fig16", "query throughput + p50/p99 under diurnal traffic", func(full bool) error {
			o := bench.Fig16Options{}
			if !full {
				o = bench.Fig16Options{Hours: 12, PeakQueriesPerHour: 1500, Profiles: 800, WritesPerProfile: 40}
			}
			_, err := bench.RunFig16(o, os.Stdout)
			return err
		}},
		{"fig17", "client-side error rate over days of injected failures", func(full bool) error {
			o := bench.Fig17Options{}
			if !full {
				o = bench.Fig17Options{Days: 5, RequestsPerDay: 800}
			}
			_, err := bench.RunFig17(o, os.Stdout)
			return err
		}},
		{"tab2", "client/server query latency by cache hit/miss", func(full bool) error {
			o := bench.Tab2Options{}
			if full {
				o.Queries = 3000
			}
			_, err := bench.RunTab2(o, os.Stdout)
			return err
		}},
		{"fig18", "cache hit ratio and memory usage", func(full bool) error {
			o := bench.Fig18Options{}
			if !full {
				o = bench.Fig18Options{Ticks: 20, RequestsPerTick: 2000, Profiles: 8000, MemLimit: 512 << 10}
			}
			_, err := bench.RunFig18(o, os.Stdout)
			return err
		}},
		{"fig19", "add throughput + p50/p99 under diurnal traffic", func(full bool) error {
			o := bench.Fig19Options{}
			if !full {
				o = bench.Fig19Options{Hours: 12, PeakWritesPerHour: 800, Profiles: 500}
			}
			_, err := bench.RunFig19(o, os.Stdout)
			return err
		}},
		{"iso80", "read-write isolation ablation (write p99 cut)", func(full bool) error {
			o := bench.Iso80Options{}
			if full {
				o.Requests = 60_000
			}
			_, err := bench.RunIso80(o, os.Stdout)
			return err
		}},
		{"compaction", "compact/truncate/shrink footprint vs raw growth", func(full bool) error {
			o := bench.CompactionOptions{}
			if !full {
				o = bench.CompactionOptions{Weeks: 16, EventsPerDay: 96, ActiveDaysPerWeek: 4}
			}
			_, err := bench.RunCompaction(o, os.Stdout)
			return err
		}},
		{"lambda", "baseline: legacy Lambda profile services vs IPS (§I)", func(full bool) error {
			o := bench.LambdaOptions{}
			if !full {
				o = bench.LambdaOptions{Users: 80, Days: 10, ClicksPerUserPerDay: 20}
			}
			_, err := bench.RunLambda(o, os.Stdout)
			return err
		}},
		{"tail", "tail latency with one stalled replica: baseline vs hedged", func(full bool) error {
			o := bench.TailOptions{}
			if !full {
				o = bench.TailOptions{Requests: 600, Profiles: 120}
			}
			_, err := bench.RunTailLatency(o, os.Stdout)
			return err
		}},
		{"recovery", "journal write amplification on Add + recovery time vs dirty-set size", func(full bool) error {
			o := bench.RecoveryOptions{}
			if !full {
				o = bench.RecoveryOptions{Profiles: 100, AddsPerProfile: 20, DirtySweep: []int{100, 400, 1000}}
			}
			_, err := bench.RunRecovery(o, os.Stdout)
			return err
		}},
		{"hotkey", "hot-key contention: single-flight, hot slots", func(full bool) error {
			o := bench.HotkeyOptions{}
			if full {
				o = bench.HotkeyOptions{ColdKeys: 64, ReadersPerKey: 16, Readers: 12, ReadsPerReader: 5000, Profiles: 512}
			}
			_, err := bench.RunHotkey(o, os.Stdout)
			return err
		}},
		{"migrate", "read p99 during live resharding (join + drain) vs steady state", func(full bool) error {
			o := bench.MigrateOptions{}
			if full {
				o = bench.MigrateOptions{Instances: 4, Profiles: 1024, SteadyOps: 20000, Workers: 8}
			}
			_, err := bench.RunMigrate(o, os.Stdout)
			return err
		}},
		{"tiered", "tiered cache: hit ratio vs memory per tier (hot/warm/KV)", func(full bool) error {
			o := bench.TieredOptions{}
			if !full {
				o = bench.TieredOptions{
					MemLimits: []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20},
					Profiles:  2000, Ticks: 6, RequestsPerTick: 800,
				}
			}
			_, err := bench.RunTiered(o, os.Stdout)
			return err
		}},
		{"sub", "continuous queries: push vs poll update propagation at 10k standing queries (writes BENCH_sub.json)", func(full bool) error {
			o := bench.SubscribeOptions{}
			if !full {
				o = bench.SubscribeOptions{Events: 120, ChurnPerEvent: 8}
			}
			_, err := bench.RunSubscribe(o, os.Stdout)
			return err
		}},
		{"fig10", "compaction mechanism demo (6 slices -> 3)", func(bool) error {
			_, err := bench.RunFig10(os.Stdout)
			return err
		}},
		{"fig11", "truncate-by-count mechanism demo", func(bool) error {
			_, err := bench.RunFig11(os.Stdout)
			return err
		}},
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-11s %s\n", e.id, e.desc)
		}
		fmt.Println("  all         run everything")
		if *exp == "" {
			os.Exit(2)
		}
		return
	}

	run := func(e experiment) {
		fmt.Printf("=== %s ===\n", e.id)
		start := time.Now()
		if err := e.run(*full); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments {
			run(e)
		}
		return
	}
	for _, e := range experiments {
		if e.id == *exp {
			run(e)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
	os.Exit(2)
}
