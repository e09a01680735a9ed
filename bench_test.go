package ips

// bench_test.go holds one testing.B benchmark per table and figure of the
// paper's evaluation (each delegating to the shared harness in
// internal/bench, which cmd/ips-bench also uses) plus ablation benches for
// the design choices DESIGN.md calls out. Custom metrics are attached via
// b.ReportMetric so `go test -bench` output carries the paper-comparable
// numbers.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ips/internal/bench"
	"ips/internal/compact"
	"ips/internal/config"
	"ips/internal/gcache"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/persist"
	"ips/internal/wire"
)

// BenchmarkFig16QueryLatency regenerates Fig. 16 (query throughput +
// p50/p99 under diurnal traffic) at reduced scale per iteration.
func BenchmarkFig16QueryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig16(bench.Fig16Options{
			Hours: 6, PeakQueriesPerHour: 400, Profiles: 300, WritesPerProfile: 30,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		last := rep.Points[len(rep.Points)-1]
		b.ReportMetric(last.Throughput, "qps")
		b.ReportMetric(float64(last.P50.Microseconds()), "p50_us")
		b.ReportMetric(float64(last.P99.Microseconds()), "p99_us")
		b.ReportMetric(rep.P50Spread, "p50_spread")
	}
}

// BenchmarkFig17Availability regenerates Fig. 17 (error rate under
// failures) at reduced scale.
func BenchmarkFig17Availability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig17(bench.Fig17Options{
			Days: 2, RequestsPerDay: 300, Regions: 2, InstancesPerRegion: 1,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.AvgRate*100, "err_pct")
		b.ReportMetric(rep.SLA*100, "sla_pct")
	}
}

// BenchmarkTable2HitMiss regenerates Table II (client/server latency by
// cache hit/miss).
func BenchmarkTable2HitMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunTab2(bench.Tab2Options{
			Queries: 120, Profiles: 200, StoreDelay: 2 * time.Millisecond,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.HitSavingsAvg.Microseconds()), "hit_savings_us")
		b.ReportMetric(float64(rep.NetworkOverheadAvg.Microseconds()), "net_overhead_us")
	}
}

// BenchmarkFig18CacheHitRatio regenerates Fig. 18 (hit ratio + memory
// stability).
func BenchmarkFig18CacheHitRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig18(bench.Fig18Options{
			Ticks: 8, RequestsPerTick: 1500, Profiles: 5000, MemLimit: 1 << 21,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.FinalHitRatio*100, "hit_pct")
		b.ReportMetric(rep.MemStability, "mem_maxmin")
	}
}

// BenchmarkFig19AddLatency regenerates Fig. 19 (write throughput +
// p50/p99).
func BenchmarkFig19AddLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunFig19(bench.Fig19Options{
			Hours: 4, PeakWritesPerHour: 200, Profiles: 200,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		last := rep.Points[len(rep.Points)-1]
		b.ReportMetric(last.Throughput, "wps")
		b.ReportMetric(float64(last.P50.Microseconds()), "p50_us")
		b.ReportMetric(float64(last.P99.Microseconds()), "p99_us")
	}
}

// BenchmarkIsolationAblation regenerates the §IV-C claim (isolation cuts
// write p99 ~80%).
func BenchmarkIsolationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Contention only shows with enough concurrent requests against
		// heavy profiles; smaller runs measure merge overhead instead.
		rep, err := bench.RunIso80(bench.Iso80Options{Requests: 20_000, Profiles: 300}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.WriteP99ReductionPct, "write_p99_cut_pct")
		b.ReportMetric(rep.QueryP99ChangePct, "query_p99_move_pct")
	}
}

// BenchmarkCompactionFootprint regenerates the §III-D footprint numbers
// (slice count, bytes/slice, maintained-vs-raw reduction).
func BenchmarkCompactionFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunCompaction(bench.CompactionOptions{
			Weeks: 12, EventsPerDay: 96, ActiveDaysPerWeek: 4, ShrinkRetain: 30,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.MaintainedSlices), "slices")
		b.ReportMetric(float64(rep.AvgSliceBytes), "bytes_per_slice")
		b.ReportMetric(rep.ReductionFactor, "reduction_x")
	}
}

// BenchmarkLambdaBaseline regenerates the §I baseline comparison: IPS vs
// the legacy Lambda-architecture profile services it replaced.
func BenchmarkLambdaBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunLambda(bench.LambdaOptions{
			Users: 40, Days: 10, ClicksPerUserPerDay: 15,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.WindowRecallIPS*100, "ips_recall_pct")
		b.ReportMetric(rep.WindowRecallShort*100, "short_recall_pct")
		b.ReportMetric(rep.WindowRecallLong*100, "long_recall_pct")
		b.ReportMetric(rep.LookupsPerShortQuery, "lookups_per_query")
	}
}

// BenchmarkFig10Compact and BenchmarkFig11Truncate are the deterministic
// mechanism demos.
func BenchmarkFig10Compact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig10(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Truncate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig11(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches -------------------------------------------------

// BenchmarkLRUSharding compares GCache throughput with a single global
// LRU shard versus the paper's sharded design (Fig. 7) under concurrent
// mixed load with continuous eviction pressure.
func BenchmarkLRUSharding(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tbl := model.NewTable("t", model.NewSchema("n"), 1000)
			ps := persist.New(kv.NewMemory(), "t")
			g, err := gcache.New(tbl, ps, gcache.Options{
				MemLimit: 256 << 10, LRUShards: shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			counts := []int64{1}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1))
				i := 0
				for pb.Next() {
					id := model.ProfileID(rng.Intn(5000) + 1)
					_ = g.Add(id, model.Millis(1000+i), 1, 1, model.FeatureID(i%50), counts)
					if i%64 == 0 {
						g.EvictToWatermark()
					}
					i++
				}
			})
		})
	}
}

// BenchmarkSwapTryLock compares the paper's try_lock-and-skip eviction
// probe (Fig. 8) against a blocking-lock probe when a fraction of
// candidate profiles is held by concurrent writers.
func BenchmarkSwapTryLock(b *testing.B) {
	setup := func() []*model.Profile {
		profiles := make([]*model.Profile, 64)
		sch := model.NewSchema("n")
		for i := range profiles {
			p := model.NewProfile(model.ProfileID(i))
			p.Lock()
			_ = p.Add(sch, 1000, 1000, 1, 1, 1, []int64{1})
			p.Unlock()
			profiles[i] = p
		}
		return profiles
	}
	// Hold a quarter of the profiles "busy" from a background goroutine
	// that cycles their locks with small critical sections.
	runContention := func(profiles []*model.Profile, stop chan struct{}) {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < len(profiles); i += 4 {
					p := profiles[i]
					p.Lock()
					time.Sleep(20 * time.Microsecond)
					p.Unlock()
				}
			}
		}()
	}
	b.Run("trylock-skip", func(b *testing.B) {
		profiles := setup()
		stop := make(chan struct{})
		runContention(profiles, stop)
		defer close(stop)
		b.ResetTimer()
		processed := 0
		for i := 0; i < b.N; i++ {
			p := profiles[i%len(profiles)]
			if p.TryLock() {
				processed++
				p.Unlock()
			} // contended: skip to the next entry (Fig. 8)
		}
		b.ReportMetric(float64(processed)/float64(b.N)*100, "processed_pct")
	})
	b.Run("blocking", func(b *testing.B) {
		profiles := setup()
		stop := make(chan struct{})
		runContention(profiles, stop)
		defer close(stop)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := profiles[i%len(profiles)]
			p.Lock() // waits behind the writer
			p.Unlock()
		}
		b.ReportMetric(100, "processed_pct")
	})
}

// BenchmarkPersistGranularity compares flushing a large mutated profile in
// bulk (whole value) versus fine-grained incremental slice values
// (Figs 12-13): after a head-slice write, the fine-grained mode rewrites
// one small value instead of the entire profile.
func BenchmarkPersistGranularity(b *testing.B) {
	build := func() *model.Profile {
		sch := model.NewSchema("like", "comment", "share")
		p := model.NewProfile(1)
		p.Lock()
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 120; i++ {
			base := model.Millis(1000 + i*3_600_000)
			for f := 0; f < 40; f++ {
				_ = p.Add(sch, base+model.Millis(f), 3_600_000,
					model.SlotID(rng.Intn(4)), model.TypeID(rng.Intn(2)),
					model.FeatureID(rng.Intn(100_000)), []int64{1, 0, 1})
			}
		}
		p.Unlock()
		return p
	}
	sch := model.NewSchema("like", "comment", "share")
	for _, mode := range []string{"bulk", "fine-incremental"} {
		b.Run(mode, func(b *testing.B) {
			p := build()
			ps := persist.New(kv.NewMemory(), "t")
			if mode == "bulk" {
				ps.Mode = persist.Bulk
				ps.SplitThreshold = 0 // never auto-split
			} else {
				ps.Mode = persist.FineGrained
			}
			p.RLock()
			if _, err := ps.Save(p); err != nil {
				b.Fatal(err)
			}
			p.RUnlock()
			b.ReportAllocs()
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p.Lock()
				// Mutate only the head slice, merging into one fixed FID
				// so the profile's shape stays constant across iterations
				// (a growing head would blur the granularity comparison).
				_ = p.Add(sch, p.Slices()[0].Start+1, 3_600_000, 1, 1, 1, []int64{1, 0, 0})
				p.Unlock()
				b.StartTimer()
				p.RLock()
				n, err := ps.Save(p)
				p.RUnlock()
				if err != nil {
					b.Fatal(err)
				}
				bytes += int64(n)
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes_per_flush")
		})
	}
}

// BenchmarkCodecSnappy compares persisted profile size and speed with and
// without compression (§III-E).
func BenchmarkCodecSnappy(b *testing.B) {
	sch := model.NewSchema("like", "comment", "share")
	p := model.NewProfile(1)
	p.Lock()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		_ = p.Add(sch, model.Millis(1000+rng.Intn(3_600_000)), 60_000,
			model.SlotID(rng.Intn(4)), model.TypeID(rng.Intn(2)),
			model.FeatureID(rng.Intn(2000)), []int64{1, 0, 2})
	}
	p.Unlock()
	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "snappy"
		}
		b.Run(name, func(b *testing.B) {
			ps := persist.New(kv.NewMemory(), "t")
			ps.Compress = compress
			var size int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.RLock()
				n, err := ps.Save(p)
				p.RUnlock()
				if err != nil {
					b.Fatal(err)
				}
				size = n
			}
			b.ReportMetric(float64(size), "stored_bytes")
		})
	}
}

// BenchmarkPartialCompaction compares a full recompaction against the
// load-aware partial pass that skips the coarsest band (§III-D).
func BenchmarkPartialCompaction(b *testing.B) {
	dim := config.DefaultTimeDimension()
	sch := model.NewSchema("n")
	const day = model.Millis(24 * 3600 * 1000)
	now := 400 * day
	build := func() *model.Profile {
		rng := rand.New(rand.NewSource(5))
		p := model.NewProfile(1)
		p.Lock()
		for i := 0; i < 4000; i++ {
			age := model.Millis(rng.Int63n(int64(360 * day)))
			_ = p.Add(sch, now-age, 1000, 1, 1, model.FeatureID(rng.Intn(300)), []int64{1})
		}
		p.Unlock()
		return p
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := build()
			b.StartTimer()
			p.Lock()
			compact.CompactProfile(p, sch, dim, now)
			p.Unlock()
		}
	})
	b.Run("partial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := build()
			b.StartTimer()
			p.Lock()
			compact.PartialCompactProfile(p, sch, dim, now)
			p.Unlock()
		}
	})
}

// BenchmarkBatchedWrites compares add_profile one-at-a-time against the
// batched add_profiles API over loopback RPC (§II-B1).
func BenchmarkBatchedWrites(b *testing.B) {
	const batch = 16
	for _, batched := range []bool{false, true} {
		name := "single"
		if batched {
			name = fmt.Sprintf("batch=%d", batch)
		}
		b.Run(name, func(b *testing.B) {
			env, err := bench.NewEnv(bench.EnvOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			now := env.Clock.Now()
			entries := make([]wire.AddEntry, batch)
			for i := range entries {
				entries[i] = env.Gen.WriteEntry(now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := model.ProfileID(i%500 + 1)
				if batched {
					if err := env.Client.Add(bench.TableName, id, entries...); err != nil {
						b.Fatal(err)
					}
				} else {
					for _, e := range entries {
						if err := env.Client.Add(bench.TableName, id, e); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			// Both variants move batch entries per iteration; ns/op is
			// directly comparable.
		})
	}
}
