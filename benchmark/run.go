package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"ips/benchmark/load"
	"ips/internal/client"
	"ips/internal/gcache"
	"ips/internal/rpc"
	"ips/internal/wal"
	"ips/internal/wire"
)

// The run shape, identical for every workload.
const (
	// procs pins GOMAXPROCS to the sandbox's core count, so a machine
	// with more cores measures the same program.
	procs = 2
	// satCallers closed-loop callers saturate the deployment; pacedWorkers
	// bound how many open-loop calls may be in flight.
	satCallers   = 8
	pacedWorkers = 64
	// A measuring run spends satShare of its seconds saturated and the
	// rest paced: of the driver's 20 seconds, 8 and 12. Eight is a whole
	// number of the program's 2s write-table merge intervals, so every
	// saturated phase holds the same number of merges. A traced run spends
	// half as long in each and the remainder in the single-caller replay,
	// baselineShare of which runs with the recorder off.
	satShare      = 0.4
	baselineShare = 0.2
	// generator streams: callers use their index; these are the others.
	streamPacer  = 1000
	streamReplay = 1001
	streamWarm   = 2000
)

// options selects one run.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the traced run's span file.
	outDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counters is one reading of every public snapshot the layers export,
// plus the process's own resource use.
type counters struct {
	res       client.ResilienceStats
	batchRPCs int64
	io        rpc.IOStatsSnapshot
	server    *wire.StatsResponse
	cache     gcache.Stats
	wal       wal.Stats
	kv        kvCounts
	mem       runtime.MemStats
	cpuUs     float64
	userBytes int64
	acked     int64
}

func snapshot(d *deployment, led *ledger) (c counters, err error) {
	c.res = d.client.Resilience()
	c.batchRPCs = d.client.BatchRPCs.Value()
	c.io = rpc.IOStats()
	c.server = d.inst.Stats()
	if c.cache, err = d.inst.CacheStats(tableName); err != nil {
		return c, err
	}
	c.wal = d.journal.Stats()
	c.kv = d.store.counts()
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, err
	}
	c.cpuUs = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
	c.userBytes, c.acked = led.userBytes.Load(), led.ackedAdds.Load()
	return c, nil
}

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// bench is one run in progress.
type bench struct {
	opt options
	rec *recorder // nil unless traced
	d   *deployment
	led *ledger
	// firstErr keeps the first failed call for the diagnostics.
	firstErr atomic.Pointer[error]
}

func (b *bench) noteErr(err error) { b.firstErr.CompareAndSwap(nil, &err) }

// clientDo returns the doFunc that sends operations through the unified
// client, one reusable caller per worker.
func (b *bench) clientDo(workers int) doFunc {
	callers := make([]caller, workers)
	for i := range callers {
		callers[i] = caller{d: b.d, led: b.led}
	}
	ctx := context.Background()
	return func(i int, op *load.Op) error {
		err := callers[i].do(ctx, op)
		if err != nil {
			b.noteErr(err)
		}
		return err
	}
}

func (b *bench) gen(stream uint64) *load.Generator {
	return load.New(b.opt.workload.spec, b.opt.seed, stream)
}

// setUp builds a fresh deployment, prefills it and warms it up.
func (b *bench) setUp() error {
	dir, err := newDataDir()
	if err != nil {
		return err
	}
	if b.d, err = deploy(dir, b.rec, true); err != nil {
		_ = os.RemoveAll(dir)
		return err
	}
	w := &b.opt.workload
	b.led = &ledger{sample: sampleProfiles(w.spec.Profiles)}
	start := time.Now()
	if err := prefill(b.d, w.spec, b.opt.seed, b.led); err != nil {
		return err
	}
	prefilled := time.Since(start)
	warm := runClosed(satCallers, 0, int64(w.warmOps), func(i int) *load.Generator { return b.gen(streamWarm + uint64(i)) }, b.clientDo(satCallers))
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d calls failed: %w", warm.failed, warm.attempted, *b.firstErr.Load())
	}
	// Collect what set-up left behind, as testing.B does before it times
	// anything: the first measured phase then starts from the same heap on
	// every run instead of wherever the prefill's last cycle happened to end.
	runtime.GC()
	fmt.Fprintf(os.Stderr, "set-up: prefill %.2fs, warm-up %.2fs\n", prefilled.Seconds(), (time.Since(start) - prefilled).Seconds())
	return nil
}

// tearDown closes the deployment, if any, and deletes its files.
func (b *bench) tearDown() {
	if b.d != nil {
		b.d.close()
		_ = os.RemoveAll(b.d.dir)
		b.d = nil
	}
}

// run executes one benchmark run and returns its result line.
func run(opt options) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	b := &bench{opt: opt}
	if opt.trace {
		b.rec = &recorder{t0: time.Now()}
	}
	defer b.tearDown()

	start := time.Now()
	if err := b.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS := time.Since(start).Seconds()

	seconds := opt.seconds
	if opt.trace {
		seconds /= 2
	}
	satDur := time.Duration(seconds * satShare * float64(time.Second))
	pacedDur := time.Duration(seconds*float64(time.Second)) - satDur

	before, err := snapshot(b.d, b.led)
	if err != nil {
		return nil, err
	}
	sat := runClosed(satCallers, satDur, 0, func(i int) *load.Generator { return b.gen(uint64(i)) }, b.clientDo(satCallers))
	mid, err := snapshot(b.d, b.led)
	if err != nil {
		return nil, err
	}
	paced := runPaced(b.gen(streamPacer), opt.workload.pacedRate, pacedDur, pacedWorkers, b.clientDo(pacedWorkers))
	after, err := snapshot(b.d, b.led)
	if err != nil {
		return nil, err
	}
	// Read the high-water mark before the checks: on ingest they open a
	// second instance beside the first, which is the benchmark's doing.
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	res := &result{
		Attempted: sat.attempted + paced.attempted,
		Failed:    sat.failed + paced.failed,
		Metrics:   make(map[string]metric),
	}
	if opt.trace {
		tr, err := b.traced(opt.seconds / 2)
		if err != nil {
			return nil, err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		b.perLayer(res.Metrics, &sat, &paced, before, after, tr)
	}

	kvWritten, walBytes, err := b.finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	late := append([]float64(nil), paced.lateUs...)
	sort.Float64s(late)
	fmt.Fprintf(os.Stderr, "paced: %d calls, sent p50 %.0fus p99 %.0fus max %.0fus after they were due; latency p50 %.0fus p90 %.0fus p99 %.0fus; cpu %.0f%% of one core, %d gc cycles\n",
		len(late), quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1),
		latencyUs(paced.all(), 0.5), latencyUs(paced.all(), 0.9), latencyUs(paced.all(), 0.99),
		100*(after.cpuUs-mid.cpuUs)/float64(pacedDur.Microseconds()), after.mem.NumGC-mid.mem.NumGC)
	// A run is correct only if every call was answered completely and every
	// answer checked out: the workloads are sized so that none fails.
	res.Correct = err == nil && res.Failed == 0
	if p := b.firstErr.Load(); p != nil {
		fmt.Fprintln(os.Stderr, "benchmark: first failed call:", *p)
	}

	if !opt.trace {
		satOps := float64(sat.attempted - sat.failed)
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["ops_per_s"] = metric{opsPerSecond(sat.all(), int64(satDur)), "1/s"}
		res.Metrics["cpu_us_per_op"] = metric{ratio(mid.cpuUs-before.cpuUs, satOps), "us"}
		res.Metrics["mallocs_per_op"] = metric{ratio(float64(mid.mem.Mallocs-before.mem.Mallocs), satOps), "count"}
		res.Metrics["paced_p50_us"] = metric{latencyUs(paced.all(), 0.50), "us"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
		res.Metrics["write_amp"] = metric{ratio(float64(kvWritten+walBytes), float64(b.led.userBytes.Load())), "ratio"}
	}
	return res, nil
}

// opsPerSecond is the median, over the phase's whole seconds, of calls
// completed in that second.
func opsPerSecond(samples []sample, phaseNs int64) float64 {
	n := int(phaseNs / 1e9)
	if n == 0 {
		return ratio(float64(len(samples))*1e9, float64(phaseNs))
	}
	done := make([]float64, n)
	for _, s := range samples {
		if i := int((s.atNs + s.latNs) / 1e9); i < n {
			done[i]++
		}
	}
	return median(done)
}

// finish checks the program's answers and closes the books on bytes
// written. After a workload with writes it first verifies the live
// instance, then kills it without merging or flushing, reopens instance,
// journal and store from the same files and verifies again: every
// acknowledged write must survive a process crash. Closing the instance
// is the final flush. It returns the bytes the store and the journal were
// asked to write over the deployment's whole life.
func (b *bench) finish() (kvWritten, walBytes int64, err error) {
	d, spec := b.d, b.opt.workload.spec
	err = verify(d.inst, spec, b.led)
	if spec.AddShare > 0 {
		d.crash()
		kvWritten, walBytes = d.store.counts().writeBytes, d.journal.Stats().AppendBytes
		re, rerr := deploy(d.dir, nil, false)
		if rerr != nil {
			b.d = nil
			_ = os.RemoveAll(d.dir)
			return 0, 0, fmt.Errorf("reopen after crash: %w", rerr)
		}
		if verr := verify(re.inst, spec, b.led); verr != nil {
			err = errors.Join(err, fmt.Errorf("after crash: %w", verr))
		}
		d, b.d = re, re
	}
	b.tearDown()
	return kvWritten + d.store.counts().writeBytes, walBytes + d.journal.Stats().AppendBytes, err
}

// traceResult is what the traced replay measured beyond its spans.
type traceResult struct {
	attempted, failed int64
	baselineMeanUs    float64
	probes            layerProbes
	nsPerFeature      float64
	batchBytesPerSub  float64
}

// traced runs the single-caller replay over all four depths for the given
// number of seconds and writes the span file.
func (b *bench) traced(seconds float64) (*traceResult, error) {
	w := &b.opt.workload
	// The rig reads a copy of the store, so everything must be in it.
	if err := settle(b.d); err != nil {
		return nil, err
	}
	g, err := newRig(b.d, b.rec)
	if err != nil {
		return nil, err
	}
	defer g.close()
	rc := rpc.NewClient(b.d.addr)
	defer rc.Close()
	t := &tracer{rec: b.rec, d: b.d, rig: g, rpc: rc, led: b.led, ctx: context.Background(), c: caller{d: b.d, led: b.led}}

	// Warm the rig's cache the way the live one was, then time the
	// untraced baseline: the same loop at depth 0 with the recorder off.
	gen := b.gen(streamWarm)
	var op load.Op
	for i := 0; i < w.warmOps; i++ {
		gen.Next(&op)
		if err := t.do(numDepths-1, 0, &op); err != nil {
			return nil, fmt.Errorf("rig warm-up: %w", err)
		}
	}
	out := &traceResult{}
	total := time.Duration(seconds * float64(time.Second))
	baseDur := time.Duration(float64(total) * baselineShare)
	gen = b.gen(streamReplay)
	n, failed, inCalls, ferr := t.replay(gen, baseDur, 1)
	out.attempted, out.failed = n, failed
	out.baselineMeanUs = ratio(float64(inCalls)/1e3, float64(n))

	b.rec.on.Store(true)
	n, failed, _, ferr2 := t.replay(gen, total-baseDur, numDepths)
	out.attempted += n
	out.failed += failed
	if err := errors.Join(ferr, ferr2); err != nil {
		b.noteErr(err)
	}
	if out.probes, err = t.probeLayers(); err != nil {
		return nil, err
	}
	b.rec.on.Store(false)
	out.nsPerFeature = t.nsPerFeature(w.spec, b.opt.seed)
	out.batchBytesPerSub = ratio(float64(t.batchBytes), float64(t.batchSubs))
	return out, b.rec.write(b.opt.outDir, w.name)
}

// perLayer fills m with every per-layer metric: counts from the untraced
// phases' snapshots, times from the traced replay's spans.
func (b *bench) perLayer(m map[string]metric, sat, paced *loopResult, before, after counters, tr *traceResult) {
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	durs := b.rec.durations()
	// meanUs is the mean duration of the named spans, 0 when there are none.
	meanUs := func(names ...string) float64 {
		var all []float64
		for _, n := range names {
			all = append(all, durs[n]...)
		}
		return mean(all) / 1e3
	}
	depth := func(d int) float64 { return meanUs(rootNames[d][:]...) }
	ops := float64(sat.attempted - sat.failed + paced.attempted - paced.failed)
	calls := func(k load.Kind) float64 { return float64(len(sat.byKind[k]) + len(paced.byKind[k])) }

	// client
	set("client.self_us", depth(0)-depth(1), "us")
	set("client.attempts_per_op", ratio(float64(after.res.Attempts-before.res.Attempts+after.res.WriteRPCs-before.res.WriteRPCs), ops), "count")
	set("client.hedges", float64(after.res.Hedges-before.res.Hedges), "count")
	set("client.retries", float64(after.res.Retries-before.res.Retries), "count")
	set("client.breaker_trips", float64(after.res.BreakerTrips-before.res.BreakerTrips), "count")
	set("client.batch_rpcs_per_op", ratio(float64(after.batchRPCs-before.batchRPCs), calls(load.Batch)), "count")
	set("paced_p90_us", latencyUs(paced.all(), 0.90), "us")
	set("paced_p99_us", latencyUs(paced.all(), 0.99), "us")
	for k, name := range kindNames {
		set(name+"_p50_us", latencyUs(paced.byKind[k], 0.50), "us")
		set(name+"_p99_us", latencyUs(paced.byKind[k], 0.99), "us")
	}

	// rpc
	io := after.io.Sub(before.io)
	call := durs["rpc.call"]
	sort.Float64s(call)
	set("rpc.self_us", meanUs("rpc.call")-depth(2), "us")
	set("rpc.call_p50_us", quantile(call, 0.50)/1e3, "us")
	set("rpc.call_p99_us", quantile(call, 0.99)/1e3, "us")
	set("rpc.bytes_per_op", ratio(float64(io.BytesWritten+io.BytesRead), ops), "B")
	set("rpc.frames_per_op", ratio(float64(io.FramesWritten+io.FramesRead), ops), "count")

	// wire
	for _, n := range []string{"encode_query", "decode_query", "encode_response", "decode_response", "encode_add", "decode_add"} {
		set("wire."+n+"_ns", mean(durs["wire."+n]), "ns")
	}
	set("wire.batch_bytes_per_sub", tr.batchBytesPerSub, "B")

	// server: what a depth-2 call costs beyond the cache, kernel and journal
	// calls a depth-3 request makes. The depth-3 root span is not used: it
	// also holds the recorder's cost of those child spans, which on a
	// microsecond read is as large as the dispatch being measured.
	var below float64
	for _, n := range []string{"gcache.get", "query.run", "wal.append", "gcache.add"} {
		for _, d := range durs[n] {
			below += d
		}
	}
	roots := 0
	for _, n := range rootNames[numDepths-1] {
		roots += len(durs[n])
	}
	set("server.self_us", depth(2)-ratio(below/1e3, float64(roots)), "us")
	for k, name := range kindNames {
		set("server."+name+"_us", meanUs(rootNames[2][k]), "us")
	}
	set("server.queries", float64(after.server.Queries-before.server.Queries), "count")
	set("server.adds", float64(after.server.Writes-before.server.Writes), "count")

	// gcache
	lookups := float64(after.cache.Total - before.cache.Total)
	hits := float64(after.cache.Hits - before.cache.Hits)
	set("gcache.get_us", meanUs("gcache.get"), "us")
	set("gcache.add_us", meanUs("gcache.add"), "us")
	set("gcache.hit_ratio", ratio(hits, lookups), "ratio")
	set("gcache.hot_hit_ratio", ratio(float64(after.cache.HotHits-before.cache.HotHits), lookups), "ratio")
	set("gcache.warm_hit_ratio", ratio(float64(after.cache.WarmHits-before.cache.WarmHits), lookups-hits), "ratio")
	set("gcache.evictions", float64(after.cache.Evictions-before.cache.Evictions), "count")
	set("gcache.demotions", float64(after.cache.Demotions-before.cache.Demotions), "count")
	set("gcache.flushes", float64(after.cache.Flushes-before.cache.Flushes), "count")
	set("gcache.load_waits", float64(after.cache.LoadWaits-before.cache.LoadWaits), "count")
	set("gcache.hot_invalidations", float64(after.cache.HotInvalidations-before.cache.HotInvalidations), "count")
	set("gcache.usage_mb", float64(after.cache.Usage)/(1<<20), "MiB")
	set("gcache.warm_usage_mb", float64(after.cache.WarmUsage)/(1<<20), "MiB")

	// query
	set("query.run_us", meanUs("query.run"), "us")
	set("query.ns_per_feature", tr.nsPerFeature, "ns")

	// persist + codec + snap
	set("persist.load_us", meanUs("persist.load"), "us")
	set("persist.save_us", meanUs("persist.save"), "us")
	set("persist.bytes_per_profile", mean(tr.probes.persistBytes), "B")
	set("snap.encode_us", meanUs("snap.encode"), "us")
	set("snap.decode_us", meanUs("snap.decode"), "us")
	set("snap.ratio", mean(tr.probes.snapRatio), "ratio")

	// kv: counts from the live store over the untraced phases, times from
	// the live store's and the rig's spans over the traced replay.
	userBytes := float64(after.userBytes - before.userBytes)
	set("kv.get_us", meanUs("kv.get", "kv.xget"), "us")
	set("kv.set_us", meanUs("kv.set", "kv.xset"), "us")
	set("kv.gets_per_op", ratio(float64(after.kv.gets-before.kv.gets), ops), "count")
	set("kv.sets_per_op", ratio(float64(after.kv.sets-before.kv.sets), ops), "count")
	set("kv.bytes_per_user_byte", ratio(float64(after.kv.writeBytes-before.kv.writeBytes), userBytes), "ratio")
	set("kv.log_mb", float64(b.d.logBytes())/(1<<20), "MiB")
	set("kv.syncs", float64(b.d.store.disk.Syncs()), "count")

	// wal
	set("wal.append_us", meanUs("wal.append"), "us")
	set("wal.bytes_per_user_byte", ratio(float64(after.wal.AppendBytes-before.wal.AppendBytes), userBytes), "ratio")
	set("wal.appends", float64(after.wal.Appends-before.wal.Appends), "count")
	set("wal.syncs", float64(after.wal.Syncs-before.wal.Syncs), "count")
	set("wal.compactions", float64(after.wal.Compactions-before.wal.Compactions), "count")

	// compact
	set("compact.maintain_us", meanUs("compact.maintain"), "us")
	set("compact.slices_before", mean(tr.probes.slicesBefore), "count")
	set("compact.slices_after", mean(tr.probes.slicesAfter), "count")

	// runtime
	set("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), "count")
	set("runtime.gc_pause_total_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms")
	set("runtime.heap_mb", float64(after.mem.HeapAlloc)/(1<<20), "MiB")
	set("runtime.goroutines", float64(runtime.NumGoroutine()), "count")

	// bench
	late := append([]float64(nil), paced.lateUs...)
	sort.Float64s(late)
	set("bench.pacer_late_p99_us", quantile(late, 0.99), "us")
	set("bench.fail_ratio", ratio(float64(sat.failed+paced.failed+tr.failed), float64(sat.attempted+paced.attempted+tr.attempted)), "ratio")
	set("bench.acked_adds", float64(after.acked-before.acked), "count")
	set("bench.d0_mean_us", depth(0), "us")
	set("bench.trace_overhead_ratio", ratio(meanUs(rootNames[0][:]...), tr.baselineMeanUs), "ratio")
}
