// Package server implements one IPS instance: the compute-cache layer node
// that owns a fraction of the cluster's profiles (§III). An Instance ties
// together the profile tables, GCache, the query engine, background
// compaction, per-caller quotas and hot-reloadable configuration, and
// exposes the write/read APIs both in-process and over the RPC framework.
//
// Read-write isolation (§III-F): when enabled, add traffic lands in a
// separate write-only table that a merge worker folds into the main table
// every few seconds, keeping write contention off the query path at the
// cost of slightly delayed visibility.
//
// Observability: an Instance accepts a trace.Tracer (DESIGN.md "Request
// tracing") and hosts the plain-text DebugServer endpoint ipsd exposes
// with -debug; OPERATIONS.md is the operator runbook for both.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ips/internal/compact"
	"ips/internal/config"
	"ips/internal/gcache"
	"ips/internal/kv"
	"ips/internal/metrics"
	"ips/internal/model"
	"ips/internal/persist"
	"ips/internal/query"
	"ips/internal/quota"
	"ips/internal/sub"
	"ips/internal/trace"
	"ips/internal/wal"
	"ips/internal/wire"
)

// Errors returned by the instance.
var (
	ErrNoTable = errors.New("server: unknown table")
	ErrClosed  = errors.New("server: instance closed")
)

// Options configures an Instance.
type Options struct {
	// Name identifies the instance (e.g. "ips-east-0").
	Name string
	// Region is the data-center the instance serves (§III-G).
	Region string
	// Store is the persistent KV backing; required.
	Store kv.Store
	// Config is the hot-reloadable configuration store; nil uses defaults.
	Config *config.Store
	// Cache tunes GCache; zero values use gcache defaults.
	Cache gcache.Options
	// DefaultQuotaQPS applies to unknown callers (0 = unlimited).
	DefaultQuotaQPS float64
	// Clock supplies "now" in Unix millis; nil uses wall time. The
	// benchmark harness injects accelerated clocks here.
	Clock func() model.Millis
	// Journal, when set, is the write-ahead mutation journal: every add,
	// delete and compaction is logged before it is applied, closing the
	// write-back loss window, and CreateTable replays the unflushed
	// journal suffix into the cache before serving (crash recovery).
	Journal *wal.Journal
	// Tracer, when set, is the per-stage latency-attribution layer: it
	// samples requests, aggregates span durations into stage histograms,
	// and retains slow queries. Nil disables tracing with no overhead.
	Tracer *trace.Tracer
	// SubQueue bounds each continuous-query subscriber's update queue
	// (DESIGN.md "Continuous queries"); a full queue drops the update and
	// schedules a resync. 0 uses the sub package default.
	SubQueue int
	// SubResync paces the resync sweep that recovers slow subscribers and
	// failed standing-query evaluations. 0 uses the sub package default.
	SubResync time.Duration
}

// Instance is one IPS server node.
type Instance struct {
	name    string
	region  string
	cfgs    *config.Store
	store   kv.Store
	clock   func() model.Millis
	journal *wal.Journal
	tracer  *trace.Tracer

	mu     sync.RWMutex
	tables map[string]*tableState
	closed atomic.Bool

	limiter *quota.Limiter
	udafs   *query.Registry

	// hub is the continuous-query subscriber index (DESIGN.md "Continuous
	// queries"): every write path notifies it so standing queries over the
	// touched profile are re-evaluated and pushed. Always non-nil.
	hub *sub.Hub

	cacheOpts gcache.Options

	// Metrics (shared across tables).
	Queries     metrics.Counter
	Writes      metrics.Counter
	Rejected    metrics.Counter
	QueryLat    metrics.Histogram
	WriteLat    metrics.Histogram
	MergeRuns   metrics.Counter
	MergedSlabs metrics.Counter // profiles merged from write tables

	// Migration counters (elastic resharding; OPERATIONS.md "Elastic
	// resharding runbook"). Out-counters tick on the old owner as it
	// snapshots and releases profiles; in-counters tick on the new owner
	// as frames land.
	MigratedOut     metrics.Counter // profiles snapshotted for handoff
	MigratedIn      metrics.Counter // frames whose content was installed
	MigrateBytesOut metrics.Counter
	MigrateBytesIn  metrics.Counter
	MigrateMarked   metrics.Counter // watermark-only installs (release pass)
	MigrateReleased metrics.Counter // profiles dropped at cutover

	wg   sync.WaitGroup
	stop chan struct{}
}

// tableState holds one table's main and write-isolation structures.
type tableState struct {
	schema *model.Schema
	main   *model.Table
	cache  *gcache.GCache
	comp   *compact.Compactor
	ps     *persist.Persister

	// Write isolation (§III-F): writeTbl buffers adds; writeBytes tracks
	// its memory so it can be capped.
	writeMu    sync.Mutex
	writeTbl   *model.Table
	writeBytes int64
}

// New creates and starts an instance.
func New(opts Options) (*Instance, error) {
	if opts.Store == nil {
		return nil, errors.New("server: Store is required")
	}
	cfgs := opts.Config
	if cfgs == nil {
		var err error
		cfgs, err = config.NewStore(config.Default())
		if err != nil {
			return nil, err
		}
	}
	clock := opts.Clock
	if clock == nil {
		clock = func() model.Millis { return time.Now().UnixMilli() }
	}
	in := &Instance{
		name:      opts.Name,
		region:    opts.Region,
		cfgs:      cfgs,
		store:     opts.Store,
		clock:     clock,
		journal:   opts.Journal,
		tracer:    opts.Tracer,
		tables:    make(map[string]*tableState),
		limiter:   quota.NewLimiter(opts.DefaultQuotaQPS),
		udafs:     query.NewRegistry(),
		cacheOpts: opts.Cache,
		stop:      make(chan struct{}),
	}
	in.hub = sub.NewHub(sub.Options{
		Eval:           in.subEval,
		QueueLen:       opts.SubQueue,
		ResyncInterval: opts.SubResync,
	})
	in.wg.Add(1)
	go in.mergeLoop()
	// Register the config watch before returning so no update can slip
	// between construction and the loop starting.
	watch := cfgs.Watch()
	in.wg.Add(1)
	go in.configLoop(watch)
	return in, nil
}

// configLoop applies hot-reloaded configuration that cannot be read lazily
// on each operation: today, the time-dimension head width every table
// writes at (§V-b: feature time precision is tunable live). The watcher
// channel may drop intermediate versions under bursts, so each wake-up
// applies the *latest* snapshot rather than the delivered one.
func (in *Instance) configLoop(watch <-chan config.Config) {
	defer in.wg.Done()
	for {
		select {
		case <-watch:
			in.applyConfig(in.cfgs.Get())
		case <-in.stop:
			return
		}
	}
}

func (in *Instance) applyConfig(cfg config.Config) {
	head := cfg.TimeDimension.HeadWidth()
	in.mu.RLock()
	defer in.mu.RUnlock()
	for _, ts := range in.tables {
		ts.main.SetHeadWidth(head)
		ts.writeMu.Lock()
		ts.writeTbl.SetHeadWidth(head)
		ts.writeMu.Unlock()
	}
}

// Name returns the instance name.
func (in *Instance) Name() string { return in.name }

// Region returns the instance's region.
func (in *Instance) Region() string { return in.region }

// Config returns the instance's configuration store for hot reloads.
func (in *Instance) Config() *config.Store { return in.cfgs }

// Limiter returns the per-caller quota limiter for runtime quota changes.
func (in *Instance) Limiter() *quota.Limiter { return in.limiter }

// UDAFs returns the instance's user-defined aggregate function registry;
// applications register scoring functions here and reference them by name
// in queries.
func (in *Instance) UDAFs() *query.Registry { return in.udafs }

// Tracer returns the instance's latency-attribution tracer, nil when
// tracing is disabled.
func (in *Instance) Tracer() *trace.Tracer { return in.tracer }

// Hub returns the continuous-query subscriber hub. The RPC service
// registers subscriptions here; every write path notifies it.
func (in *Instance) Hub() *sub.Hub { return in.hub }

// subEval is the hub's evaluation callback: one standing-query
// re-evaluation through the normal read path on a pooled scratch. Queued
// updates hold the response long after this returns, so its rows are
// copied out into one Feature slice and one count slice before the
// scratch goes back to the pool. Evaluations run under the hub's reserved
// caller identity (sub.EvalCaller), so operators can quota push-side load
// like any other caller.
func (in *Instance) subEval(ctx context.Context, req *wire.QueryRequest, resp *wire.QueryResponse) error {
	sc := query.GetScratch()
	defer query.PutScratch(sc)
	if err := in.QueryInto(ctx, req, resp, sc); err != nil {
		return err
	}
	var feats []query.Feature
	var cnts []int64
	resp.Features = copyRows(&feats, &cnts, resp.Features)
	return nil
}

// CreateTable registers a table with the given schema. The head-slice
// width comes from the current time-dimension config.
func (in *Instance) CreateTable(name string, schema *model.Schema) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	cfg := in.cfgs.Get()
	head := cfg.TimeDimension.HeadWidth()

	in.mu.Lock()
	defer in.mu.Unlock()
	if _, ok := in.tables[name]; ok {
		return fmt.Errorf("server: table %q already exists", name)
	}
	main := model.NewTable(name, schema, head)
	ps := persist.New(in.store, name)
	cache, err := gcache.New(main, ps, in.cacheOpts)
	if err != nil {
		return err
	}
	cache.Tracer = in.tracer
	comp := compact.NewCompactor(schema, in.cfgs, in.clock)
	// Background maintenance must keep cache accounting truthful and
	// queue the compacted profile for re-flush.
	comp.OnMaintain = func(id model.ProfileID, delta int64) {
		cache.NoteSizeChange(id, delta)
		cache.MarkDirty(id)
	}
	if tc := in.tracer; tc != nil {
		comp.Observe = func(d time.Duration) { tc.Observe(trace.StageCompactPass, d) }
	}
	ts := &tableState{
		schema:   schema,
		main:     main,
		cache:    cache,
		comp:     comp,
		ps:       ps,
		writeTbl: model.NewTable(name+"#write", schema, head),
	}
	if jn := in.journal; jn != nil {
		// Replay the unflushed journal suffix BEFORE wiring the hooks (so
		// replayed mutations are not re-journaled) and before background
		// threads start.
		if err := in.replayTable(ts); err != nil {
			return fmt.Errorf("server: journal replay for table %q: %w", name, err)
		}
		cache.OnApply = func(ctx context.Context, id model.ProfileID, entries []wire.AddEntry) (uint64, error) {
			return jn.AppendAdd(ctx, name, id, entries)
		}
		cache.OnFlush = func(id model.ProfileID, walLSN, mergedLSN uint64) {
			jn.NoteFlushed(name, id, walLSN, mergedLSN)
		}
		comp.LogMaintain = func(id model.ProfileID, now model.Millis, cfg config.Config) (uint64, error) {
			return jn.AppendCompact(name, id, now, cfg)
		}
	}
	cache.Start()
	comp.Start()
	in.tables[name] = ts
	return nil
}

// replayTable re-applies the journal's records for one table in LSN order
// into a freshly built tableState. Each record is applied only when its
// LSN exceeds the relevant watermark of the profile's persisted base
// (WalLSN for the main stream, MergedLSN for write-isolation adds) —
// records whose effects already reached storage are skipped and marked
// flushed. Isolated adds are folded straight into the main profile: they
// represent the merge the crash pre-empted. Called from CreateTable with
// in.mu held; uses ts directly.
func (in *Instance) replayTable(ts *tableState) error {
	name := ts.main.Name
	recs, err := in.journal.Records()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Table != name {
			continue
		}
		switch rec.Op {
		case wal.OpAdd:
			applied, err := ts.cache.ApplyLogged(rec.Profile, rec.Entries, rec.LSN, rec.Isolated)
			if err != nil && !applied {
				return err // storage load failure, not a per-entry reject
			}
			if !applied {
				// The loaded base already contains this record: retire it in
				// its own stream only. An isolated add is vouched for by the
				// merged watermark, a direct add by the main one.
				if rec.Isolated {
					in.journal.NoteFlushed(name, rec.Profile, 0, rec.LSN)
				} else {
					in.journal.NoteFlushed(name, rec.Profile, rec.LSN, 0)
				}
			}
		case wal.OpDelete:
			p, _, err := ts.cache.Get(rec.Profile)
			if err != nil {
				return err
			}
			if p != nil {
				p.Lock()
				if p.WalLSN >= rec.LSN {
					// The persisted base postdates the delete: the profile
					// was recreated and flushed again before the crash. The
					// delete superseded every earlier record in both streams.
					p.Unlock()
					in.journal.NoteFlushed(name, rec.Profile, rec.LSN, rec.LSN)
					continue
				}
				p.Dirty = false
				ts.main.Delete(rec.Profile)
				p.Unlock()
				ts.cache.Discard(rec.Profile)
			}
			if err := ts.ps.Delete(rec.Profile); err != nil && !errors.Is(err, kv.ErrNotFound) {
				return err
			}
			// The synchronous storage delete supersedes every earlier record
			// in both streams.
			in.journal.NoteFlushed(name, rec.Profile, rec.LSN, rec.LSN)
		case wal.OpCompact:
			p, _, err := ts.cache.Get(rec.Profile)
			if err != nil {
				return err
			}
			applied := false
			var delta int64
			if p != nil {
				// Replay with the config the pass originally ran under (the
				// journaled snapshot); the live config may have been
				// hot-reloaded since, and a different truncation here would
				// diverge from the partially flushed effects of the original.
				cfg := in.cfgs.Get()
				if rec.Cfg != nil {
					cfg = *rec.Cfg
				}
				p.Lock()
				if rec.LSN > p.WalLSN {
					st := compact.Maintain(p, ts.schema, cfg, rec.Now)
					p.WalLSN = rec.LSN
					p.Dirty = true
					delta = st.BytesAfter - st.BytesBefore
					applied = true
				}
				p.Unlock()
			}
			if applied {
				ts.cache.NoteSizeChange(rec.Profile, delta)
				ts.cache.MarkDirty(rec.Profile)
			} else {
				in.journal.NoteFlushed(name, rec.Profile, rec.LSN, 0)
			}
		}
	}
	return nil
}

// Tables returns the registered table names.
func (in *Instance) Tables() []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make([]string, 0, len(in.tables))
	for n := range in.tables {
		out = append(out, n)
	}
	return out
}

//ips:hotpath
func (in *Instance) table(name string) (*tableState, error) {
	in.mu.RLock()
	ts := in.tables[name]
	in.mu.RUnlock()
	if ts == nil {
		//ipslint:ignore hotpathalloc the unknown-table error is off the steady state
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return ts, nil
}

// Add implements add_profile / add_profiles (§II-B1) for one profile.
func (in *Instance) Add(caller, table string, id model.ProfileID, entries []wire.AddEntry) error {
	return in.AddCtx(context.Background(), caller, table, id, entries)
}

// AddCtx is Add with a request context carrying the request's trace, if
// sampled: cache apply, journal append/fsync and any inline write-table
// merge are attributed to their own spans.
func (in *Instance) AddCtx(ctx context.Context, caller, table string, id model.ProfileID, entries []wire.AddEntry) error {
	if in.closed.Load() {
		return ErrClosed
	}
	if err := in.limiter.AllowN(caller, len(entries)); err != nil {
		in.Rejected.Inc()
		return err
	}
	start := time.Now()
	defer func() {
		in.WriteLat.Observe(time.Since(start))
		in.Writes.Add(int64(len(entries)))
	}()

	ts, err := in.table(table)
	if err != nil {
		return err
	}
	cfg := in.cfgs.Get()
	if cfg.WriteIsolation {
		return in.addIsolated(ctx, ts, cfg, id, entries)
	}
	// One batched cache write: the whole request is journaled and applied
	// under a single profile lock hold, so the journal's record order
	// matches the apply order.
	if err := ts.cache.AddEntriesCtx(ctx, id, entries); err != nil {
		return err
	}
	// Direct adds are immediately visible to reads, so this is the
	// freshness point for standing queries over the profile. (Isolated
	// adds notify at merge time instead — see mergeWriteTableLocked —
	// because that is when they become query-visible.)
	in.hub.Notify(table, id)
	in.maybeCompact(ts, id)
	return nil
}

// addIsolated buffers the write in the write table (§III-F). All write
// table operations are lightweight: no persistence, no compaction.
func (in *Instance) addIsolated(ctx context.Context, ts *tableState, cfg config.Config, id model.ProfileID, entries []wire.AddEntry) error {
	ts.writeMu.Lock()
	defer ts.writeMu.Unlock()
	// Journal before mutating; writeMu orders isolated appends, so log
	// order equals apply order. The record is marked isolated: its data
	// lives only in the write table until merge, so the journal must not
	// retire it on a main-profile flush (whose WalLSN a concurrent
	// compaction may have pushed past this LSN). The write profile carries
	// the LSN until merge folds it into the main profile's MergedLSN.
	var lsn uint64
	if in.journal != nil {
		var jerr error
		lsn, jerr = in.journal.AppendIsolatedAdd(ctx, ts.main.Name, id, entries)
		if jerr != nil {
			return jerr
		}
	}
	p, _ := ts.writeTbl.GetOrCreate(id)
	p.Lock()
	before := p.MemSize()
	var err error
	for _, en := range entries {
		// Skip invalid entries rather than stopping: replay applies the
		// whole journaled batch the same way, so live and recovered
		// states stay identical.
		if e := p.Add(ts.schema, en.Timestamp, ts.writeTbl.HeadWidth(), en.Slot, en.Type, en.FID, en.Counts); e != nil && err == nil {
			err = e
		}
	}
	if lsn > p.WalLSN {
		p.WalLSN = lsn
	}
	ts.writeBytes += p.MemSize() - before
	p.Unlock()
	if err != nil {
		return err
	}
	// Cap the write table's memory (§III-F): over the limit, merge now.
	// The merge runs on this request's clock — attribute it.
	if cfg.WriteTableMaxBytes > 0 && ts.writeBytes > cfg.WriteTableMaxBytes {
		sp := trace.StartLeaf(ctx, trace.StageMergeInline)
		in.mergeWriteTableLocked(ts)
		sp.End()
	}
	return nil
}

// mergeLoop periodically folds write tables into main tables.
func (in *Instance) mergeLoop() {
	defer in.wg.Done()
	for {
		interval := time.Duration(in.cfgs.Get().MergeInterval)
		if interval <= 0 {
			interval = time.Second
		}
		select {
		case <-time.After(interval):
			in.MergeAll()
		case <-in.stop:
			return
		}
	}
}

// MergeAll folds every table's write buffer into its main table. Exposed
// so tests and the harness can force visibility deterministically.
func (in *Instance) MergeAll() {
	in.mu.RLock()
	tables := make([]*tableState, 0, len(in.tables))
	for _, ts := range in.tables {
		tables = append(tables, ts)
	}
	in.mu.RUnlock()
	for _, ts := range tables {
		ts.writeMu.Lock()
		in.mergeWriteTableLocked(ts)
		ts.writeMu.Unlock()
	}
	in.MergeRuns.Inc()
}

// mergeWriteTableLocked drains ts.writeTbl into the main table; caller
// holds ts.writeMu.
func (in *Instance) mergeWriteTableLocked(ts *tableState) {
	if ts.writeTbl.Len() == 0 {
		return
	}
	old := ts.writeTbl
	ts.writeTbl = model.NewTable(old.Name, ts.schema, old.HeadWidth())
	ts.writeBytes = 0

	old.Each(func(wp *model.Profile) bool {
		var mp *model.Profile
		for {
			var err error
			mp, _, err = ts.cache.GetOrLoadForWrite(wp.ID)
			if err != nil || mp == nil {
				return true // drop on storage error: next write retries
			}
			mp.Lock()
			// Re-validate: a concurrent eviction may have detached mp while
			// we waited for its lock; folding into a detached object would
			// silently lose the write-table data.
			if ts.main.Get(wp.ID) == mp {
				break
			}
			mp.Unlock()
		}
		before := mp.MemSize()
		for _, s := range wp.Slices() {
			s.EachSlot(func(slot model.SlotID, set *model.InstanceSet) {
				set.Each(func(typ model.TypeID, fs *model.FeatureStats) {
					fs.Each(func(st model.FeatureStat) {
						// Reconstruct a representative timestamp inside
						// the slice for placement.
						tsMid := s.Latest
						if tsMid == 0 {
							tsMid = s.Start
						}
						_ = mp.Add(ts.schema, tsMid, ts.main.HeadWidth(), slot, typ, st.FID, st.Counts)
					})
				})
			})
		}
		// The merge is the point where isolated adds become part of the
		// main profile's state: advance BOTH watermarks so the next flush
		// vouches for them (MergedLSN retires the isolated journal records;
		// WalLSN keeps replay's main-stream skip logic monotonic).
		if wp.WalLSN > mp.MergedLSN {
			mp.MergedLSN = wp.WalLSN
		}
		if wp.WalLSN > mp.WalLSN {
			mp.WalLSN = wp.WalLSN
		}
		delta := mp.MemSize() - before
		mp.Unlock()
		ts.cache.NoteSizeChange(wp.ID, delta)
		ts.cache.MarkDirty(wp.ID)
		// Merge is the visibility point for isolated adds (§III-F): only
		// now can a standing query observe them, so only now is a push
		// warranted. Update freshness under write isolation is therefore
		// bounded by the merge interval, exactly like poll freshness.
		in.hub.Notify(ts.main.Name, wp.ID)
		in.MergedSlabs.Inc()
		in.maybeCompact(ts, wp.ID)
		return true
	})
}

// maybeCompact enqueues background maintenance when a profile's slice list
// has grown past the partial-compaction threshold.
func (in *Instance) maybeCompact(ts *tableState, id model.ProfileID) {
	p := ts.main.Get(id)
	if p == nil {
		return
	}
	cfg := in.cfgs.Get()
	threshold := cfg.PartialCompactThreshold
	if threshold <= 0 {
		threshold = 16
	}
	p.RLock()
	n := p.NumSlices()
	p.RUnlock()
	if n > threshold {
		ts.comp.Enqueue(p)
	}
}

// Query executes a read (§II-B2). The method semantics (topK / filter /
// decay) are fully described by the request itself. The returned response
// is freshly allocated and caller-owned; the zero-allocation, traced form
// is QueryInto.
func (in *Instance) Query(req *wire.QueryRequest) (*wire.QueryResponse, error) {
	resp := &wire.QueryResponse{}
	var sc query.Scratch
	if err := in.QueryInto(context.Background(), req, resp, &sc); err != nil {
		return nil, err
	}
	return resp, nil
}

// QueryInto executes a read into resp, using sc for all working storage.
// resp's feature list and every Counts vector alias sc's columns: they
// are valid until the scratch's next run, which lets the service layer
// decode, compute, and encode a steady-state cache-hit read with zero
// heap allocations. resp is reset (capacity preserved) before use. ctx
// carries the request's trace, if sampled: the cache lookup (hit/miss
// flagged, storage read broken out) and the feature computation get
// their own spans.
//
//ips:hotpath
func (in *Instance) QueryInto(ctx context.Context, req *wire.QueryRequest, resp *wire.QueryResponse, sc *query.Scratch) error {
	if in.closed.Load() {
		return ErrClosed
	}
	if err := in.limiter.Allow(req.Caller); err != nil {
		in.Rejected.Inc()
		return err
	}
	start := time.Now()
	ts, err := in.table(req.Table)
	if err != nil {
		return err
	}
	p, hit, hot, err := ts.cache.GetForRead(ctx, req.ProfileID)
	if err != nil {
		return err
	}
	*resp = wire.QueryResponse{Features: resp.Features[:0]}
	resp.CacheHit = hit
	if p != nil {
		// Surface the freshness watermark: the local journal ack plus the
		// migration watermark carried over from a previous owner. Dual
		// readers prefer the fresher side during a resharding window, and
		// the migration-storm suite asserts post-cutover reads observe a
		// watermark >= every pre-cutover ack. Hot replicas are immutable
		// snapshots, so their fields are safe to read without the lock.
		if hot {
			resp.WalLSN = maxLSN(p.WalLSN, p.MigLSN)
		} else {
			p.RLock()
			resp.WalLSN = maxLSN(p.WalLSN, p.MigLSN)
			p.RUnlock()
		}
		q := req.ToQuery()
		if req.UDAFName != "" {
			fn, err := in.udafs.Lookup(req.UDAFName)
			if err != nil {
				return err
			}
			q.UDAF = fn
		}
		csp := trace.StartLeaf(ctx, trace.StageCacheCompute)
		var res query.Result
		//ipslint:ignore hotpathalloc the clock is an injected func value; the default model.Now does not allocate
		now := in.clock()
		if hot {
			// Hot replicas are immutable, so the per-profile read lock —
			// the very thing the replica exists to relieve — is skipped.
			res, err = query.RunSealedScratch(p, ts.schema, q, now, sc)
		} else {
			res, err = query.RunScratch(p, ts.schema, q, now, sc)
		}
		csp.EndErr(err)
		if err != nil {
			return err
		}
		resp.Features = res.Features
		resp.SlicesScanned = res.SlicesScanned
	}
	elapsed := time.Since(start)
	resp.ServerNanos = elapsed.Nanoseconds()
	in.QueryLat.Observe(elapsed)
	in.Queries.Inc()
	return nil
}

// Stats summarises the instance.
func (in *Instance) Stats() *wire.StatsResponse {
	var profiles int64
	var mem int64
	var hit float64
	var flushErr int64
	in.mu.RLock()
	nt := 0
	for _, ts := range in.tables {
		profiles += int64(ts.main.Len())
		mem += ts.cache.Usage()
		hit += ts.cache.HitRatio.Value()
		flushErr += ts.cache.FlushErrors.Value()
		nt++
	}
	in.mu.RUnlock()
	if nt > 0 {
		hit /= float64(nt)
	}
	return &wire.StatsResponse{
		Name:        in.name,
		Region:      in.region,
		Profiles:    profiles,
		MemUsage:    mem,
		HitRatioPct: hit * 100,
		Queries:     in.Queries.Value(),
		Writes:      in.Writes.Value(),
		Rejected:    in.Rejected.Value(),
		FlushErrors: flushErr,
	}
}

// CacheStats returns the GCache statistics for table.
func (in *Instance) CacheStats(table string) (gcache.Stats, error) {
	ts, err := in.table(table)
	if err != nil {
		return gcache.Stats{}, err
	}
	return ts.cache.Stats(), nil
}

// CompactNow synchronously maintains one profile, for tests/harness.
func (in *Instance) CompactNow(table string, id model.ProfileID) (compact.Stats, error) {
	ts, err := in.table(table)
	if err != nil {
		return compact.Stats{}, err
	}
	p := ts.main.Get(id)
	if p == nil {
		return compact.Stats{}, nil
	}
	st := ts.comp.RunSync(p)
	ts.cache.NoteSizeChange(id, st.BytesAfter-st.BytesBefore)
	return st, nil
}

// DeleteProfile removes one profile from the cache, the write buffer and
// persistent storage — the privacy-compliance management operation.
func (in *Instance) DeleteProfile(table string, id model.ProfileID) error {
	ts, err := in.table(table)
	if err != nil {
		return err
	}
	// Journal the delete under BOTH locks that order the profile's
	// mutation streams: writeMu serializes isolated adds and the main
	// profile's write lock serializes direct adds (which journal inside
	// AddEntries under that lock). Appending the OpDelete without them
	// would let a concurrent add obtain a higher LSN yet apply first —
	// live state says "deleted", but strict-LSN-order replay would
	// resurrect the profile with the add's entries. Lock order here
	// (writeMu → profile lock → journal) matches addIsolated and the
	// merge worker, so there is no inversion.
	ts.writeMu.Lock()
	// Materialize the main profile so non-resident deletes still serialize
	// against adds through the same profile lock the add path uses.
	var mp *model.Profile
	for {
		var lerr error
		mp, _, lerr = ts.cache.GetOrLoadForWrite(id)
		if lerr != nil {
			ts.writeMu.Unlock()
			return lerr
		}
		mp.Lock()
		// Re-validate against a concurrent eviction detaching mp while we
		// waited for its lock (same pattern as the add and merge paths).
		if ts.main.Get(id) == mp {
			break
		}
		mp.Unlock()
	}
	var lsn uint64
	if in.journal != nil {
		if lsn, err = in.journal.AppendDelete(ts.main.Name, id); err != nil {
			mp.Unlock()
			ts.writeMu.Unlock()
			return err
		}
	}
	if wp := ts.writeTbl.Get(id); wp != nil {
		wp.Lock()
		size := wp.MemSize()
		ts.writeTbl.Delete(id)
		ts.writeBytes -= size
		wp.Unlock()
	}
	// Drop from cache without flushing the dirty state we are deleting.
	mp.Dirty = false
	ts.main.Delete(id)
	mp.Unlock()
	// Discard retires the LRU entry (at its recorded charge), any warm
	// blob, and the hot replicas — a deleted profile must vanish from
	// every tier, or a later miss could resurrect it from a stale blob.
	ts.cache.Discard(id)
	ts.writeMu.Unlock()
	// The storage delete is synchronous, so on success the record — and
	// everything before it in both streams, which it supersedes — is
	// immediately marked flushed.
	if err := ts.ps.Delete(id); err != nil && !errors.Is(err, kv.ErrNotFound) {
		return err
	}
	if in.journal != nil {
		in.journal.NoteFlushed(ts.main.Name, id, lsn, lsn)
	}
	// A delete changes the profile's standing answers (to empty) just like
	// any other mutation — push it.
	in.hub.Notify(table, id)
	return nil
}

// EvictProfile flushes and drops one profile from table's cache so the
// next read misses; used by tests and the benchmark harness (Table II).
func (in *Instance) EvictProfile(table string, id model.ProfileID) (bool, error) {
	ts, err := in.table(table)
	if err != nil {
		return false, err
	}
	return ts.cache.Drop(id), nil
}

// EvictToWatermark runs one synchronous eviction pass on table's cache.
// The background swap thread does this continuously in real time; harnesses
// that compress simulated time call it explicitly so maintenance cadence
// matches the accelerated clock.
func (in *Instance) EvictToWatermark(table string) error {
	ts, err := in.table(table)
	if err != nil {
		return err
	}
	ts.cache.EvictToWatermark()
	return nil
}

// WarmProfile loads one profile into table's cache (a deliberate miss),
// so subsequent reads hit.
func (in *Instance) WarmProfile(table string, id model.ProfileID) error {
	ts, err := in.table(table)
	if err != nil {
		return err
	}
	_, _, err = ts.cache.Get(id)
	return err
}

// FlushAll persists all dirty profiles in every table.
func (in *Instance) FlushAll() error {
	in.mu.RLock()
	defer in.mu.RUnlock()
	for _, ts := range in.tables {
		if err := ts.cache.FlushAll(); err != nil {
			return err
		}
	}
	return nil
}

// Abort stops background work WITHOUT merging write buffers or flushing
// dirty profiles, simulating a process crash for recovery tests. Only
// journaled state survives an Abort.
func (in *Instance) Abort() {
	if in.closed.Swap(true) {
		return
	}
	in.hub.Close()
	close(in.stop)
	in.wg.Wait()
	in.mu.RLock()
	defer in.mu.RUnlock()
	for _, ts := range in.tables {
		ts.comp.Close()
		ts.cache.Abort()
	}
}

// Close merges pending writes, stops background work and flushes.
func (in *Instance) Close() error {
	if in.closed.Swap(true) {
		return nil
	}
	// Stop pushes first: subscriber pumps write to client streams, and
	// every path below mutates state they would otherwise re-evaluate.
	in.hub.Close()
	close(in.stop)
	in.wg.Wait()
	in.MergeAll()
	in.mu.RLock()
	defer in.mu.RUnlock()
	var firstErr error
	for _, ts := range in.tables {
		ts.comp.Close()
		if err := ts.cache.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
