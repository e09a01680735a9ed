// Package gcache implements GCache, the write-back cache at the core of
// IPS's compute-cache layer (§III-C, Figs 7–9):
//
//   - an LRU list sharded by profile ID; one swap thread evicts cold profiles
//     when memory exceeds a threshold, starting from the largest shard and
//     skipping lock-contended entries with TryLock (Fig. 8);
//   - a dirty list, also sharded, drained by flush threads that persist
//     updated profiles to the key-value store; the flush-thread count is a
//     multiple of the dirty-shard count so every shard always has at least
//     one dedicated thread (Fig. 9);
//   - cache-miss fills from persistent storage.
//
// Write-back acknowledges before persistence, so the cache's loss window
// is closed by the mutation journal (internal/wal): mutations are logged
// under the profile lock before they apply — the log-before-apply
// invariant ipslint's journalbeforeapply analyzer enforces. DESIGN.md
// ("Durability: the write-back loss window and the mutation journal")
// has the full story.
package gcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ips/internal/kv"
	"ips/internal/metrics"
	"ips/internal/model"
	"ips/internal/persist"
	"ips/internal/query"
	"ips/internal/trace"
	"ips/internal/wire"
)

// Options configures a GCache.
type Options struct {
	// MemLimit is the eviction threshold in bytes; the swap thread evicts
	// until usage falls below it. <= 0 disables eviction.
	MemLimit int64
	// MemLowWater, when set, is the target usage eviction drives down to
	// (defaults to 90% of MemLimit), providing hysteresis.
	MemLowWater int64
	// WarmLimit is the warm tier's byte budget: eviction demotes decoded
	// profiles into snap-compressed blobs (warm.go) instead of dropping
	// them, up to this many bytes; warm-tier eviction then drops the
	// coldest blobs to KV. <= 0 disables the warm tier (eviction drops
	// straight to storage, the pre-tiered behavior).
	WarmLimit int64
	// WarmLowWater is the warm-tier hysteresis target (defaults to 90%
	// of WarmLimit).
	WarmLowWater int64
	// LRUShards is the number of LRU shards (Fig. 7); default 16.
	LRUShards int
	// DirtyShards is the number of dirty-list shards (Fig. 9); default 4.
	DirtyShards int
	// FlushThreads must be a positive multiple of DirtyShards; default
	// DirtyShards.
	FlushThreads int
	// FlushInterval is the dirty-list scan cadence; default 100ms.
	FlushInterval time.Duration
	// SwapInterval is the memory-check cadence; default 100ms.
	SwapInterval time.Duration
	// HotSlots switches hot-profile sealed read forms (batch
	// architecture v2): 0 disables promotion (the default), and any
	// positive value enables one shared form per hot profile. A profile
	// whose decayed read count crosses HotPromoteAfter is sealed
	// (query.Seal) into an immutable form that serves reads without the
	// live profile's lock. Any mutation invalidates the form before it is
	// acknowledged.
	HotSlots int
	// HotPromoteAfter is the decayed read count that promotes a profile
	// into hot slots; default 64. Counts halve every ~16k reads, so the
	// threshold tracks the current Zipf head, not all-time totals.
	HotPromoteAfter int
	// HotMaxEntries caps simultaneously promoted profiles (each costs
	// one sealed form of a hot profile); default 128.
	HotMaxEntries int
}

func (o *Options) fill() error {
	if o.LRUShards <= 0 {
		o.LRUShards = 16
	}
	if o.DirtyShards <= 0 {
		o.DirtyShards = 4
	}
	if o.FlushThreads <= 0 {
		o.FlushThreads = o.DirtyShards
	}
	if o.FlushThreads%o.DirtyShards != 0 {
		return errors.New("gcache: FlushThreads must be a multiple of DirtyShards")
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 100 * time.Millisecond
	}
	if o.SwapInterval <= 0 {
		o.SwapInterval = 100 * time.Millisecond
	}
	if o.MemLimit > 0 && o.MemLowWater <= 0 {
		o.MemLowWater = o.MemLimit * 9 / 10
	}
	if o.WarmLimit > 0 && o.WarmLowWater <= 0 {
		o.WarmLowWater = o.WarmLimit * 9 / 10
	}
	return nil
}

// GCache is the write-back cache.
type GCache struct {
	table *model.Table
	ps    *persist.Persister
	opts  Options

	lru   []*lruShard
	dirty []*dirtyShard

	// warm is the compressed middle tier (warm.go); nil when WarmLimit
	// is 0.
	warm *warmTier

	usage atomic.Int64 // approximate decoded-tier bytes

	stop    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
	closed  atomic.Bool

	// OnApply, when set, is invoked under the profile's write lock before
	// a batch of entries is applied (the write-ahead journal append). The
	// returned LSN becomes the profile's WalLSN watermark; logging under
	// the same lock that orders mutations guarantees log order equals
	// apply order per profile. An error aborts the write unapplied. The
	// ctx carries the request's trace, if sampled, so the journal can
	// attribute its append and fsync time.
	OnApply func(ctx context.Context, id model.ProfileID, entries []wire.AddEntry) (uint64, error)
	// OnFlush, when set, is invoked after a profile incarnation whose
	// watermarks were (walLSN, mergedLSN) has been durably persisted
	// (flush thread, eviction, Drop); the journal uses the pair to advance
	// its truncation watermarks. Both are captured under the profile's
	// lock at save time: walLSN covers the main mutation stream, mergedLSN
	// the write-isolation stream (isolated adds folded in by a merge) —
	// a flush never vouches for write-table data it did not contain.
	OnFlush func(id model.ProfileID, walLSN, mergedLSN uint64)

	// Tracer, when set, aggregates the durations of background stages no
	// request context reaches (kv.flush). Request-scoped stages
	// (cache.get, cache.apply, kv.read) are recorded on the trace carried
	// by the request context instead.
	Tracer *trace.Tracer

	// flights single-flights cache fills per profile so a thundering
	// herd of misses issues one storage read (singleflight.go).
	flights *flightGroup

	// hot is the hot-key detector and sealed-form table; nil when
	// HotSlots is 0 (hotslot.go).
	hot *hotSet

	// Metrics.
	HitRatio    metrics.Ratio
	Evictions   metrics.Counter
	EvictBytes  metrics.Counter
	Flushes     metrics.Counter
	FlushErrors metrics.Counter
	SwapSkips   metrics.Counter // try_lock misses skipped (Fig. 8)
	Loads       metrics.Counter
	LoadErrors  metrics.Counter
	// LoadWaits counts requests that joined another request's in-flight
	// storage load instead of issuing their own (single-flight shares).
	LoadWaits metrics.Counter
	// HotHits / HotPromotions / HotInvalidations track the hot-slot
	// layer: reads served from a sealed form, profiles promoted
	// into slots, and promoted entries torn down by a mutation.
	HotHits          metrics.Counter
	HotPromotions    metrics.Counter
	HotInvalidations metrics.Counter
	// Tiered-cache counters: demotions decoded→warm, fills served by
	// re-inflating a warm blob vs. falling through to storage, and warm
	// blobs dropped by the warm tier's own watermark eviction.
	Demotions     metrics.Counter
	WarmHits      metrics.Counter
	WarmMisses    metrics.Counter
	WarmEvictions metrics.Counter
	// ShardScans counts largestShard sweeps (each takes every shard
	// mutex once); the drain-per-shard eviction keeps this far below
	// Evictions under memory pressure.
	ShardScans metrics.Counter
}

type lruShard struct {
	mu    sync.Mutex
	ll    *list.List // front = most recent
	items map[model.ProfileID]*list.Element
	bytes atomic.Int64
}

// lruEntry is one decoded-tier LRU element: the profile ID plus the
// byte footprint currently charged to the shard for it. Recording the
// charge on the entry (mutated under the shard mutex) lets forget
// reverse exactly what was charged, no matter which of several racing
// droppers gets there first — accounting by recomputed sizes was the
// vanished-entry leak.
type lruEntry struct {
	id    model.ProfileID
	bytes int64
}

type dirtyShard struct {
	mu  sync.Mutex
	ids map[model.ProfileID]struct{}
}

// New creates a GCache over table and persister.
func New(table *model.Table, ps *persist.Persister, opts Options) (*GCache, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	g := &GCache{
		table:   table,
		ps:      ps,
		opts:    opts,
		stop:    make(chan struct{}),
		flights: newFlightGroup(),
		hot:     newHotSet(opts.HotSlots, opts.HotPromoteAfter, opts.HotMaxEntries),
		warm:    newWarmTier(opts.WarmLimit),
	}
	g.lru = make([]*lruShard, opts.LRUShards)
	for i := range g.lru {
		g.lru[i] = &lruShard{ll: list.New(), items: make(map[model.ProfileID]*list.Element)}
	}
	g.dirty = make([]*dirtyShard, opts.DirtyShards)
	for i := range g.dirty {
		g.dirty[i] = &dirtyShard{ids: make(map[model.ProfileID]struct{})}
	}
	return g, nil
}

// Start launches the swap thread and the flush threads.
func (g *GCache) Start() {
	if g.started.Swap(true) {
		return
	}
	g.wg.Add(1)
	go g.swapLoop()
	for t := 0; t < g.opts.FlushThreads; t++ {
		g.wg.Add(1)
		go g.flushLoop(t % g.opts.DirtyShards)
	}
}

// Close stops background threads and flushes all dirty profiles.
func (g *GCache) Close() error {
	if g.closed.Swap(true) {
		return nil
	}
	if g.started.Load() {
		close(g.stop)
		g.wg.Wait()
	}
	return g.FlushAll()
}

// Abort stops the background threads WITHOUT flushing dirty profiles,
// simulating a process crash for recovery tests. The cache must not be
// used afterwards.
func (g *GCache) Abort() {
	if g.closed.Swap(true) {
		return
	}
	if g.started.Load() {
		close(g.stop)
		g.wg.Wait()
	}
}

//ips:hotpath
func (g *GCache) lruShardFor(id model.ProfileID) *lruShard {
	// Fold with the full upper half of the mixed hash: shifting by 59
	// keeps only 5 bits, so any LRUShards > 32 would leave the extra
	// shards permanently empty.
	h := id * 0x9e3779b97f4a7c15
	return g.lru[int((h>>32)%uint64(len(g.lru)))]
}

func (g *GCache) dirtyShardFor(id model.ProfileID) *dirtyShard {
	return g.dirty[int(id%uint64(len(g.dirty)))]
}

// Usage returns the approximate decoded-tier resident bytes, including
// the hot sealed forms (each promoted profile pins one, beside the live
// profile it shadows; charging them here is what makes MemLimit an honest
// budget).
func (g *GCache) Usage() int64 { return g.usage.Load() + g.hot.sealedBytes() }

// WarmUsage returns the warm tier's resident bytes (compressed blobs
// plus bookkeeping), budgeted by WarmLimit independently of MemLimit.
func (g *GCache) WarmUsage() int64 { return g.warm.usage() }

// Resident returns the number of decoded cached profiles.
func (g *GCache) Resident() int { return g.table.Len() }

// WarmResident returns the number of warm-tier blobs.
func (g *GCache) WarmResident() int { return g.warm.resident() }

// touch moves id to the front of its LRU shard, inserting if new.
// delta adjusts the entry's recorded byte footprint and, with it, the
// shard and global usage.
//
//ips:hotpath
func (g *GCache) touch(id model.ProfileID, delta int64) {
	sh := g.lruShardFor(id)
	sh.mu.Lock()
	if el, ok := sh.items[id]; ok {
		sh.ll.MoveToFront(el)
		el.Value.(*lruEntry).bytes += delta
	} else {
		//ipslint:ignore hotpathalloc first touch inserts the LRU entry; steady-state reads move an existing one
		sh.items[id] = sh.ll.PushFront(&lruEntry{id: id, bytes: delta})
	}
	sh.mu.Unlock()
	if delta != 0 {
		sh.bytes.Add(delta)
		g.usage.Add(delta)
	}
}

// forget removes id from its LRU shard, reversing exactly the bytes the
// entry was charged; returns whether it was present. Only the dropper
// that actually removes the entry subtracts, so concurrent Drop/evict/
// delete paths can never double-subtract or strand charged bytes.
func (g *GCache) forget(id model.ProfileID) bool {
	sh := g.lruShardFor(id)
	sh.mu.Lock()
	el, ok := sh.items[id]
	var bytes int64
	if ok {
		bytes = el.Value.(*lruEntry).bytes
		sh.ll.Remove(el)
		delete(sh.items, id)
	}
	sh.mu.Unlock()
	if ok && bytes != 0 {
		sh.bytes.Add(-bytes)
		g.usage.Add(-bytes)
	}
	return ok
}

// requeueFront rotates id to the MRU end of its shard without touching
// byte accounting — the skip-ahead used when eviction cannot currently
// persist an entry parked at the tail.
func (g *GCache) requeueFront(id model.ProfileID) {
	sh := g.lruShardFor(id)
	sh.mu.Lock()
	if el, ok := sh.items[id]; ok {
		sh.ll.MoveToFront(el)
	}
	sh.mu.Unlock()
}

// markDirty queues id for flushing. Every mutation path funnels through
// here after applying (add, replay, merge, compaction), so it is also
// the choke point that invalidates the profile's hot read slots BEFORE
// the mutation is acknowledged to its caller.
func (g *GCache) markDirty(id model.ProfileID) {
	g.invalidateHot(id)
	// Tier exclusivity backstop: a profile carrying unflushed writes must
	// not leave a stale compressed shadow that a later miss could inflate.
	// Mutation paths all operate on table-resident objects (whose install
	// already purged the warm tier), so this is normally a no-op.
	g.warm.drop(id)
	sh := g.dirtyShardFor(id)
	sh.mu.Lock()
	sh.ids[id] = struct{}{}
	sh.mu.Unlock()
}

// invalidateHot tears down id's promoted sealed form, if any.
func (g *GCache) invalidateHot(id model.ProfileID) {
	if g.hot.invalidate(id) {
		g.HotInvalidations.Inc()
	}
}

// Add performs a cached write of a single entry; see AddEntries.
func (g *GCache) Add(id model.ProfileID, ts model.Millis, slot model.SlotID, typ model.TypeID, fid model.FeatureID, counts []int64) error {
	return g.AddEntries(id, []wire.AddEntry{{Timestamp: ts, Slot: slot, Type: typ, FID: fid, Counts: counts}})
}

// AddEntries performs a cached write of a batch of entries under one lock
// hold; see AddEntriesCtx.
func (g *GCache) AddEntries(id model.ProfileID, entries []wire.AddEntry) error {
	return g.AddEntriesCtx(context.Background(), id, entries)
}

// AddEntriesCtx performs a cached write of a batch of entries under one
// lock hold: the profile is created or loaded, the OnApply hook (journal
// append) runs, the entries are applied, and the profile is LRU-touched
// and queued on the dirty list. Invalid entries are skipped with the
// first error returned after the rest applied — Profile.Add rejects
// deterministically, so a journal replay of the same batch converges on
// the same state. The whole operation is attributed to a cache.apply
// span on ctx's trace, with journal time as a wal.append child.
func (g *GCache) AddEntriesCtx(ctx context.Context, id model.ProfileID, entries []wire.AddEntry) (err error) {
	if len(entries) == 0 {
		return nil
	}
	actx, sp := trace.StartSpan(ctx, trace.StageCacheApply)
	defer func() { sp.EndErr(err) }()
	var p *model.Profile
	for {
		var err error
		p, _, err = g.getOrLoad(actx, id, true)
		if err != nil {
			return err
		}
		p.Lock()
		// Re-validate under the lock: a concurrent eviction or delete may
		// have detached this object from the table while we waited, and a
		// write applied to a detached profile is acknowledged yet
		// invisible — and diverges from journal replay order. Retry
		// against the table's current object.
		if g.table.Get(id) == p {
			break
		}
		p.Unlock()
	}
	if g.OnApply != nil {
		lsn, err := g.OnApply(actx, id, entries)
		if err != nil {
			p.Unlock()
			return err
		}
		if lsn > p.WalLSN {
			p.WalLSN = lsn
		}
	}
	delta, err := g.applyEntriesLocked(p, entries)
	p.Unlock()
	g.touch(id, delta)
	g.markDirty(id)
	return err
}

// applyEntriesLocked applies a batch to p, returning the footprint delta
// and the first per-entry error. Caller must hold p's write lock. Both
// the live write path and crash-recovery replay funnel through here so
// their outcomes are byte-identical.
func (g *GCache) applyEntriesLocked(p *model.Profile, entries []wire.AddEntry) (int64, error) {
	before := p.MemSize()
	var firstErr error
	for _, e := range entries {
		if err := p.Add(g.table.Schema, e.Timestamp, g.table.HeadWidth(), e.Slot, e.Type, e.FID, e.Counts); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return p.MemSize() - before, firstErr
}

// ApplyLogged re-applies a journaled mutation during crash recovery. The
// profile is loaded (or created) and the entries applied only when lsn is
// above the profile's persisted watermark; it reports whether the record
// was applied (false means the flushed state already contained it). The
// OnApply hook is not consulted — the record is already in the journal.
//
// isolated marks a record from the write-isolation stream: its watermark
// is MergedLSN, not WalLSN, because a compaction may have pushed WalLSN
// past an isolated add whose data never reached the persisted profile.
// Replaying an isolated add folds it straight into the main profile (the
// merge the crash pre-empted) and advances MergedLSN accordingly.
func (g *GCache) ApplyLogged(id model.ProfileID, entries []wire.AddEntry, lsn uint64, isolated bool) (bool, error) {
	p, _, err := g.getOrLoad(context.Background(), id, true)
	if err != nil {
		return false, err
	}
	p.Lock()
	wm := p.WalLSN
	if isolated {
		wm = p.MergedLSN
	}
	if lsn <= wm {
		p.Unlock()
		return false, nil
	}
	delta, aerr := g.applyEntriesLocked(p, entries)
	if isolated {
		p.MergedLSN = lsn
	}
	if lsn > p.WalLSN {
		p.WalLSN = lsn
	}
	p.Unlock()
	g.touch(id, delta)
	g.markDirty(id)
	return true, aerr
}

// Get returns the cached profile for id, loading it from persistent
// storage on a miss. hit reports whether the profile was already resident
// (Table II's hit/miss split). A profile that exists nowhere returns
// (nil, false, nil): queries against unknown profiles are empty, not
// errors.
func (g *GCache) Get(id model.ProfileID) (p *model.Profile, hit bool, err error) {
	return g.getOrLoad(context.Background(), id, false)
}

// GetCtx is Get with a request context: the lookup is attributed to a
// cache.get span on ctx's trace, flagged hit or miss, with storage-load
// time as a kv.read child.
//
//ips:hotpath
func (g *GCache) GetCtx(ctx context.Context, id model.ProfileID) (p *model.Profile, hit bool, err error) {
	gctx, sp := trace.StartSpan(ctx, trace.StageCacheGet)
	p, hit, err = g.getOrLoad(gctx, id, false)
	if sp.Active() {
		if hit {
			sp.SetFlags(trace.FlagCacheHit)
		} else {
			sp.SetFlags(trace.FlagCacheMiss)
		}
		sp.EndErr(err)
	}
	return p, hit, err
}

// GetReadForm is the query path's entry point: like GetCtx, except a
// profile promoted into the hot set comes back as its sealed read form
// (s set, p nil), which query.RunSealed reads without any lock. Any other
// profile comes back live (p set, s nil; both nil when the profile exists
// nowhere), for query.RunScratch to read under its lock. A sealed read is
// tagged with a hotslot.hit span on ctx's trace. Live reads feed the
// hot-key detector, so a profile that crosses the promotion threshold is
// sealed inline on the read that tipped it.
//
// Snapshot freshness: every mutation invalidates the sealed form before
// it is acknowledged (see hotslot.go), so a read that starts after a
// write's ack always observes a state at least as new as that write —
// the property the hot-slot staleness test pins.
//
//ips:hotpath
func (g *GCache) GetReadForm(ctx context.Context, id model.ProfileID) (s *query.Sealed, p *model.Profile, hit bool, err error) {
	if e := g.hot.lookup(id); e != nil {
		g.HitRatio.Observe(true)
		g.HotHits.Inc()
		// Keep the live profile MRU: the sealed form serves reads, but
		// the entry it shadows must not be evicted out from under it.
		g.touch(id, 0)
		sp := trace.StartLeaf(ctx, trace.StageHotSlotHit)
		sp.End()
		return e.sealed, nil, true, nil
	}
	p, hit, err = g.GetCtx(ctx, id)
	if err == nil && p != nil && g.hot.note(id) {
		//ipslint:ignore hotpathalloc promotion is a threshold-crossing event, not the steady state
		g.maybePromote(id, p)
	}
	return nil, p, hit, err
}

// GetForRead is GetCtx with the read path's former signature: it always
// returns the live profile, so hot is always false, and it neither uses
// nor feeds the hot set.
//
// Deprecated: use GetReadForm. It is kept only because the benchmark
// module (benchmark/trace.go) calls it and is versioned separately from
// the program.
//
//ips:hotpath
func (g *GCache) GetForRead(ctx context.Context, id model.ProfileID) (p *model.Profile, hit, hot bool, err error) {
	p, hit, err = g.GetCtx(ctx, id)
	return p, hit, false, err
}

// GetOrLoadForWrite returns the profile for id, loading it from storage on
// a miss and creating it empty when it exists nowhere — the write path's
// entry point.
func (g *GCache) GetOrLoadForWrite(id model.ProfileID) (p *model.Profile, hit bool, err error) {
	return g.getOrLoad(context.Background(), id, true)
}

// getOrLoad returns the resident profile or fills from storage; when
// createOnMiss is set, an absent profile is created empty (the write path).
// The resident-hit fast path is allocation-free; everything past it is
// the cold miss path.
//
//ips:hotpath
func (g *GCache) getOrLoad(ctx context.Context, id model.ProfileID, createOnMiss bool) (*model.Profile, bool, error) {
	if p := g.table.Get(id); p != nil {
		g.HitRatio.Observe(true)
		g.touch(id, 0)
		return p, true, nil
	}
	return g.getOrLoadSlow(ctx, id, createOnMiss)
}

// getOrLoadSlow resolves a table miss — storage IO, single-flight joins,
// and empty-profile creation all live here, off the hit path.
//
//ips:hotpath-trust the miss path does storage IO and is cold by definition
func (g *GCache) getOrLoadSlow(ctx context.Context, id model.ProfileID, createOnMiss bool) (*model.Profile, bool, error) {
	g.HitRatio.Observe(false)

	// Single-flight the storage load: the first misser becomes the
	// leader and issues the KV read + decode; everyone else waits on the
	// same call and shares the result, so N concurrent misses for one
	// cold profile cost one storage round trip.
	call, leader := g.flights.join(id)
	if !leader {
		g.LoadWaits.Inc()
		sp := trace.StartLeaf(ctx, trace.StageSingleflightWait)
		<-call.done
		sp.EndErr(call.err)
		if call.err != nil {
			return nil, false, call.err
		}
		if call.p == nil && createOnMiss {
			return g.createEmpty(id), false, nil
		}
		return call.p, false, nil
	}

	p, err := g.fill(ctx, id)
	g.flights.finish(id, call, p, err)

	if err != nil {
		return nil, false, err
	}
	if p == nil && createOnMiss {
		return g.createEmpty(id), false, nil
	}
	return p, false, nil
}

// fill resolves a table miss for the single-flight leader: the warm
// tier first (re-inflate in process, no storage round trip), then
// storage. A warm blob that fails to inflate is dropped and the fill
// falls through to the KV read — the blob was captured from a flushed
// profile, so storage holds the same state.
func (g *GCache) fill(ctx context.Context, id model.ProfileID) (*model.Profile, error) {
	// The caller's table miss predates its join: another flight may have
	// installed the profile since. Reading storage now could install a
	// snapshot older than that copy's writes, should it be flushed and
	// evicted before the install. As leader, a miss seen here holds: no
	// other flight can install until this one finishes.
	if p := g.table.Get(id); p != nil {
		return p, nil
	}
	if e := g.warm.take(id); e != nil {
		p, err := g.inflate(ctx, e)
		if err == nil {
			g.WarmHits.Inc()
			return p, nil
		}
	}
	if g.warm != nil {
		g.WarmMisses.Inc()
	}
	return g.load(ctx, id)
}

// load fetches id from storage and installs it; a missing profile returns
// (nil, nil).
func (g *GCache) load(ctx context.Context, id model.ProfileID) (*model.Profile, error) {
	g.Loads.Inc()
	start := time.Now()
	sp := trace.StartLeaf(ctx, trace.StageKVRead)
	p, err := g.ps.Load(id)
	sp.EndErr(err)
	g.Tracer.Observe(trace.StageKVRead, time.Since(start))
	if errors.Is(err, kv.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		g.LoadErrors.Inc()
		return nil, err
	}
	// Another writer may have created the profile concurrently; prefer the
	// resident one to avoid losing its writes.
	if cur := g.table.Get(id); cur != nil {
		return cur, nil
	}
	g.table.Put(p)
	// Tier exclusivity: installing a decoded copy supersedes any warm
	// shadow (normally already taken by fill; this covers direct loads).
	g.warm.drop(id)
	p.RLock()
	size := p.MemSize()
	p.RUnlock()
	g.touch(id, size)
	return p, nil
}

func (g *GCache) createEmpty(id model.ProfileID) *model.Profile {
	p, created := g.table.GetOrCreate(id)
	if created {
		g.warm.drop(id)
		p.RLock()
		size := p.MemSize()
		p.RUnlock()
		g.touch(id, size)
	}
	return p
}

// flushLoop drains one dirty shard forever.
func (g *GCache) flushLoop(shard int) {
	defer g.wg.Done()
	ticker := time.NewTicker(g.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			g.flushShard(shard)
		case <-g.stop:
			return
		}
	}
}

// flushShard persists every profile queued on the shard.
func (g *GCache) flushShard(shard int) {
	sh := g.dirty[shard]
	sh.mu.Lock()
	if len(sh.ids) == 0 {
		sh.mu.Unlock()
		return
	}
	batch := make([]model.ProfileID, 0, len(sh.ids))
	for id := range sh.ids {
		batch = append(batch, id)
		delete(sh.ids, id)
	}
	sh.mu.Unlock()

	for _, id := range batch {
		// Background flush: a failed save is re-marked dirty and retried on
		// the next cycle, so the error is intentionally not propagated here.
		_ = g.flushOne(id)
	}
}

func (g *GCache) flushOne(id model.ProfileID) error {
	p := g.table.Get(id)
	if p == nil {
		return nil // already evicted (eviction flushes)
	}
	p.RLock()
	if !p.Dirty {
		p.RUnlock()
		return nil
	}
	gen, lsn, mlsn := p.Generation, p.WalLSN, p.MergedLSN
	start := time.Now()
	_, err := g.ps.Save(p)
	g.Tracer.Observe(trace.StageKVFlush, time.Since(start))
	p.RUnlock()
	if err != nil {
		g.FlushErrors.Inc()
		g.markDirty(id) // retry later
		return err
	}
	g.Flushes.Inc()
	if g.OnFlush != nil {
		g.OnFlush(id, lsn, mlsn)
	}
	// Clear the dirty bit only if no write landed during the flush.
	p.Lock()
	if p.Generation == gen {
		p.Dirty = false
	} else {
		g.markDirty(id)
	}
	p.Unlock()
	return nil
}

// FlushAll synchronously persists every dirty resident profile. Nothing
// is locked or flushed inside Table.Each: the callback runs under a shard
// read lock, and both things FlushAll needs invert an order eviction
// relies on. flushOne re-enters the table (Table.Get takes the same
// shard's read lock — a re-entrant RLock deadlocks once an eviction's
// Table.Delete queues for the write lock in between), and a profile lock
// taken under the shard lock is the reverse of eviction's profile lock →
// Table.Delete. So Each only collects the residents; dirtiness is read
// and the flush issued after it returns.
func (g *GCache) FlushAll() error {
	var resident []*model.Profile
	g.table.Each(func(p *model.Profile) bool {
		resident = append(resident, p)
		return true
	})
	var firstErr error
	for _, p := range resident {
		p.RLock()
		dirty := p.Dirty
		p.RUnlock()
		if !dirty {
			continue
		}
		if err := g.flushOne(p.ID); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// swapLoop evicts cold profiles whenever usage exceeds the limit (§III-C).
func (g *GCache) swapLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.opts.SwapInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			g.EvictToWatermark()
		case <-g.stop:
			return
		}
	}
}

// EvictToWatermark runs one eviction pass: while usage exceeds MemLimit,
// drain the tail of the largest LRU shard — demoting evicted profiles
// into the warm tier — until usage falls below the low-water mark, then
// enforce the warm tier's own watermark. Exported for deterministic
// tests and the harness.
//
// Each largestShard sweep costs O(shards); draining the chosen shard
// down to the watermark before rescanning keeps that cost per PASS, not
// per evicted profile (the old shape rescanned every shard mutex for
// every single eviction, so eviction cost scaled with shard count).
func (g *GCache) EvictToWatermark() {
	if g.opts.MemLimit > 0 {
		for g.Usage() > g.opts.MemLimit {
			sh := g.largestShard()
			if sh == nil {
				break
			}
			if g.drainShard(sh) == 0 {
				break // nothing evictable right now
			}
		}
	}
	g.evictWarmToWatermark()
}

func (g *GCache) largestShard() *lruShard {
	g.ShardScans.Inc()
	var best *lruShard
	var bestBytes int64 = -1
	for _, sh := range g.lru {
		if b := sh.bytes.Load(); b > bestBytes {
			sh.mu.Lock()
			empty := sh.ll.Len() == 0
			sh.mu.Unlock()
			if !empty {
				best, bestBytes = sh, b
			}
		}
	}
	return best
}

// drainShard evicts from one shard's tail until usage falls to the
// low-water mark or the shard runs out of evictable entries, returning
// the number of profiles demoted. budget bounds the pass at the shard's
// starting length: every candidate the pass consumes (evicted, vanished,
// or skip-ahead-rotated) spends budget, so a shard whose entries are all
// unpersistable cannot spin the loop on its own rotations.
func (g *GCache) drainShard(sh *lruShard) int {
	sh.mu.Lock()
	budget := sh.ll.Len()
	sh.mu.Unlock()
	evicted := 0
	for budget > 0 {
		ok, consumed := g.evictBatch(sh)
		budget -= consumed
		if ok {
			evicted++
			g.evictWarmToWatermark()
		}
		if consumed == 0 {
			break // only lock-contended candidates at the tail
		}
		if g.Usage() <= g.opts.MemLowWater {
			break
		}
	}
	return evicted
}

// evictBatch probes up to 8 candidates from the shard's LRU tail,
// demoting the first evictable one (Fig. 8: contended entries are
// skipped with TryLock, not waited on). Returns whether a profile was
// demoted and how many candidates were consumed from the tail —
// vanished entries retired, unpersistable entries rotated to the MRU
// end, plus the demoted one; TryLock skips consume nothing.
func (g *GCache) evictBatch(sh *lruShard) (bool, int) {
	// Collect candidates from the tail under the shard lock, then release
	// it before taking profile locks (lock ordering: shard < profile is
	// never held together).
	const probe = 8
	sh.mu.Lock()
	cands := make([]model.ProfileID, 0, probe)
	for el := sh.ll.Back(); el != nil && len(cands) < probe; el = el.Prev() {
		cands = append(cands, el.Value.(*lruEntry).id)
	}
	sh.mu.Unlock()

	consumed := 0
	for _, id := range cands {
		p := g.table.Get(id)
		if p == nil {
			// Vanished from the table (concurrent Drop, delete, migration
			// release): retire the stale LRU entry at its recorded bytes.
			g.forget(id)
			consumed++
			continue
		}
		if !p.TryLock() {
			// Processed by another thread; move on (Fig. 8).
			g.SwapSkips.Inc()
			continue
		}
		size := p.MemSize()
		if p.Dirty {
			if _, err := g.ps.Save(p); err != nil {
				p.Unlock()
				g.FlushErrors.Inc()
				// Skip ahead: an unpersistable entry parked at the tail
				// would wedge the whole shard — every pass would re-probe
				// the same stuck candidates and give up. Rotate it to the
				// MRU end so the pass reaches evictable entries behind it;
				// it earns another flush attempt after everything else.
				g.requeueFront(id)
				consumed++
				continue
			}
			p.Dirty = false
			g.Flushes.Inc()
			if g.OnFlush != nil {
				g.OnFlush(id, p.WalLSN, p.MergedLSN)
			}
		}
		g.demoteLocked(p)
		p.Unlock()
		g.invalidateHot(id)
		g.forget(id)
		g.Evictions.Inc()
		g.EvictBytes.Add(size)
		return true, consumed + 1
	}
	return false, consumed
}

// Stats is a point-in-time summary for dashboards and the harness.
type Stats struct {
	Usage     int64
	Resident  int
	HitRatio  float64
	Hits      int64
	Total     int64
	Evictions int64
	Flushes   int64
	SwapSkips int64
	// Batch-v2 counters: single-flight shares and the hot-slot layer.
	LoadWaits        int64
	HotResident      int64 // profiles currently promoted into read slots
	HotHits          int64
	HotPromotions    int64
	HotInvalidations int64
	HotBytes         int64 // bytes pinned by hot-slot sealed forms (inside Usage)
	// Tiered-cache counters (warm.go).
	WarmUsage     int64
	WarmResident  int64
	Demotions     int64
	WarmHits      int64
	WarmMisses    int64
	WarmEvictions int64
	ShardScans    int64
}

// Stats captures current cache statistics.
func (g *GCache) Stats() Stats {
	st := Stats{
		Usage:            g.Usage(),
		Resident:         g.Resident(),
		HitRatio:         g.HitRatio.Value(),
		Hits:             g.HitRatio.Hits(),
		Total:            g.HitRatio.Total(),
		Evictions:        g.Evictions.Value(),
		Flushes:          g.Flushes.Value(),
		SwapSkips:        g.SwapSkips.Value(),
		LoadWaits:        g.LoadWaits.Value(),
		HotHits:          g.HotHits.Value(),
		HotPromotions:    g.HotPromotions.Value(),
		HotInvalidations: g.HotInvalidations.Value(),
		HotBytes:         g.hot.sealedBytes(),
		WarmUsage:        g.WarmUsage(),
		WarmResident:     int64(g.WarmResident()),
		Demotions:        g.Demotions.Value(),
		WarmHits:         g.WarmHits.Value(),
		WarmMisses:       g.WarmMisses.Value(),
		WarmEvictions:    g.WarmEvictions.Value(),
		ShardScans:       g.ShardScans.Value(),
	}
	if g.hot != nil {
		st.HotResident = g.hot.size.Load()
	}
	return st
}

// Drop flushes (if dirty) and removes one profile from the cache —
// every tier, so the next Get for the ID becomes a real storage miss —
// reporting whether it was resident in any tier. Used by tests and the
// benchmark harness to control the hit/miss split of Table II.
func (g *GCache) Drop(id model.ProfileID) bool {
	p := g.table.Get(id)
	if p == nil {
		// Not decoded; a warm blob still counts as resident and is
		// already KV-backed, so dropping it needs no flush.
		return g.warm.drop(id)
	}
	p.Lock()
	if p.Dirty {
		if _, err := g.ps.Save(p); err != nil {
			p.Unlock()
			g.FlushErrors.Inc()
			return false
		}
		p.Dirty = false
		g.Flushes.Inc()
		if g.OnFlush != nil {
			g.OnFlush(id, p.WalLSN, p.MergedLSN)
		}
	}
	g.dropLocked(p)
	p.Unlock()
	g.invalidateHot(id)
	g.warm.drop(id)
	g.forget(id)
	return true
}

// NoteSizeChange adjusts accounting after an external mutation (e.g.
// compaction, merge, delete) changed a profile's footprint by delta
// bytes. Being an external-mutation notification, it also invalidates
// the profile's hot read slots — even at delta 0, since a merge can
// change feature counts without moving the footprint. The delta lands
// on the profile's recorded LRU charge; if the entry is gone (a race
// with eviction detached the object the caller mutated), the charge was
// already reversed in full and the delta has nothing to apply to.
func (g *GCache) NoteSizeChange(id model.ProfileID, delta int64) {
	g.invalidateHot(id)
	if delta == 0 {
		return
	}
	sh := g.lruShardFor(id)
	sh.mu.Lock()
	el, ok := sh.items[id]
	if ok {
		el.Value.(*lruEntry).bytes += delta
	}
	sh.mu.Unlock()
	if ok {
		sh.bytes.Add(delta)
		g.usage.Add(delta)
	}
}

// MarkDirty queues an externally mutated profile for flushing.
func (g *GCache) MarkDirty(id model.ProfileID) { g.markDirty(id) }
