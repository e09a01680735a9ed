package gcache

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/persist"
)

// checkTierAccounting cross-checks every byte counter against a walk of
// the tiers it claims to cover (the satellite-2 invariant). Quiescent
// caller only: concurrent mutation would make the walk racy.
func checkTierAccounting(t *testing.T, g *GCache, tbl *model.Table) {
	t.Helper()
	// Per-shard recorded bytes vs. the shard counter, and their sum vs.
	// the global usage.
	var recorded int64
	lruIDs := make(map[model.ProfileID]struct{})
	for i, sh := range g.lru {
		sh.mu.Lock()
		var shardSum int64
		for el := sh.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*lruEntry)
			shardSum += e.bytes
			lruIDs[e.id] = struct{}{}
		}
		if got := sh.bytes.Load(); got != shardSum {
			sh.mu.Unlock()
			t.Fatalf("shard %d: counter %d != summed entry bytes %d", i, got, shardSum)
		}
		sh.mu.Unlock()
		recorded += shardSum
	}
	if got := g.usage.Load(); got != recorded {
		t.Fatalf("usage %d != summed LRU entry bytes %d", got, recorded)
	}
	// Recorded bytes vs. the decoded profiles they charge for.
	var live int64
	tbl.Each(func(p *model.Profile) bool {
		p.RLock()
		live += p.MemSize()
		p.RUnlock()
		if _, ok := lruIDs[p.ID]; !ok {
			t.Fatalf("decoded profile %d has no LRU entry", p.ID)
		}
		return true
	})
	if live != recorded {
		t.Fatalf("decoded profiles total %dB, LRU entries charge %dB", live, recorded)
	}
	// Warm counter vs. a walk of the warm tier.
	var warm int64
	g.warm.walk(func(e *warmEntry) { warm += e.size() })
	if got := g.warm.usage(); got != warm {
		t.Fatalf("warm usage %d != walked warm bytes %d", got, warm)
	}
	// Hot-clone counter vs. a walk of the promoted entries.
	if g.hot != nil {
		var clones int64
		g.hot.entries.Range(func(_, v any) bool {
			clones += v.(*hotEntry).bytes
			return true
		})
		if got := g.hot.cloneBytes(); got != clones {
			t.Fatalf("hot bytes %d != walked clone bytes %d", got, clones)
		}
	}
	// And the public number is exactly their sum.
	if got := g.Usage(); got != recorded+g.hot.cloneBytes() {
		t.Fatalf("Usage() %d != lru %d + hot %d", got, recorded, g.hot.cloneBytes())
	}
}

// TestDemoteAndWarmHit pins the core lifecycle: eviction demotes
// decoded → warm, a later read re-inflates from the warm tier with no
// storage load, and the content survives the round trip.
func TestDemoteAndWarmHit(t *testing.T) {
	g, tbl, _ := newCache(t, Options{MemLimit: 1, MemLowWater: 1, WarmLimit: 1 << 30})
	if err := g.Add(1, 5000, 1, 1, 7, []int64{3, 0}); err != nil {
		t.Fatal(err)
	}
	g.EvictToWatermark()
	if tbl.Get(1) != nil {
		t.Fatal("profile should have been demoted out of the table")
	}
	if got := g.State(1); got != StateWarm {
		t.Fatalf("state = %v, want warm", got)
	}
	if g.Demotions.Value() != 1 {
		t.Fatalf("demotions = %d, want 1", g.Demotions.Value())
	}

	loads := g.Loads.Value()
	p, hit, err := g.Get(1)
	if err != nil || p == nil {
		t.Fatalf("get after demote: %v", err)
	}
	if hit {
		t.Fatal("warm fill must report a table miss (it re-inflates)")
	}
	if g.Loads.Value() != loads {
		t.Fatal("warm hit must not touch storage")
	}
	if g.WarmHits.Value() != 1 {
		t.Fatalf("warm hits = %d, want 1", g.WarmHits.Value())
	}
	if got := g.State(1); got != StateDecoded {
		t.Fatalf("state after inflate = %v, want decoded", got)
	}
	p.RLock()
	n := p.NumSlices()
	p.RUnlock()
	if n == 0 {
		t.Fatal("inflated profile lost its content")
	}
	checkTierAccounting(t, g, tbl)
}

// TestWarmTierEvictsToKV pins the warm tier's own watermark: blobs past
// WarmLimit drop to storage (state evicted), and the next read is a real
// KV load.
func TestWarmTierEvictsToKV(t *testing.T) {
	g, tbl, _ := newCache(t, Options{MemLimit: 1, MemLowWater: 1, WarmLimit: 1, WarmLowWater: 1})
	if err := g.Add(1, 5000, 1, 1, 7, []int64{3, 0}); err != nil {
		t.Fatal(err)
	}
	g.EvictToWatermark()
	if got := g.State(1); got != StateEvicted {
		t.Fatalf("state = %v, want evicted (warm watermark is 1 byte)", got)
	}
	if g.WarmEvictions.Value() == 0 {
		t.Fatal("warm eviction not counted")
	}
	loads := g.Loads.Value()
	p, _, err := g.Get(1)
	if err != nil || p == nil {
		t.Fatalf("reload: %v", err)
	}
	if g.Loads.Value() != loads+1 {
		t.Fatal("evicted profile must reload from storage")
	}
	if g.WarmMisses.Value() == 0 {
		t.Fatal("fill through an enabled warm tier must count the miss")
	}
	checkTierAccounting(t, g, tbl)
}

// TestLargerMemLimitMoreHits pins the tiered cache's scaling shape: the
// same seeded Zipf read sequence over persisted profiles, replayed
// single-threaded at a small and a large decoded budget (warm tier fixed),
// gets strictly more decoded-tier hits and no more storage loads at the
// larger budget.
func TestLargerMemLimitMoreHits(t *testing.T) {
	const profiles = 400
	store := kv.NewMemory()
	schema := model.NewSchema("like", "share")
	for id := model.ProfileID(1); id <= profiles; id++ {
		seedProfile(t, store, schema, id)
	}
	newCold := func(opts Options) *GCache {
		g, err := New(model.NewTable("t", schema, 1000), persist.New(store, "t"), opts)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	p, _, err := newCold(Options{}).Get(1)
	if err != nil || p == nil {
		t.Fatalf("probe load: %v", err)
	}
	p.RLock()
	size := p.MemSize()
	p.RUnlock()

	run := func(memLimit int64) (hits, loads int64) {
		g := newCold(Options{MemLimit: memLimit, WarmLimit: 16 * size})
		zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, profiles-1)
		for i := 0; i < 4000; i++ {
			if _, _, err := g.Get(model.ProfileID(zipf.Uint64() + 1)); err != nil {
				t.Fatal(err)
			}
			if i%16 == 15 {
				g.EvictToWatermark()
			}
		}
		return g.Stats().Hits, g.Loads.Value()
	}
	smallHits, smallLoads := run(16 * size)
	bigHits, bigLoads := run(128 * size)
	t.Logf("hits %d -> %d, loads %d -> %d", smallHits, bigHits, smallLoads, bigLoads)
	if bigHits <= smallHits {
		t.Fatalf("hits did not grow with MemLimit: %d -> %d", smallHits, bigHits)
	}
	if bigLoads > smallLoads {
		t.Fatalf("storage loads grew with MemLimit: %d -> %d", smallLoads, bigLoads)
	}
}

// TestWarmPurgedOnWrite pins tier exclusivity on the write path: writing
// to a demoted profile inflates the warm copy (no storage read), applies
// on the decoded object, and leaves no compressed shadow behind.
func TestWarmPurgedOnWrite(t *testing.T) {
	g, tbl, _ := newCache(t, Options{MemLimit: 1, MemLowWater: 1, WarmLimit: 1 << 30})
	if err := g.Add(1, 5000, 1, 1, 7, []int64{3, 0}); err != nil {
		t.Fatal(err)
	}
	g.EvictToWatermark()
	if g.State(1) != StateWarm {
		t.Fatal("setup: profile not warm")
	}
	loads := g.Loads.Value()
	if err := g.Add(1, 6000, 1, 1, 7, []int64{2, 0}); err != nil {
		t.Fatal(err)
	}
	if g.Loads.Value() != loads {
		t.Fatal("write to a warm profile must inflate, not hit storage")
	}
	if g.warm.peek(1) != nil {
		t.Fatal("warm shadow must be purged once the profile is decoded and dirty")
	}
	p := tbl.Get(1)
	p.RLock()
	dirty := p.Dirty
	p.RUnlock()
	if !dirty {
		t.Fatal("written profile must be dirty")
	}
	checkTierAccounting(t, g, tbl)
}

// TestDropCoversAllTiers pins Drop and Discard against the warm tier: a
// dropped profile must vanish from every tier, so the next read is a
// true storage miss.
func TestDropCoversAllTiers(t *testing.T) {
	g, tbl, _ := newCache(t, Options{MemLimit: 1, MemLowWater: 1, WarmLimit: 1 << 30})
	if err := g.Add(1, 5000, 1, 1, 7, []int64{3, 0}); err != nil {
		t.Fatal(err)
	}
	g.EvictToWatermark()
	if g.State(1) != StateWarm {
		t.Fatal("setup: profile not warm")
	}
	if !g.Drop(1) {
		t.Fatal("dropping a warm profile must report resident")
	}
	if g.State(1) != StateEvicted {
		t.Fatal("drop must clear the warm tier")
	}
	if g.Drop(1) {
		t.Fatal("second drop must report not resident")
	}

	// Discard: the delete path's no-flush teardown reconciles every tier.
	if err := g.Add(2, 5000, 1, 1, 7, []int64{1, 0}); err != nil {
		t.Fatal(err)
	}
	p := tbl.Get(2)
	p.Lock()
	p.Dirty = false
	tbl.Delete(2)
	p.Unlock()
	g.Discard(2)
	if g.usage.Load() != 0 {
		t.Fatalf("usage = %d after discarding the last profile, want 0", g.usage.Load())
	}
	checkTierAccounting(t, g, tbl)
}

// TestVanishedEntryAccounting is the satellite-2 regression: an entry
// whose profile vanished from the table (delete racing eviction) must be
// retired at its recorded byte charge. The old forget(id, 0) left the
// bytes charged forever, so largestShard chased phantom shards and usage
// never converged.
func TestVanishedEntryAccounting(t *testing.T) {
	g, tbl, _ := newCache(t, Options{MemLimit: 1, MemLowWater: 1, LRUShards: 1})
	if err := g.Add(1, 5000, 1, 1, 7, []int64{3, 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Detach behind the cache's back: the LRU entry is now stale.
	p := tbl.Get(1)
	p.Lock()
	tbl.Delete(1)
	p.Unlock()
	if g.usage.Load() == 0 {
		t.Fatal("setup: usage should still charge the vanished profile")
	}
	g.EvictToWatermark()
	if got := g.usage.Load(); got != 0 {
		t.Fatalf("usage = %d after the evictor retired the vanished entry, want 0", got)
	}
	checkTierAccounting(t, g, tbl)
}

// TestEvictionSkipsUnpersistableEntries is the satellite-3 regression:
// dirty profiles whose flush fails park at the LRU tail; a pass must
// rotate past them and keep evicting the clean entries behind them
// instead of re-probing the same stuck candidates and giving up.
func TestEvictionSkipsUnpersistableEntries(t *testing.T) {
	g, flaky, tbl := newFlakyCache(t, Options{MemLimit: 1, MemLowWater: 1, LRUShards: 1})
	// 12 profiles, all flushed clean, then profiles 1..9 re-dirtied (and
	// thereby moved to the MRU end) and 10..12 touched back in front of
	// them: LRU tail order is now 1..9 (dirty) then 10..12 (clean) —
	// more stuck entries than one 8-candidate probe batch.
	for id := model.ProfileID(1); id <= 12; id++ {
		if err := g.Add(id, 5000, 1, 1, 7, []int64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for id := model.ProfileID(1); id <= 9; id++ {
		if err := g.Add(id, 6000, 1, 1, 7, []int64{1}); err != nil {
			t.Fatal(err)
		}
	}
	for id := model.ProfileID(10); id <= 12; id++ {
		if _, _, err := g.Get(id); err != nil {
			t.Fatal(err)
		}
	}

	flaky.FailWrites(true)
	g.EvictToWatermark()
	if g.FlushErrors.Value() == 0 {
		t.Fatal("setup: no flush failures recorded")
	}
	for id := model.ProfileID(1); id <= 9; id++ {
		if tbl.Get(id) == nil {
			t.Fatalf("unpersistable profile %d must not be dropped", id)
		}
	}
	evicted := 0
	for id := model.ProfileID(10); id <= 12; id++ {
		if tbl.Get(id) == nil {
			evicted++
		}
	}
	if evicted != 3 {
		t.Fatalf("evicted %d of the 3 clean profiles behind the stuck tail, want 3", evicted)
	}

	// Storage recovers: the rotated entries flush and evict normally.
	flaky.FailWrites(false)
	g.EvictToWatermark()
	for id := model.ProfileID(1); id <= 9; id++ {
		if tbl.Get(id) != nil {
			t.Fatalf("profile %d still resident after recovery", id)
		}
	}
	checkTierAccounting(t, g, tbl)
}

// TestEvictionScanCostRegression is the satellite-1 regression: one
// eviction pass drains the chosen shard to the watermark, so the
// O(shards) largestShard sweep runs per PASS, not per evicted profile.
func TestEvictionScanCostRegression(t *testing.T) {
	g, tbl, _ := newCache(t, Options{MemLimit: 1, MemLowWater: 1, LRUShards: 32})
	const n = 400
	for id := model.ProfileID(1); id <= n; id++ {
		if err := g.Add(id, 5000, 1, 1, 7, []int64{1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	g.EvictToWatermark()
	evictions, scans := g.Evictions.Value(), g.ShardScans.Value()
	if evictions < n {
		t.Fatalf("evictions = %d, want %d", evictions, n)
	}
	// The old shape rescanned every shard mutex once per eviction
	// (scans == evictions); draining bounds scans by the shard count
	// plus the final under-limit checks.
	if scans*4 > evictions {
		t.Fatalf("shard scans = %d for %d evictions: eviction cost still scales per entry", scans, evictions)
	}
	checkTierAccounting(t, g, tbl)
}

// TestTierAccountingUnderChurn drives writes, reads, hot promotions,
// evictions, drops, and size changes through a seeded storm, then
// cross-checks every tier's byte counter against a walk (satellite 2:
// hot-slot clones are charged to Usage, recorded LRU bytes stay exact).
func TestTierAccountingUnderChurn(t *testing.T) {
	g, tbl, _ := newCache(t, Options{
		MemLimit:        4096,
		WarmLimit:       4096,
		LRUShards:       8,
		HotSlots:        3,
		HotPromoteAfter: 4,
		HotMaxEntries:   16,
	})
	rng := rand.New(rand.NewSource(7))
	const ids = 64
	for i := 0; i < 4000; i++ {
		id := model.ProfileID(rng.Intn(ids) + 1)
		switch rng.Intn(10) {
		case 0:
			g.EvictToWatermark()
		case 1:
			g.Drop(id)
		case 2, 3, 4:
			if _, _, _, err := g.GetForRead(context.Background(), id); err != nil {
				t.Fatal(err)
			}
		default:
			if err := g.Add(id, model.Millis(1000+i), 1, 1, model.FeatureID(rng.Intn(8)+1), []int64{1, 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A write-free read burst guarantees at least one hot promotion, so
	// the cross-check below covers nonzero clone bytes.
	for i := 0; i < 8; i++ {
		if _, _, _, err := g.GetForRead(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	}
	g.EvictToWatermark()
	checkTierAccounting(t, g, tbl)
	if g.Demotions.Value() == 0 {
		t.Fatal("storm never demoted — the churn did not exercise the warm tier")
	}
	if g.HotPromotions.Value() == 0 {
		t.Fatal("storm never promoted — the churn did not exercise hot slots")
	}
}

// TestHotCloneBytesChargedToUsage pins that promoted read replicas count
// against the memory budget: the clone of a promoted profile appears in
// Usage() and disappears on invalidation.
func TestHotCloneBytesChargedToUsage(t *testing.T) {
	g, tbl, _ := newCache(t, Options{HotSlots: 4, HotPromoteAfter: 2, HotMaxEntries: 8})
	if err := g.Add(1, 5000, 1, 1, 7, []int64{5, 0}); err != nil {
		t.Fatal(err)
	}
	base := g.Usage()
	for i := 0; i < 4; i++ {
		if _, _, _, err := g.GetForRead(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	}
	if g.HotPromotions.Value() != 1 {
		t.Fatalf("promotions = %d, want 1", g.HotPromotions.Value())
	}
	grown := g.Usage()
	if grown <= base {
		t.Fatalf("usage %d must grow past %d once the clone is pinned", grown, base)
	}
	checkTierAccounting(t, g, tbl)
	// Any mutation invalidates; the clone bytes must come back off.
	if err := g.Add(1, 6000, 1, 1, 7, []int64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if g.hot.cloneBytes() != 0 {
		t.Fatalf("hot bytes = %d after invalidation, want 0", g.hot.cloneBytes())
	}
	checkTierAccounting(t, g, tbl)
}

// TestConcurrentChurnRace is a -race shakeout of the state machine:
// readers, writers, droppers, and evictors all hammer a small ID space
// while tier transitions run, then a final quiesced cross-check.
func TestConcurrentChurnRace(t *testing.T) {
	g, tbl, _ := newCache(t, Options{
		MemLimit:  1 << 14,
		WarmLimit: 1 << 13,
		LRUShards: 4,
		HotSlots:  2, HotPromoteAfter: 4, HotMaxEntries: 8,
	})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 800; i++ {
				id := model.ProfileID(rng.Intn(16) + 1)
				switch rng.Intn(8) {
				case 0:
					g.EvictToWatermark()
				case 1:
					g.Drop(id)
				case 2, 3:
					_, _, _, _ = g.GetForRead(context.Background(), id)
				default:
					_ = g.Add(id, model.Millis(1000+i), 1, 1, 7, []int64{1, 0})
				}
			}
		}(int64(w))
	}
	wg.Wait()
	g.EvictToWatermark()
	checkTierAccounting(t, g, tbl)
}

// BenchmarkEvictionPerEntry measures eviction cost per evicted profile
// across shard counts — the satellite-1 benchmark. Before the drain
// restructure, cost per entry grew with LRUShards (a full shard sweep
// per eviction); now the sweep amortizes across a whole drain pass.
func BenchmarkEvictionPerEntry(b *testing.B) {
	for _, shards := range []int{4, 16, 64} {
		b.Run(map[int]string{4: "shards=4", 16: "shards=16", 64: "shards=64"}[shards], func(b *testing.B) {
			g, _, _ := newCache(b, Options{MemLimit: 1, MemLowWater: 1, LRUShards: shards})
			const n = 512
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for id := model.ProfileID(1); id <= n; id++ {
					if err := g.Add(id, 5000, 1, 1, 7, []int64{1, 0}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				g.EvictToWatermark()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/evict")
		})
	}
}

// afterGetStore runs fn once, right after the next Get has read its
// value: the window between a storage read and the install it feeds.
type afterGetStore struct {
	kv.Store
	fn func()
}

func (s *afterGetStore) Get(key string) ([]byte, error) {
	v, err := s.Store.Get(key)
	if fn := s.fn; fn != nil {
		s.fn = nil
		fn()
	}
	return v, err
}

// TestTierFillServesCopyInstalledSinceMiss pins the single-flight
// leader's table re-check. A leader whose table miss predates another
// flight's install must serve that resident copy. Reading storage
// instead raced the copy's flush and eviction: the stored bytes read
// before the flush were installed over the acknowledged write, and the
// next flush would have persisted the loss.
func TestTierFillServesCopyInstalledSinceMiss(t *testing.T) {
	store := &afterGetStore{Store: kv.NewMemory()}
	tbl := model.NewTable("t", model.NewSchema("like", "share"), 1000)
	g, err := New(tbl, persist.New(store, "t"), Options{MemLimit: 1, MemLowWater: 1, WarmLimit: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Add(1, 5000, 1, 1, 7, []int64{1, 0}); err != nil {
		t.Fatal(err)
	}
	g.Drop(1) // stored: count 1
	// Another flight installs the profile and a write lands on it.
	if err := g.Add(1, 5000, 1, 1, 7, []int64{1, 0}); err != nil {
		t.Fatal(err)
	}
	// The leader fills; should it read storage, the resident copy is
	// flushed and evicted before the read's result is installed.
	store.fn = g.EvictToWatermark
	p, err := g.fill(context.Background(), 1)
	store.fn = nil
	if err != nil || p == nil {
		t.Fatalf("fill: p=%v err=%v", p, err)
	}
	if got := countFeature(t, g, 1, 7); got != 2 {
		t.Fatalf("count after fill = %d, want 2: the acknowledged write was lost", got)
	}
	g.EvictToWatermark()
	if !g.Drop(1) {
		t.Fatal("profile 1 not resident in any tier")
	}
	if got := countFeature(t, g, 1, 7); got != 2 {
		t.Fatalf("count after reload = %d, want 2", got)
	}
	checkTierAccounting(t, g, tbl)
}
