package compact

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ips/internal/config"
	"ips/internal/model"
)

func td(t *testing.T, raw map[string][2]string) config.TimeDimension {
	t.Helper()
	d, err := config.ParseTimeDimension(raw)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// totalCount sums a fid's count across all slices — compaction must keep
// this invariant ("Compaction does not drop any data").
func totalCount(p *model.Profile, slot model.SlotID, typ model.TypeID, fid model.FeatureID) int64 {
	var total int64
	for _, s := range p.Slices() {
		if set := s.Slot(slot); set != nil {
			if fs := set.Get(typ); fs != nil {
				if c := fs.Get(fid); c != nil {
					total += c[0]
				}
			}
		}
	}
	return total
}

func TestCompactFig10(t *testing.T) {
	// Fig. 10 / Listing 2: slices in the 10m..1h age band are merged into
	// 10-minute buckets; a list of six 5-minute slices becomes three.
	sch := model.NewSchema("n")
	dim := td(t, map[string][2]string{
		"5m":  {"0s", "10m"},
		"10m": {"10m", "1h"},
	})
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	const min = 60_000
	now := model.Millis(100 * min)
	// Six 5-minute slices covering [50m,80m), i.e. ages 20m..50m (all
	// inside the 10m band), aligned so pairs share 10-minute buckets.
	for i := 0; i < 6; i++ {
		ts := now - model.Millis(50*min) + model.Millis(i*5*min) + 1
		if err := p.Add(sch, ts, 5*min, 1, 1, 42, []int64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if p.NumSlices() != 6 {
		t.Fatalf("setup slices = %d, want 6", p.NumSlices())
	}
	st := CompactProfile(p, sch, dim, now)
	if st.SlicesAfter != 3 {
		t.Fatalf("slices after compact = %d, want 3 (Fig. 10)", st.SlicesAfter)
	}
	if got := totalCount(p, 1, 1, 42); got != 6 {
		t.Fatalf("total count = %d, want 6 (no data loss)", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactPreservesCountsProperty(t *testing.T) {
	// Property: compaction never changes any fid's windowed SUM total.
	sch := model.NewSchema("n")
	dim := config.DefaultTimeDimension()
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := model.NewProfile(1)
		p.Lock()
		defer p.Unlock()
		now := model.Millis(400 * 24 * 3600 * 1000)
		writes := int(n)%100 + 1
		for i := 0; i < writes; i++ {
			age := model.Millis(rng.Int63n(360 * 24 * 3600 * 1000))
			if err := p.Add(sch, now-age, 1000, 1, 1, model.FeatureID(rng.Intn(5)), []int64{1}); err != nil {
				return false
			}
		}
		var before [5]int64
		for fid := model.FeatureID(0); fid < 5; fid++ {
			before[fid] = totalCount(p, 1, 1, fid)
		}
		CompactProfile(p, sch, dim, now)
		if err := p.CheckInvariants(); err != nil {
			return false
		}
		for fid := model.FeatureID(0); fid < 5; fid++ {
			if totalCount(p, 1, 1, fid) != before[fid] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactIdempotent(t *testing.T) {
	sch := model.NewSchema("n")
	dim := config.DefaultTimeDimension()
	rng := rand.New(rand.NewSource(4))
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	now := model.Millis(40 * 24 * 3600 * 1000)
	for i := 0; i < 500; i++ {
		age := model.Millis(rng.Int63n(29 * 24 * 3600 * 1000))
		_ = p.Add(sch, now-age, 1000, 1, 1, 7, []int64{1})
	}
	CompactProfile(p, sch, dim, now)
	first := p.NumSlices()
	CompactProfile(p, sch, dim, now)
	if p.NumSlices() != first {
		t.Fatalf("second compact changed slice count %d -> %d", first, p.NumSlices())
	}
}

func TestCompactReducesSliceCount(t *testing.T) {
	// A year of hourly activity collapses dramatically under Listing 3.
	sch := model.NewSchema("n")
	dim := config.DefaultTimeDimension()
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	const hour = 3600 * 1000
	now := model.Millis(366 * 24 * hour)
	for h := 0; h < 364*24; h += 6 {
		_ = p.Add(sch, now-model.Millis(h)*hour-5, 1000, 1, 1, 3, []int64{1})
	}
	before := p.NumSlices()
	st := CompactProfile(p, sch, dim, now)
	if st.SlicesAfter >= before/10 {
		t.Fatalf("compact %d -> %d; expected >10x reduction", before, st.SlicesAfter)
	}
	if totalCount(p, 1, 1, 3) != 364*24/6 {
		t.Fatal("compaction lost data")
	}
}

func TestPartialCompactLeavesOldBands(t *testing.T) {
	sch := model.NewSchema("n")
	dim := config.DefaultTimeDimension() // coarsest band starts at 30d
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	const day = 24 * 3600 * 1000
	now := model.Millis(400 * day)
	// Ten 1-day-aligned slices at ages 40..49 days (inside 30d..365d band)
	// and some recent minutes.
	for i := 0; i < 10; i++ {
		_ = p.Add(sch, now-model.Millis(40+i)*day, day, 1, 1, 9, []int64{1})
	}
	for i := 0; i < 5; i++ {
		_ = p.Add(sch, now-model.Millis(i*90_000), 1000, 1, 1, 9, []int64{1})
	}
	st := PartialCompactProfile(p, sch, dim, now)
	if !st.Partial {
		t.Fatal("stats should mark partial")
	}
	// The ten day-old slices are older than the coarsest band's From (30d)
	// so they are untouched; a full compact would merge them into one 30d
	// bucket.
	var oldSlices int
	for _, s := range p.Slices() {
		if now-s.End >= 30*day {
			oldSlices++
		}
	}
	if oldSlices != 10 {
		t.Fatalf("old slices = %d, want 10 (untouched by partial)", oldSlices)
	}
	full := CompactProfile(p, sch, dim, now)
	var oldAfterFull int
	for _, s := range p.Slices() {
		if now-s.End >= 30*day {
			oldAfterFull++
		}
	}
	if oldAfterFull >= 10 {
		t.Fatalf("full compact kept %d old slices (stats: %+v)", oldAfterFull, full)
	}
}

func TestTruncateByCountFig11(t *testing.T) {
	// Fig. 11: truncate-by-count keeps the first (newest) five slices.
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	for i := 0; i < 8; i++ {
		_ = p.Add(sch, model.Millis(1000+i*1000), 1000, 1, 1, model.FeatureID(i), []int64{1})
	}
	st := TruncateByCount(p, 5)
	if st.SlicesAfter != 5 {
		t.Fatalf("slices = %d, want 5", st.SlicesAfter)
	}
	// The newest five survive: fids 3..7 wrote slices with the highest
	// timestamps.
	for fid := model.FeatureID(3); fid <= 7; fid++ {
		if totalCount(p, 1, 1, fid) != 1 {
			t.Fatalf("fid %d should survive truncate", fid)
		}
	}
	if totalCount(p, 1, 1, 0) != 0 {
		t.Fatal("oldest slice should be dropped")
	}
	// No-op when already under the bound.
	st = TruncateByCount(p, 100)
	if st.SlicesAfter != 5 {
		t.Fatal("over-large bound should be a no-op")
	}
}

func TestTruncateByAge(t *testing.T) {
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	const day = 24 * 3600 * 1000
	now := model.Millis(100 * day)
	for _, age := range []model.Millis{1, 5, 40, 80} {
		_ = p.Add(sch, now-age*day, 1000, 1, 1, model.FeatureID(age), []int64{1})
	}
	st := TruncateByAge(p, 30*day, now)
	if st.SlicesAfter != 2 {
		t.Fatalf("slices = %d, want 2", st.SlicesAfter)
	}
	if totalCount(p, 1, 1, 40) != 0 || totalCount(p, 1, 1, 1) != 1 {
		t.Fatal("wrong slices dropped")
	}
}

func TestShrinkKeepsTopFeatures(t *testing.T) {
	sch := model.NewSchema("like", "share")
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	// One slice, 20 features with increasing like counts.
	for fid := model.FeatureID(1); fid <= 20; fid++ {
		_ = p.Add(sch, 5000, 1000, 1, 1, fid, []int64{int64(fid), 0})
	}
	policy := config.ShrinkPolicy{DefaultRetain: 5}
	st := ShrinkProfile(p, policy, 6000)
	if st.FeaturesAfter != 5 {
		t.Fatalf("features after shrink = %d, want 5", st.FeaturesAfter)
	}
	for fid := model.FeatureID(16); fid <= 20; fid++ {
		if totalCount(p, 1, 1, fid) == 0 {
			t.Fatalf("high-count fid %d should survive", fid)
		}
	}
	if totalCount(p, 1, 1, 1) != 0 {
		t.Fatal("long-tail fid 1 should be eliminated")
	}
}

func TestShrinkPerSlotConfig(t *testing.T) {
	// Listing 4: per-slot retention counts.
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	for fid := model.FeatureID(1); fid <= 10; fid++ {
		_ = p.Add(sch, 5000, 1000, 1, 1, fid, []int64{int64(fid)})
		_ = p.Add(sch, 5000, 1000, 2, 1, fid, []int64{int64(fid)})
		_ = p.Add(sch, 5000, 1000, 3, 1, fid, []int64{int64(fid)})
	}
	policy := config.ShrinkPolicy{PerSlot: map[uint32]int{1: 2, 2: 7}, DefaultRetain: 0}
	ShrinkProfile(p, policy, 6000)
	count := func(slot model.SlotID) int {
		n := 0
		for fid := model.FeatureID(1); fid <= 10; fid++ {
			if totalCount(p, slot, 1, fid) > 0 {
				n++
			}
		}
		return n
	}
	if count(1) != 2 || count(2) != 7 {
		t.Fatalf("per-slot retain = %d/%d, want 2/7", count(1), count(2))
	}
	if count(3) != 10 {
		t.Fatalf("slot 3 (retain 0 = disabled) = %d, want 10", count(3))
	}
}

func TestShrinkMultiDimensionalWeights(t *testing.T) {
	// A feature with many shares must outrank one with slightly more likes
	// when shares are weighted heavily.
	sch := model.NewSchema("like", "share")
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	_ = p.Add(sch, 5000, 1000, 1, 1, 100, []int64{10, 0}) // liked
	_ = p.Add(sch, 5000, 1000, 1, 1, 200, []int64{2, 5})  // shared
	policy := config.ShrinkPolicy{DefaultRetain: 1, ActionWeights: []float64{1, 10}}
	ShrinkProfile(p, policy, 6000)
	if totalCount(p, 1, 1, 200) == 0 {
		t.Fatal("share-weighted feature should survive")
	}
	if totalCount(p, 1, 1, 100) != 0 {
		t.Fatal("like-only feature should be eliminated")
	}
}

func TestShrinkFreshnessBalance(t *testing.T) {
	// Data freshness: within the same retain budget, a recent low-count
	// feature beats an old feature with the same count, because the recent
	// slice's score is boosted. Both are in separate slices; shrink is
	// per-slice so craft one slice with two features and tie counts, then
	// check the boost applies via slice age across two profiles.
	sch := model.NewSchema("n")

	// Profile A: tie in an old slice vs fresh slice — keep budgets at 1
	// per (slice,slot,type); the per-slice shrink keeps the best feature
	// in each slice independently, so we verify the boost through scores:
	// an old slice with counts {5} loses to a fresh slice with counts {4}
	// only if shrink removed across slices — it does not. Instead verify
	// the score function directly.
	policy := config.ShrinkPolicy{DefaultRetain: 1, FreshnessBoost: 1.0}
	oldScore := score([]int64{5}, policy, 0.0)
	freshScore := score([]int64{4}, policy, 1.0)
	if freshScore <= oldScore {
		t.Fatalf("freshness boost broken: fresh %f <= old %f", freshScore, oldScore)
	}
	_ = sch
}

func TestMaintainFullPipeline(t *testing.T) {
	sch := model.NewSchema("n")
	cfg := config.Default()
	cfg.Shrink.DefaultRetain = 50
	cfg.Truncate.MaxSlices = 70
	p := model.NewProfile(1)
	p.Lock()
	rng := rand.New(rand.NewSource(8))
	const day = 24 * 3600 * 1000
	now := model.Millis(400 * day)
	for i := 0; i < 3000; i++ {
		age := model.Millis(rng.Int63n(380 * day))
		_ = p.Add(sch, now-age, 1000, model.SlotID(rng.Intn(3)), 1, model.FeatureID(rng.Intn(200)), []int64{1})
	}
	st := Maintain(p, sch, cfg, now)
	err := p.CheckInvariants()
	p.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if st.SlicesAfter > 70 {
		t.Fatalf("slices = %d, beyond truncate bound", st.SlicesAfter)
	}
	if st.BytesAfter >= st.BytesBefore {
		t.Fatalf("maintenance did not reduce memory: %d -> %d", st.BytesBefore, st.BytesAfter)
	}
}

func TestMaintainDropsPastHorizon(t *testing.T) {
	// With no explicit truncate policy, data past the time-dimension
	// horizon (365d in Listing 3) is dropped.
	sch := model.NewSchema("n")
	cfg := config.Default()
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	const day = 24 * 3600 * 1000
	now := model.Millis(1000 * day)
	_ = p.Add(sch, now-500*day, 1000, 1, 1, 1, []int64{1})
	_ = p.Add(sch, now-2*day, 1000, 1, 1, 2, []int64{1})
	Maintain(p, sch, cfg, now)
	if totalCount(p, 1, 1, 1) != 0 {
		t.Fatal("data past the horizon should be dropped")
	}
	if totalCount(p, 1, 1, 2) != 1 {
		t.Fatal("recent data should survive")
	}
}

func TestCompactorAsync(t *testing.T) {
	sch := model.NewSchema("n")
	cfg := config.Default()
	cfg.CompactParallelism = 2
	store, err := config.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const day = 24 * 3600 * 1000
	now := model.Millis(40 * day)
	c := NewCompactor(sch, store, func() model.Millis { return now })

	// Every request is queued before the workers start: a worker that
	// dequeued a profile before its duplicate arrived would run it twice,
	// so coalescing is deterministic only while nothing drains the queue.
	profiles := make([]*model.Profile, 20)
	for i := range profiles {
		p := model.NewProfile(model.ProfileID(i))
		p.Lock()
		for h := 0; h < 200; h++ {
			_ = p.Add(sch, now-model.Millis(h)*3600*1000-7, 1000, 1, 1, 5, []int64{1})
		}
		p.Unlock()
		profiles[i] = p
		c.Enqueue(p)
		c.Enqueue(p) // duplicate: must coalesce
	}
	c.Start()
	c.Close()

	if got := c.Runs.Value(); got != 20 {
		t.Fatalf("runs = %d, want 20 (dedupe + drain)", got)
	}
	for _, p := range profiles {
		p.RLock()
		n := p.NumSlices()
		p.RUnlock()
		if n >= 200 {
			t.Fatalf("profile not compacted: %d slices", n)
		}
	}
}

func TestCompactorEnqueueAfterClose(t *testing.T) {
	store, _ := config.NewStore(config.Default())
	c := NewCompactor(model.NewSchema("n"), store, func() model.Millis { return 1000 })
	c.Start()
	c.Close()
	c.Close()                      // double close is safe
	c.Enqueue(model.NewProfile(1)) // no-op, no panic
	if c.Runs.Value() != 0 {
		t.Fatal("no runs expected after close")
	}
}

func TestCompactorRunSync(t *testing.T) {
	store, _ := config.NewStore(config.Default())
	sch := model.NewSchema("n")
	now := model.Millis(40 * 24 * 3600 * 1000)
	c := NewCompactor(sch, store, func() model.Millis { return now })
	p := model.NewProfile(1)
	p.Lock()
	for h := 0; h < 100; h++ {
		_ = p.Add(sch, now-model.Millis(h)*3600*1000-7, 1000, 1, 1, 5, []int64{1})
	}
	p.Unlock()
	st := c.RunSync(p)
	if st.SlicesAfter >= st.SlicesBefore {
		t.Fatalf("sync run did not compact: %d -> %d", st.SlicesBefore, st.SlicesAfter)
	}
}

func TestCompactorHotReloadPickup(t *testing.T) {
	// A config change (e.g. adding truncation) applies to the next run
	// without restarting the compactor — the hot-reload behaviour of §V-b.
	store, _ := config.NewStore(config.Default())
	sch := model.NewSchema("n")
	now := model.Millis(40 * 24 * 3600 * 1000)
	c := NewCompactor(sch, store, func() model.Millis { return now })
	p := model.NewProfile(1)
	p.Lock()
	for h := 0; h < 50; h++ {
		_ = p.Add(sch, now-model.Millis(h)*3600*1000-7, 1000, 1, 1, 5, []int64{1})
	}
	p.Unlock()
	c.RunSync(p)
	p.RLock()
	before := p.NumSlices()
	p.RUnlock()
	if before <= 3 {
		t.Fatalf("setup: expected >3 slices, got %d", before)
	}
	if err := store.Mutate(func(cfg *config.Config) { cfg.Truncate.MaxSlices = 3 }); err != nil {
		t.Fatal(err)
	}
	c.RunSync(p)
	p.RLock()
	after := p.NumSlices()
	p.RUnlock()
	if after != 3 {
		t.Fatalf("hot-reloaded truncate not applied: %d slices", after)
	}
}

func TestMemoryFootprintClaim(t *testing.T) {
	// §III-D: with compaction+truncation a year of activity stays bounded
	// (~45KB/profile in production); without, it grows unboundedly (the
	// paper projects 76MB). Verify the *shape*: maintained footprint is at
	// least 50x smaller than unmaintained for a dense write stream.
	if testing.Short() {
		t.Skip("long simulation")
	}
	sch := model.NewSchema("like", "comment", "share")
	cfg := config.Default()
	cfg.Shrink.DefaultRetain = 10
	rng := rand.New(rand.NewSource(42))

	const day = 24 * 3600 * 1000
	build := func(maintain bool) int64 {
		p := model.NewProfile(1)
		p.Lock()
		defer p.Unlock()
		now := model.Millis(day)
		// 52 weeks; a burst of actions every 5 minutes of one day per week.
		for week := 0; week < 52; week++ {
			for m := 0; m < 24*60; m += 5 {
				ts := now + model.Millis(m)*60_000
				_ = p.Add(sch, ts, 1000, model.SlotID(rng.Intn(2)), 0,
					model.FeatureID(rng.Intn(5000)), []int64{1, 0, 0})
			}
			now += 7 * day
			if maintain {
				Maintain(p, sch, cfg, now)
			}
		}
		return p.MemSize()
	}
	raw := build(false)
	kept := build(true)
	if kept*50 > raw {
		t.Fatalf("maintained %d bytes vs raw %d: expected >50x reduction", kept, raw)
	}
}

func BenchmarkCompactProfile(b *testing.B) {
	sch := model.NewSchema("n")
	dim := config.DefaultTimeDimension()
	rng := rand.New(rand.NewSource(1))
	const day = 24 * 3600 * 1000
	now := model.Millis(40 * day)
	base := model.NewProfile(1)
	base.Lock()
	for i := 0; i < 2000; i++ {
		_ = base.Add(sch, now-model.Millis(rng.Int63n(29*day)), 1000, 1, 1, model.FeatureID(rng.Intn(100)), []int64{1})
	}
	base.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := base.Clone()
		b.StartTimer()
		p.Lock()
		CompactProfile(p, sch, dim, now)
		p.Unlock()
	}
}

var _ = time.Now // keep time import if unused in future edits
