package compact

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ips/internal/config"
	"ips/internal/model"
	"ips/internal/query"
)

// TestCompactionQueryEquivalenceProperty is the strongest statement of
// "compaction does not drop any data" (§III-D): for SUM-reduced schemas,
// a full-horizon top-K query returns the identical feature list — same
// FIDs, same counts, same order — before and after compaction.
func TestCompactionQueryEquivalenceProperty(t *testing.T) {
	sch := model.NewSchema("like", "share")
	dim := config.DefaultTimeDimension()
	const day = model.Millis(24 * 3600 * 1000)

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		now := 400 * day
		p := model.NewProfile(1)
		p.Lock()
		for i := 0; i < 300; i++ {
			age := model.Millis(rng.Int63n(int64(300 * day)))
			if err := p.Add(sch, now-age, 1000,
				model.SlotID(rng.Intn(3)), model.TypeID(rng.Intn(2)),
				model.FeatureID(rng.Intn(40)), []int64{rng.Int63n(5), rng.Int63n(3)}); err != nil {
				p.Unlock()
				return false
			}
		}
		p.Unlock()

		req := query.Request{
			Slot: 1, Type: 1,
			Range:  query.AbsoluteRange(0, now+1),
			SortBy: query.ByAction, Action: "like",
		}
		// Separate scratches: each result aliases its own.
		var sb, sa query.Scratch
		before, err := query.RunScratch(p, sch, req, now, &sb)
		if err != nil {
			return false
		}
		p.Lock()
		CompactProfile(p, sch, dim, now)
		p.Unlock()
		after, err := query.RunScratch(p, sch, req, now, &sa)
		if err != nil {
			return false
		}
		if len(before.Features) != len(after.Features) {
			return false
		}
		for i := range before.Features {
			b, a := before.Features[i], after.Features[i]
			if b.FID != a.FID || len(b.Counts) != len(a.Counts) {
				return false
			}
			for j := range b.Counts {
				if b.Counts[j] != a.Counts[j] {
					return false
				}
			}
		}
		// Compaction must also actually compact (fewer slices scanned).
		return after.SlicesScanned <= before.SlicesScanned
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestShrinkMonotoneProperty: shrinking with a larger retain budget never
// keeps fewer features, and every kept feature under the smaller budget is
// also kept under the larger one (per slice/slot/type, scores are fixed,
// so retained sets are nested).
func TestShrinkMonotoneProperty(t *testing.T) {
	sch := model.NewSchema("n")
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		build := func() *model.Profile {
			rng := rand.New(rand.NewSource(seed))
			p := model.NewProfile(1)
			p.Lock()
			for i := 0; i < 100; i++ {
				_ = p.Add(sch, model.Millis(1+rng.Intn(5000)), 100_000, 1, 1,
					model.FeatureID(rng.Intn(50)), []int64{rng.Int63n(20)})
			}
			p.Unlock()
			return p
		}
		small, large := build(), build()
		small.Lock()
		ShrinkProfile(small, config.ShrinkPolicy{DefaultRetain: k}, 10_000)
		small.Unlock()
		large.Lock()
		ShrinkProfile(large, config.ShrinkPolicy{DefaultRetain: k + 5}, 10_000)
		large.Unlock()

		if small.NumFeatures() > large.NumFeatures() {
			return false
		}
		// Nesting: every fid surviving the small budget survives the
		// large one.
		smallSet := map[model.FeatureID]bool{}
		for _, s := range small.Slices() {
			if set := s.Slot(1); set != nil {
				if fs := set.Get(1); fs != nil {
					fs.Each(func(st model.FeatureStat) { smallSet[st.FID] = true })
				}
			}
		}
		largeSet := map[model.FeatureID]bool{}
		for _, s := range large.Slices() {
			if set := s.Slot(1); set != nil {
				if fs := set.Get(1); fs != nil {
					fs.Each(func(st model.FeatureStat) { largeSet[st.FID] = true })
				}
			}
		}
		for fid := range smallSet {
			if !largeSet[fid] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
