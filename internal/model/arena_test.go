package model_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ips/internal/compact"
	"ips/internal/config"
	"ips/internal/model"
)

const dayMs = model.Millis(24 * 3600 * 1000)

// coldReadProfile builds a profile shaped like the cold_read benchmark's:
// 200 events spread over the 30 days before now on 2 slots x 2 types of
// 2,000 fids with three actions, compacted under the default time
// dimension into ~36 slices. now is the time the profile is compacted at.
func coldReadProfile(seed int64) (p *model.Profile, sch *model.Schema, now model.Millis) {
	sch = model.NewSchema("like", "comment", "share")
	now = 400 * dayMs
	rng := rand.New(rand.NewSource(seed))
	p = model.NewProfile(uint64(seed))
	p.Lock()
	defer p.Unlock()
	for i := 0; i < 200; i++ {
		v := rng.Int63()
		ts := now - 1 - rng.Int63n(30*dayMs)
		counts := []int64{1 + v%3, v >> 8 % 2, v >> 16 % 8 / 7}
		if err := p.Add(sch, ts, 1000, model.SlotID(rng.Intn(2)), model.TypeID(rng.Intn(2)),
			model.FeatureID(rng.Intn(2000)), counts); err != nil {
			panic(err)
		}
	}
	compact.Maintain(p, sch, config.Default(), now)
	return p, sch, now
}

func marshal(p *model.Profile) []byte {
	p.RLock()
	defer p.RUnlock()
	return model.MarshalProfile(p)
}

// TestUnmarshalProfileAllocs pins the arena decode: a cold_read-shaped
// profile costs one allocation per level plus the profile and its slice
// list, however many parts it has.
func TestUnmarshalProfileAllocs(t *testing.T) {
	p, _, _ := coldReadProfile(1)
	data := marshal(p)
	if p.NumSlices() < 30 || p.NumFeatures() < 150 {
		t.Fatalf("profile shape drifted: %d slices, %d features", p.NumSlices(), p.NumFeatures())
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := model.UnmarshalProfile(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d slices, %d features, %d bytes: %.0f allocs per decode",
		p.NumSlices(), p.NumFeatures(), len(data), allocs)
	if allocs > 16 {
		t.Fatalf("UnmarshalProfile = %.0f allocs, want <= 16", allocs)
	}
}

func BenchmarkUnmarshalProfile(b *testing.B) {
	p, _, _ := coldReadProfile(1)
	data := marshal(p)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.UnmarshalProfile(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodedProfileAliasingProperty: a decoded profile's parts share
// backing arrays, so every mutator must leave each part's neighbours
// alone. The same random operations run on a decoded profile and on its
// heap-allocated Clone, and after each one the two must marshal to the
// same bytes: an append that spilled into a neighbour's window would
// change the decoded profile only.
func TestDecodedProfileAliasingProperty(t *testing.T) {
	cfg := config.Default()
	f := func(seed int64) bool {
		src, sch, now := coldReadProfile(seed)
		dec, err := model.UnmarshalProfile(marshal(src))
		if err != nil {
			t.Log(err)
			return false
		}
		dec.RLock()
		twin := dec.Clone()
		dec.RUnlock()
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 60; op++ {
			apply := pickOp(rng, dec, sch, cfg, &now)
			for _, p := range []*model.Profile{dec, twin} {
				p.Lock()
				apply(p)
				p.Unlock()
			}
			if a, b := marshal(dec), marshal(twin); !bytes.Equal(a, b) {
				t.Logf("seed %d: op %d left the decoded profile and its clone apart", seed, op)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(62))}); err != nil {
		t.Fatal(err)
	}
}

// pickOp draws one mutation from p's current content and returns it as a
// function to run on p and on its twin, which hold the same content.
func pickOp(rng *rand.Rand, p *model.Profile, sch *model.Schema, cfg config.Config, now *model.Millis) func(*model.Profile) {
	counts := []int64{rng.Int63n(5), 1, rng.Int63n(3)}
	p.RLock()
	defer p.RUnlock()
	slices := p.Slices()
	if len(slices) == 0 {
		ts := *now - 1
		return func(q *model.Profile) { _ = q.Add(sch, ts, 1000, 0, 0, 1, counts) }
	}
	si := rng.Intn(len(slices))
	s := slices[si]
	ts := s.Start + rng.Int63n(s.Width())
	var slot model.SlotID
	var typ model.TypeID
	var fid model.FeatureID
	s.EachSlot(func(sl model.SlotID, set *model.InstanceSet) {
		if rng.Intn(2) == 0 || set.Len() == 0 {
			return
		}
		t, fs := set.At(rng.Intn(set.Len()))
		slot, typ = sl, t
		if v := fs.View(); len(v) > 0 {
			fid = v[rng.Intn(len(v))].FID
		}
	})
	// part returns the FeatureStats the op was drawn from, in q.
	part := func(q *model.Profile) *model.FeatureStats {
		if set := q.Slices()[si].Slot(slot); set != nil {
			return set.Get(typ)
		}
		return nil
	}
	switch rng.Intn(9) {
	case 0: // an existing fid: merges in place
	case 1: // a new fid in an existing type
		fid = 1_000_000 + uint64(rng.Intn(1000))
	case 2: // a new type in an existing slot
		typ = 100 + model.TypeID(rng.Intn(4))
	case 3: // a new slot
		slot = 100 + model.SlotID(rng.Intn(4))
	case 4: // a new head slice
		*now += model.Millis(rng.Intn(3)) * 3600_000
		ts = *now - 1
	case 5:
		*now += model.Millis(1+rng.Intn(24)) * 3600_000
		at := *now
		return func(q *model.Profile) { compact.Maintain(q, sch, cfg, at) }
	case 6:
		odd := rng.Intn(2) == 0
		return func(q *model.Profile) {
			if fs := part(q); fs != nil {
				fs.Retain(func(st model.FeatureStat) bool { return (st.FID%2 == 1) == odd })
			}
		}
	case 7:
		return func(q *model.Profile) {
			if fs := part(q); fs != nil {
				fs.Delete(fid)
			}
		}
	case 8: // an older slice than any held
		ts = slices[len(slices)-1].Start - 1 - rng.Int63n(dayMs)
		if ts <= 0 {
			ts = 1
		}
	}
	return func(q *model.Profile) { _ = q.Add(sch, ts, 1000, slot, typ, fid, counts) }
}
