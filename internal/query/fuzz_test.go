package query

import (
	"math"
	"testing"

	"ips/internal/model"
)

// FuzzSealedMatchesLive: whatever profile model.UnmarshalProfile accepts
// — duplicate fids in one part, unordered or inverted slices, counts of
// any length and size — and whatever request the fields draw, RunSealed
// on the profile's sealed form answers exactly as Run on the profile.
func FuzzSealedMatchesLive(f *testing.F) {
	sch := model.NewSchema("like", "comment", "share")
	p := model.NewProfile(7)
	p.Lock()
	for i := 0; i < 40; i++ {
		c := []int64{int64(i%5 - 1), int64(i % 3), int64(i % 7)}
		_ = p.Add(sch, model.Millis(1000+450*i), 1000, model.SlotID(i%2), model.TypeID(i%3), model.FeatureID(i%11+1), c)
	}
	seed := model.MarshalProfile(p)
	p.Unlock()
	f.Add(seed, uint32(0), uint32(1), true, uint8(0), uint8(0), int64(5), uint8(1), 0.9, uint8(0), int64(20_000), int64(0), uint8(0))
	f.Add(seed, uint32(1), uint32(2), false, uint8(3), uint8(2), int64(0), uint8(2), 0.5, uint8(1), int64(5000), int64(3000), uint8(9))
	f.Add(seed, uint32(0), uint32(0), true, uint8(4), uint8(1), int64(3), uint8(3), math.NaN(), uint8(2), int64(30_000), int64(500), uint8(27))
	f.Add([]byte{}, uint32(0), uint32(0), true, uint8(0), uint8(0), int64(1), uint8(0), 0.0, uint8(0), int64(1), int64(0), uint8(0))

	f.Fuzz(func(t *testing.T, blob []byte, slot, typ uint32, allTypes bool, sortBy, action uint8, k int64,
		decay uint8, factor float64, kind uint8, span, from int64, reducers uint8) {
		p, err := model.UnmarshalProfile(blob)
		if err != nil {
			return
		}
		sch := model.NewSchema("like", "comment", "share")
		for i, name := range sch.Actions {
			sch.WithReducer(name, []model.Reduce{model.ReduceSum, model.ReduceMax, model.ReduceMin, model.ReduceLast}[reducers>>(2*i)&3])
		}
		req := Request{
			Slot: slot, Type: typ, AllTypes: allTypes,
			SortBy: SortBy(sortBy % 6), Action: []string{"", "like", "comment", "share", "view"}[action%5],
			K:     int(k % 1000),
			Decay: DecayFunc(decay % 4), DecayFactor: factor,
		}
		switch kind % 3 {
		case 0:
			req.Range = CurrentRange(span)
		case 1:
			req.Range = RelativeRange(span)
		default:
			req.Range = AbsoluteRange(from, from+span)
		}
		if req.SortBy == ByUDAF || reducers&0x40 != 0 {
			req.UDAF = WeightedSum(1, -1, 0.5)
		}
		const now = 40_000
		p.RLock()
		live, liveErr := Run(p, sch, req, now, new(Scratch))
		sealed := Seal(p, sch)
		p.RUnlock()
		got, gotErr := RunSealed(sealed, req, now, new(Scratch))
		if (gotErr != nil) != (liveErr != nil) {
			t.Fatalf("req %+v: sealed err %v, live err %v", req, gotErr, liveErr)
		}
		if liveErr != nil {
			return
		}
		if got.SlicesScanned != live.SlicesScanned || !sameFeatures(got.Features, live.Features) {
			t.Fatalf("req %+v:\n sealed %+v (scanned %d)\n live   %+v (scanned %d)",
				req, got.Features, got.SlicesScanned, live.Features, live.SlicesScanned)
		}
	})
}
