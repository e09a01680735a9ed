package query

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ips/internal/model"
)

const (
	slotSports model.SlotID = 1
	typeBall   model.TypeID = 2
)

// runQuery runs req through a fresh scratch, so the result is the
// caller's to keep.
func runQuery(p *model.Profile, sch *model.Schema, req Request, now model.Millis) (Result, error) {
	return RunScratch(p, sch, req, now, new(Scratch))
}

func newProfileWithPaperExample(t *testing.T) (*model.Profile, *model.Schema) {
	t.Helper()
	// Reproduce the paper's motivating example (Table I): Alice liked,
	// commented on and shared a Lakers video ten days ago, then liked two
	// Warriors videos two days ago.
	sch := model.NewSchema("like", "comment", "share")
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	const day = 24 * 3600 * 1000
	const now = 100 * day
	const lakers, warriors = 100, 200
	if err := p.Add(sch, now-10*day, day, slotSports, typeBall, lakers, []int64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(sch, now-2*day, day, slotSports, typeBall, warriors, []int64{2, 0, 0}); err != nil {
		t.Fatal(err)
	}
	return p, sch
}

func TestPaperMotivatingExample(t *testing.T) {
	// "Alice's topmost liked feature in Sports/Basketball over the last 10
	// days" must be Golden State Warriors (Listing 1 / Fig. 4).
	p, sch := newProfileWithPaperExample(t)
	const day = 24 * 3600 * 1000
	const now = 100 * day
	res, err := runQuery(p, sch, Request{
		Slot:   slotSports,
		Type:   typeBall,
		Range:  CurrentRange(10*day + 1),
		SortBy: ByAction,
		Action: "like",
		K:      1,
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 1 {
		t.Fatalf("got %d features, want 1", len(res.Features))
	}
	if res.Features[0].FID != 200 {
		t.Fatalf("top liked = %d, want 200 (Warriors)", res.Features[0].FID)
	}
	if res.Features[0].Counts[0] != 2 {
		t.Fatalf("likes = %d, want 2", res.Features[0].Counts[0])
	}
}

func TestWindowExcludesOldData(t *testing.T) {
	p, sch := newProfileWithPaperExample(t)
	const day = 24 * 3600 * 1000
	const now = 100 * day
	// A 5-day window must exclude the Lakers row from 10 days ago.
	res, err := runQuery(p, sch, Request{
		Slot: slotSports, Type: typeBall,
		Range: CurrentRange(5 * day), SortBy: ByAction, Action: "like",
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 1 || res.Features[0].FID != 200 {
		t.Fatalf("5-day window = %+v, want only Warriors", res.Features)
	}
	// A 30-day window includes both.
	res, err = runQuery(p, sch, Request{
		Slot: slotSports, Type: typeBall,
		Range: CurrentRange(30 * day), SortBy: ByAction, Action: "like",
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 2 {
		t.Fatalf("30-day window = %d features, want 2", len(res.Features))
	}
}

func TestRelativeRange(t *testing.T) {
	p, sch := newProfileWithPaperExample(t)
	const day = 24 * 3600 * 1000
	// Relative window of 1 day back from the latest action (2 days ago)
	// must include only the Warriors row, regardless of "now".
	res, err := runQuery(p, sch, Request{
		Slot: slotSports, Type: typeBall,
		Range: RelativeRange(1 * day), SortBy: ByFeatureID,
	}, 500*day)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 1 || res.Features[0].FID != 200 {
		t.Fatalf("relative window = %+v, want only Warriors", res.Features)
	}
	// Relative window of 9 days covers both rows.
	res, err = runQuery(p, sch, Request{
		Slot: slotSports, Type: typeBall,
		Range: RelativeRange(9 * day), SortBy: ByFeatureID,
	}, 500*day)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 2 {
		t.Fatalf("wide relative window = %d features, want 2", len(res.Features))
	}
}

func TestAbsoluteRange(t *testing.T) {
	p, sch := newProfileWithPaperExample(t)
	const day = 24 * 3600 * 1000
	const now = 100 * day
	res, err := runQuery(p, sch, Request{
		Slot: slotSports, Type: typeBall,
		Range:  AbsoluteRange(now-11*day, now-9*day),
		SortBy: ByFeatureID,
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 1 || res.Features[0].FID != 100 {
		t.Fatalf("absolute window = %+v, want only Lakers", res.Features)
	}
}

func TestRangeValidation(t *testing.T) {
	p, sch := newProfileWithPaperExample(t)
	if _, err := runQuery(p, sch, Request{Range: CurrentRange(0)}, 1000); err == nil {
		t.Fatal("zero CURRENT span should error")
	}
	if _, err := runQuery(p, sch, Request{Range: RelativeRange(-5)}, 1000); err == nil {
		t.Fatal("negative RELATIVE span should error")
	}
	if _, err := runQuery(p, sch, Request{Range: AbsoluteRange(10, 10)}, 1000); err == nil {
		t.Fatal("empty ABSOLUTE range should error")
	}
	if _, err := runQuery(p, sch, Request{Range: TimeRange{Kind: RangeKind(9), Span: 1}}, 1000); err == nil {
		t.Fatal("unknown kind should error")
	}
	if _, err := runQuery(p, sch, Request{Range: CurrentRange(100), SortBy: ByAction, Action: "nope"}, 1000); err == nil {
		t.Fatal("unknown action should error")
	}
}

func TestTopKOrderingAndTies(t *testing.T) {
	sch := model.NewSchema("clicks")
	p := model.NewProfile(1)
	p.Lock()
	for fid := model.FeatureID(1); fid <= 10; fid++ {
		n := int64(fid % 5) // duplicate counts force tie-breaking
		if err := p.Add(sch, 5000, 1000, 1, 1, fid, []int64{n}); err != nil {
			t.Fatal(err)
		}
	}
	p.Unlock()
	res, err := runQuery(p, sch, Request{
		Slot: 1, Type: 1, Range: CurrentRange(10_000),
		SortBy: ByAction, Action: "clicks", K: 4,
	}, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 4 {
		t.Fatalf("k=4 returned %d", len(res.Features))
	}
	// counts: fid%5 → 4 for fids 4,9; 3 for 3,8. Ties break by lower FID.
	wantOrder := []model.FeatureID{4, 9, 3, 8}
	for i, want := range wantOrder {
		if res.Features[i].FID != want {
			t.Fatalf("pos %d = fid %d, want %d", i, res.Features[i].FID, want)
		}
	}
}

func TestSortByTimestampAndFID(t *testing.T) {
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	_ = p.Add(sch, 1500, 1000, 1, 1, 30, []int64{1})
	_ = p.Add(sch, 2500, 1000, 1, 1, 10, []int64{1})
	_ = p.Add(sch, 3500, 1000, 1, 1, 20, []int64{1})
	p.Unlock()

	res, err := runQuery(p, sch, Request{Slot: 1, Type: 1, Range: CurrentRange(10_000), SortBy: ByTimestamp}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	got := [3]model.FeatureID{res.Features[0].FID, res.Features[1].FID, res.Features[2].FID}
	if got != [3]model.FeatureID{20, 10, 30} {
		t.Fatalf("ByTimestamp order = %v, want [20 10 30]", got)
	}

	res, err = runQuery(p, sch, Request{Slot: 1, Type: 1, Range: CurrentRange(10_000), SortBy: ByFeatureID}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	got = [3]model.FeatureID{res.Features[0].FID, res.Features[1].FID, res.Features[2].FID}
	if got != [3]model.FeatureID{10, 20, 30} {
		t.Fatalf("ByFeatureID order = %v, want [10 20 30]", got)
	}
}

func TestSortByTotal(t *testing.T) {
	sch := model.NewSchema("a", "b")
	p := model.NewProfile(1)
	p.Lock()
	_ = p.Add(sch, 1500, 1000, 1, 1, 1, []int64{5, 0})
	_ = p.Add(sch, 1500, 1000, 1, 1, 2, []int64{2, 9})
	p.Unlock()
	res, err := runQuery(p, sch, Request{Slot: 1, Type: 1, Range: CurrentRange(10_000), SortBy: ByTotal}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Features[0].FID != 2 {
		t.Fatalf("ByTotal top = %d, want 2", res.Features[0].FID)
	}
}

func TestAllTypesAggregation(t *testing.T) {
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	_ = p.Add(sch, 1500, 1000, 1, 1, 7, []int64{1})
	_ = p.Add(sch, 1500, 1000, 1, 2, 7, []int64{2})  // same fid, other type
	_ = p.Add(sch, 1500, 1000, 2, 1, 7, []int64{50}) // other slot: excluded
	p.Unlock()
	res, err := runQuery(p, sch, Request{Slot: 1, AllTypes: true, Range: CurrentRange(10_000), SortBy: ByFeatureID}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 1 || res.Features[0].Counts[0] != 3 {
		t.Fatalf("AllTypes = %+v, want fid 7 with count 3", res.Features)
	}
}

func TestMultiSliceAggregation(t *testing.T) {
	// Counts for the same fid across many slices must sum.
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	for i := 0; i < 20; i++ {
		_ = p.Add(sch, model.Millis(1000+i*1000+5), 1000, 1, 1, 42, []int64{1})
	}
	p.Unlock()
	res, err := runQuery(p, sch, Request{Slot: 1, Type: 1, Range: CurrentRange(100_000), SortBy: ByAction}, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.SlicesScanned != 20 {
		t.Fatalf("scanned %d slices, want 20", res.SlicesScanned)
	}
	if res.Features[0].Counts[0] != 20 {
		t.Fatalf("aggregated = %d, want 20", res.Features[0].Counts[0])
	}
}

func TestReduceLastAcrossSlices(t *testing.T) {
	// LAST semantics: the newest slice's value wins across the window —
	// the advertising bid-price use case (§I-d).
	sch := model.NewSchema("bid").WithReducer("bid", model.ReduceLast)
	p := model.NewProfile(1)
	p.Lock()
	_ = p.Add(sch, 1500, 1000, 1, 1, 9, []int64{100})
	_ = p.Add(sch, 2500, 1000, 1, 1, 9, []int64{70})
	_ = p.Add(sch, 3500, 1000, 1, 1, 9, []int64{85})
	p.Unlock()
	res, err := runQuery(p, sch, Request{Slot: 1, Type: 1, Range: CurrentRange(100_000), SortBy: ByFeatureID}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Features[0].Counts[0] != 85 {
		t.Fatalf("bid = %d, want 85 (latest)", res.Features[0].Counts[0])
	}
}

func TestReduceMaxAcrossSlices(t *testing.T) {
	sch := model.NewSchema("hwm").WithReducer("hwm", model.ReduceMax)
	p := model.NewProfile(1)
	p.Lock()
	_ = p.Add(sch, 1500, 1000, 1, 1, 9, []int64{10})
	_ = p.Add(sch, 2500, 1000, 1, 1, 9, []int64{30})
	_ = p.Add(sch, 3500, 1000, 1, 1, 9, []int64{20})
	p.Unlock()
	res, err := runQuery(p, sch, Request{Slot: 1, Type: 1, Range: CurrentRange(100_000), SortBy: ByFeatureID}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Features[0].Counts[0] != 30 {
		t.Fatalf("hwm = %d, want 30", res.Features[0].Counts[0])
	}
}

func TestDecayExpFavoursRecent(t *testing.T) {
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	// Old feature has a big count; recent feature a small one.
	_ = p.Add(sch, 1500, 1000, 1, 1, 1, []int64{10}) // old
	_ = p.Add(sch, 9500, 1000, 1, 1, 2, []int64{4})  // recent
	p.Unlock()

	// Without decay, the old feature wins.
	res, err := runQuery(p, sch, Request{Slot: 1, Type: 1, Range: CurrentRange(10_000), SortBy: ByAction}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Features[0].FID != 1 {
		t.Fatalf("undecayed top = %d, want 1", res.Features[0].FID)
	}

	// With aggressive exponential decay, the recent feature wins.
	res, err = runQuery(p, sch, Request{
		Slot: 1, Type: 1, Range: CurrentRange(10_000), SortBy: ByAction,
		Decay: DecayExp, DecayFactor: 0.5,
	}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Features[0].FID != 2 {
		t.Fatalf("decayed top = %d, want 2", res.Features[0].FID)
	}
}

func TestDecayStepDropsOld(t *testing.T) {
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	_ = p.Add(sch, 1500, 1000, 1, 1, 1, []int64{10}) // old: ~85% into window
	_ = p.Add(sch, 9500, 1000, 1, 1, 2, []int64{4})
	p.Unlock()
	res, err := runQuery(p, sch, Request{
		Slot: 1, Type: 1, Range: CurrentRange(10_000), SortBy: ByAction,
		Decay: DecayStep, DecayFactor: 0.5,
	}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 1 || res.Features[0].FID != 2 {
		t.Fatalf("step decay = %+v, want only fid 2", res.Features)
	}
}

func TestDecayLinear(t *testing.T) {
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	_ = p.Add(sch, 9500, 1000, 1, 1, 2, []int64{100})
	p.Unlock()
	res, err := runQuery(p, sch, Request{
		Slot: 1, Type: 1, Range: CurrentRange(10_000), SortBy: ByAction,
		Decay: DecayLinear, DecayFactor: 1,
	}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Features[0].Counts[0]
	// Slice midpoint is at 9000 in a [0,10000) window: age fraction 0.1,
	// weight 0.9 → 90.
	if got < 85 || got > 95 {
		t.Fatalf("linear decayed count = %d, want ~90", got)
	}
}

func TestFilterMinCount(t *testing.T) {
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	for fid := model.FeatureID(1); fid <= 10; fid++ {
		_ = p.Add(sch, 1500, 1000, 1, 1, fid, []int64{int64(fid)})
	}
	p.Unlock()
	res, err := runQuery(p, sch, Request{
		Slot: 1, Type: 1, Range: CurrentRange(10_000), SortBy: ByAction,
		Filter: &Filter{MinCount: 8},
	}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 3 {
		t.Fatalf("min-count filter kept %d, want 3", len(res.Features))
	}
}

func TestFilterFIDsAndPredicate(t *testing.T) {
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	for fid := model.FeatureID(1); fid <= 10; fid++ {
		_ = p.Add(sch, 1500, 1000, 1, 1, fid, []int64{int64(fid)})
	}
	p.Unlock()
	res, err := runQuery(p, sch, Request{
		Slot: 1, Type: 1, Range: CurrentRange(10_000), SortBy: ByFeatureID,
		Filter: &Filter{
			FIDs:      map[model.FeatureID]bool{2: true, 4: true, 6: true},
			Predicate: func(f Feature) bool { return f.FID != 4 },
		},
	}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 2 || res.Features[0].FID != 2 || res.Features[1].FID != 6 {
		t.Fatalf("filters = %+v, want fids [2 6]", res.Features)
	}
}

func TestEmptyProfileQuery(t *testing.T) {
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	res, err := runQuery(p, sch, Request{Slot: 1, Type: 1, Range: CurrentRange(1000)}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 0 || res.SlicesScanned != 0 {
		t.Fatalf("empty profile query = %+v", res)
	}
}

func TestTopKSubsetProperty(t *testing.T) {
	// Property: top-K is a prefix of the full sorted result, and K bounds
	// the result size.
	sch := model.NewSchema("n")
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := model.NewProfile(1)
		p.Lock()
		for i := 0; i < 60; i++ {
			_ = p.Add(sch, model.Millis(1+rng.Intn(50_000)), 1000, 1, 1,
				model.FeatureID(rng.Intn(25)), []int64{rng.Int63n(20)})
		}
		p.Unlock()
		k := int(kRaw%12) + 1
		base := Request{Slot: 1, Type: 1, Range: CurrentRange(60_000), SortBy: ByAction}
		full, err := runQuery(p, sch, base, 55_000)
		if err != nil {
			return false
		}
		base.K = k
		topk, err := runQuery(p, sch, base, 55_000)
		if err != nil {
			return false
		}
		if len(topk.Features) > k {
			return false
		}
		for i := range topk.Features {
			if topk.Features[i].FID != full.Features[i].FID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregationMatchesBruteForceProperty(t *testing.T) {
	// Property: windowed SUM aggregation equals a brute-force recount of
	// the raw events in the window (events are placed at slice granularity
	// so slice membership is deterministic).
	sch := model.NewSchema("n")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := model.NewProfile(1)
		type ev struct {
			ts  model.Millis
			fid model.FeatureID
		}
		var evs []ev
		p.Lock()
		for i := 0; i < 80; i++ {
			e := ev{ts: model.Millis(1 + rng.Intn(100)*1000), fid: model.FeatureID(rng.Intn(10))}
			evs = append(evs, e)
			if err := p.Add(sch, e.ts, 1000, 1, 1, e.fid, []int64{1}); err != nil {
				p.Unlock()
				return false
			}
		}
		p.Unlock()
		from := model.Millis(rng.Intn(50)) * 1000
		to := from + model.Millis(1+rng.Intn(60))*1000
		res, err := runQuery(p, sch, Request{Slot: 1, Type: 1, Range: AbsoluteRange(from, to), SortBy: ByFeatureID}, 0)
		if err != nil {
			return false
		}
		want := map[model.FeatureID]int64{}
		for _, e := range evs {
			// Event lands in slice [align(ts), align(ts)+1000).
			s := e.ts - e.ts%1000
			if s < to && s+1000 > from {
				want[e.fid]++
			}
		}
		if len(res.Features) != len(want) {
			return false
		}
		for _, f := range res.Features {
			if want[f.FID] != f.Counts[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQueryTopK(b *testing.B) {
	sch := model.NewSchema("like", "comment", "share")
	p := model.NewProfile(1)
	rng := rand.New(rand.NewSource(2))
	p.Lock()
	for i := 0; i < 5000; i++ {
		_ = p.Add(sch, model.Millis(1+rng.Intn(3600)*1000), 60_000,
			model.SlotID(rng.Intn(4)), model.TypeID(rng.Intn(4)),
			model.FeatureID(rng.Intn(300)), []int64{1, 0, 1})
	}
	p.Unlock()
	req := Request{Slot: 1, Type: 1, Range: CurrentRange(3_600_000), SortBy: ByAction, Action: "like", K: 20}
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunScratch(p, sch, req, 3_600_000, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecayNonFiniteFactorTakesDefault: the wire carries DecayFactor as a
// raw float64, so a NaN or infinite factor must read as its function's
// default, on the live and the sealed path alike, not zero every count.
func TestDecayNonFiniteFactorTakesDefault(t *testing.T) {
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	for i, ts := range []model.Millis{1500, 3500, 5500, 7500, 9500} {
		_ = p.Add(sch, ts, 1000, 1, 1, model.FeatureID(i+1), []int64{100})
	}
	p.Unlock()
	sealed := Seal(p, sch)
	for _, decay := range []DecayFunc{DecayExp, DecayLinear, DecayStep} {
		base := Request{Slot: 1, Type: 1, Range: CurrentRange(10_000), SortBy: ByFeatureID, Decay: decay}
		want, err := Run(p, sch, base, 10_000, new(Scratch)) // factor 0: the default
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Features) == 0 || want.Features[len(want.Features)-1].Counts[0] == 0 {
			t.Fatalf("decay %d: default factor read %+v", decay, want.Features)
		}
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			req := base
			req.DecayFactor = f
			for name, run := range map[string]func() (Result, error){
				"Run":       func() (Result, error) { return Run(p, sch, req, 10_000, new(Scratch)) },
				"RunSealed": func() (Result, error) { return RunSealed(sealed, req, 10_000, new(Scratch)) },
			} {
				got, err := run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Features, want.Features) {
					t.Errorf("decay %d factor %v %s = %+v, want the default's %+v", decay, f, name, got.Features, want.Features)
				}
			}
		}
	}
}
