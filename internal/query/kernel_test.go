package query

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ips/internal/model"
)

// reference is the kernel's specification written the naive way: a map
// of count vectors, one sort.Slice, no scratch. Only the decay weights
// are shared with the kernel.
func reference(p *model.Profile, sch *model.Schema, req Request, now model.Millis) ([]Feature, int, error) {
	from, to, err := req.Range.Resolve(now, p.Latest())
	if err != nil {
		return nil, 0, err
	}
	action := 0
	if req.SortBy == ByAction && req.Action != "" {
		if action, err = sch.ActionIndex(req.Action); err != nil {
			return nil, 0, err
		}
	}
	if req.SortBy == ByUDAF && req.UDAF == nil {
		return nil, 0, errUDAFRequired
	}
	counts := map[model.FeatureID][]int64{}
	last := map[model.FeatureID]model.Millis{}
	add := func(fs *model.FeatureStats, w float64, end model.Millis) {
		for _, st := range fs.Stats() {
			c := counts[st.FID]
			if c == nil {
				c = make([]int64, sch.NumActions())
				counts[st.FID] = c
			}
			for i := 0; i < len(c) && i < len(st.Counts); i++ {
				v := st.Counts[i]
				if w != 1 {
					v = int64(math.Round(float64(v) * w))
				}
				switch sch.Reducers[i] {
				case model.ReduceMax:
					c[i] = max(c[i], v)
				case model.ReduceMin:
					c[i] = min(c[i], v)
				case model.ReduceLast:
					if c[i] == 0 {
						c[i] = v
					}
				default:
					c[i] += v
				}
			}
			last[st.FID] = max(last[st.FID], end)
		}
	}
	scanned := 0
	for _, s := range p.Slices() {
		if !s.Overlaps(from, to) {
			continue
		}
		scanned++
		set := s.Slot(req.Slot)
		w := decayWeight(req, s, from, to)
		if set == nil || w == 0 {
			continue
		}
		if req.AllTypes {
			set.Each(func(_ model.TypeID, fs *model.FeatureStats) { add(fs, w, s.End) })
		} else if fs := set.Get(req.Type); fs != nil {
			add(fs, w, s.End)
		}
	}

	var out []Feature
	for fid, c := range counts {
		f := Feature{FID: fid, Counts: c, LastSeen: last[fid]}
		if req.UDAF != nil {
			if f.Score = req.UDAF(c); f.Score < req.MinScore {
				continue
			}
		}
		if flt := req.Filter; flt != nil {
			i := action
			if i >= len(c) {
				i = 0
			}
			if flt.MinCount > 0 && c[i] < flt.MinCount {
				continue
			}
			if flt.FIDs != nil && !flt.FIDs[fid] {
				continue
			}
			if flt.Predicate != nil && !flt.Predicate(f) {
				continue
			}
		}
		out = append(out, f)
	}
	total := func(c []int64) (t int64) {
		for _, x := range c {
			t += x
		}
		return t
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch req.SortBy {
		case ByTimestamp:
			if a.LastSeen != b.LastSeen {
				return a.LastSeen > b.LastSeen
			}
		case ByFeatureID:
		case ByTotal:
			if x, y := total(a.Counts), total(b.Counts); x != y {
				return x > y
			}
		case ByUDAF:
			if a.Score != b.Score {
				return a.Score > b.Score
			}
		default:
			if a.Counts[action] != b.Counts[action] {
				return a.Counts[action] > b.Counts[action]
			}
		}
		return a.FID < b.FID
	})
	if req.K > 0 && len(out) > req.K {
		out = out[:req.K]
	}
	return out, scanned, nil
}

// sameFeatures reports whether two results agree row for row: FID,
// counts, LastSeen, Score and order.
func sameFeatures(got, want []Feature) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.FID != w.FID || g.LastSeen != w.LastSeen || g.Score != w.Score || len(g.Counts) != len(w.Counts) {
			return false
		}
		for j := range g.Counts {
			if g.Counts[j] != w.Counts[j] {
				return false
			}
		}
	}
	return true
}

// randomSchema draws a schema of one to three actions; some carry MAX,
// MIN or LAST reducers.
func randomSchema(rng *rand.Rand) *model.Schema {
	names := []string{"like", "comment", "share"}[:1+rng.Intn(3)]
	sch := model.NewSchema(names...)
	for _, n := range names {
		switch rng.Intn(6) {
		case 0:
			sch.WithReducer(n, model.ReduceMax)
		case 1:
			sch.WithReducer(n, model.ReduceMin)
		case 2:
			sch.WithReducer(n, model.ReduceLast)
		}
	}
	return sch
}

// randomProfile fills a profile with up to 300 entries over 2 slots and 3
// types. Under a LAST reducer the merge order decides the answer, and the
// types inside one slice merge in map order, so each type then gets its
// own fids.
func randomProfile(rng *rand.Rand, sch *model.Schema) *model.Profile {
	disjoint := false
	for _, r := range sch.Reducers {
		disjoint = disjoint || r == model.ReduceLast
	}
	head := []model.Millis{1000, 60_000}[rng.Intn(2)]
	fids := 1 + rng.Intn(60)
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	for i, n := 0, rng.Intn(300); i < n; i++ {
		typ := model.TypeID(rng.Intn(3))
		fid := model.FeatureID(1 + rng.Intn(fids))
		if disjoint {
			fid += model.FeatureID(typ) * 1000
		}
		c := make([]int64, sch.NumActions())
		for j := range c {
			c[j] = rng.Int63n(12) - 2
		}
		if err := p.Add(sch, model.Millis(1+rng.Intn(2_000_000)), head, model.SlotID(rng.Intn(2)), typ, fid, c); err != nil {
			panic(err)
		}
	}
	return p
}

// randomRequest draws a request over every sort, decay, filter and range
// kind, including invalid ones the kernel must reject like the reference.
func randomRequest(rng *rand.Rand, sch *model.Schema) Request {
	req := Request{
		Slot:     model.SlotID(rng.Intn(3)),
		Type:     model.TypeID(rng.Intn(3)),
		AllTypes: rng.Intn(2) == 0,
		SortBy:   SortBy(rng.Intn(6)),
		Decay:    DecayFunc(rng.Intn(4)),
	}
	req.DecayFactor = []float64{0, 0.3, 0.5, 0.98, 1.5}[rng.Intn(5)]
	switch rng.Intn(8) {
	case 0:
		req.Range = RelativeRange(model.Millis(rng.Intn(1_000_000)))
	case 1:
		from := model.Millis(rng.Intn(2_000_000))
		req.Range = AbsoluteRange(from, from+model.Millis(rng.Intn(1_000_000)))
	default:
		req.Range = CurrentRange(model.Millis(rng.Intn(2_500_000)))
	}
	if rng.Intn(3) > 0 {
		req.Action = sch.Actions[rng.Intn(len(sch.Actions))]
	}
	if rng.Intn(3) == 0 || (req.SortBy == ByUDAF && rng.Intn(8) > 0) {
		ws := make([]float64, sch.NumActions())
		for i := range ws {
			ws[i] = float64(rng.Intn(7)-2) / 2
		}
		req.UDAF = WeightedSum(ws...)
		req.MinScore = float64(rng.Intn(12) - 4)
	}
	if rng.Intn(2) == 0 {
		f := &Filter{MinCount: int64(rng.Intn(6))}
		if rng.Intn(3) == 0 {
			f.FIDs = map[model.FeatureID]bool{}
			for i := 0; i < 20; i++ {
				f.FIDs[model.FeatureID(rng.Intn(60))] = true
			}
		}
		if rng.Intn(3) == 0 {
			f.Predicate = func(f Feature) bool { return f.FID%3 != 0 || f.Counts[0]%2 == 0 }
		}
		req.Filter = f
	}
	return req
}

// TestKernelMatchesReferenceQuick is the kernel's differential test:
// over random schemas, profiles and requests, RunScratch and
// RunSealedScratch — each on one scratch reused across every case —
// return exactly the naive reference's answer for K in {0, 1, n/2, >n}.
func TestKernelMatchesReferenceQuick(t *testing.T) {
	var locked, sealed Scratch
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sch := randomSchema(rng)
		p := randomProfile(rng, sch)
		now := model.Millis(1_000_000 + rng.Intn(1_500_000))
		for q := 0; q < 4; q++ {
			req := randomRequest(rng, sch)
			full, _, _ := reference(p, sch, req, now)
			n := len(full)
			for _, k := range []int{0, 1, n / 2, n + 3} {
				req.K = k
				want, scanned, wantErr := reference(p, sch, req, now)
				for _, run := range []func() (Result, error){
					func() (Result, error) { return RunScratch(p, sch, req, now, &locked) },
					func() (Result, error) { return RunSealedScratch(p, sch, req, now, &sealed) },
				} {
					got, gotErr := run()
					if (gotErr != nil) != (wantErr != nil) {
						t.Logf("seed %d req %+v: err %v, reference %v", seed, req, gotErr, wantErr)
						return false
					}
					if wantErr != nil {
						continue
					}
					if got.SlicesScanned != scanned || !sameFeatures(got.Features, want) {
						t.Logf("seed %d req %+v k=%d:\n got  %+v (scanned %d)\n want %+v (scanned %d)",
							seed, req, k, got.Features, got.SlicesScanned, want, scanned)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelGrowsPastPresize: a window with more distinct fids than the
// presize cap grows the fid table by rehash mid-run — and the fids of the
// older slice must still find the rows the newer one created — and still
// matches the reference.
func TestKernelGrowsPastPresize(t *testing.T) {
	sch := model.NewSchema("like", "share")
	p := model.NewProfile(1)
	p.Lock()
	for fid := model.FeatureID(1); fid <= maxPresize+5000; fid++ {
		for _, ts := range []model.Millis{5000, 3000} {
			if err := p.Add(sch, ts, 1000, 1, model.TypeID(fid%2), fid*7919, []int64{int64(fid % 97), ts / 1000}); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Unlock()
	var sc Scratch
	for _, req := range []Request{
		{Slot: 1, AllTypes: true, Range: CurrentRange(10_000), SortBy: ByAction, K: 25},
		{Slot: 1, Type: 1, Range: CurrentRange(10_000), SortBy: ByFeatureID},
	} {
		got, err := RunScratch(p, sch, req, 6000, &sc)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := reference(p, sch, req, 6000)
		if !sameFeatures(got.Features, want) {
			t.Fatalf("%+v: kernel and reference differ (%d vs %d rows)", req, len(got.Features), len(want))
		}
	}
}

// scanProfile builds the scan_read shape: n distinct features over one
// slot and two types, spread across 30 days in 66 slices.
func scanProfile(n int) (*model.Profile, *model.Schema, model.Millis) {
	const day = model.Millis(24 * 3600 * 1000)
	sch := model.NewSchema("like", "comment", "share")
	now := 400 * day
	rng := rand.New(rand.NewSource(11))
	p := model.NewProfile(1)
	p.Lock()
	defer p.Unlock()
	for i := 0; i < n; i++ {
		v := rng.Uint64()
		c := []int64{1 + int64(v%3), int64(v >> 8 % 2), int64(v >> 16 % 8 / 7)}
		ts := now - 1 - model.Millis(rng.Int63n(int64(30*day)))
		if err := p.Add(sch, ts, 30*day/66, 0, model.TypeID(i%2), 1+rng.Uint64()>>24, c); err != nil {
			panic(err)
		}
	}
	return p, sch, now
}

// scanRequest is the scan_read read: all types, 30 days, exp decay, K=50.
var scanRequest = Request{
	Slot: 0, AllTypes: true, Range: CurrentRange(30 * 24 * 3600 * 1000),
	SortBy: ByAction, Action: "like", K: 50, Decay: DecayExp, DecayFactor: 0.98,
}

// TestKernelAllocFree pins warmed RunScratch and RunSealedScratch at zero
// allocations on the scan shape and on the point shape.
func TestKernelAllocFree(t *testing.T) {
	scan, sch, now := scanProfile(2000)
	point := Request{Slot: 0, Type: 1, Range: CurrentRange(7 * 24 * 3600 * 1000), SortBy: ByAction, Action: "share", K: 20,
		Filter: &Filter{MinCount: 1}}
	for _, tc := range []struct {
		name string
		req  Request
	}{{"scan", scanRequest}, {"point", point}} {
		var sc Scratch
		for name, run := range map[string]func() error{
			"RunScratch": func() error {
				_, err := RunScratch(scan, sch, tc.req, now, &sc)
				return err
			},
			"RunSealedScratch": func() error {
				_, err := RunSealedScratch(scan, sch, tc.req, now, &sc)
				return err
			},
		} {
			for i := 0; i < 3; i++ {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(50, func() { _ = run() }); allocs != 0 {
				t.Errorf("%s %s: %.2f allocs/run, want 0", tc.name, name, allocs)
			}
		}
	}
}

// BenchmarkScanKernel is the scan_read kernel alone: 10,000 distinct
// features in 66 slices, all types, exp decay, K=50, on a warmed scratch.
func BenchmarkScanKernel(b *testing.B) {
	p, sch, now := scanProfile(10_000)
	var sc Scratch
	if _, err := RunSealedScratch(p, sch, scanRequest, now, &sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSealedScratch(p, sch, scanRequest, now, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWeightedMatchesRound: the kernel's rounding of decayed counts is
// math.Round's, halves included.
func TestWeightedMatchesRound(t *testing.T) {
	f := func(c int64, w float64) bool {
		c >>= 12
		w = math.Abs(math.Mod(w, 1))
		return weighted(c, w) == int64(math.Round(float64(c)*w))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100_000}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []int64{-7, -5, -3, -1, 1, 3, 5, 7} {
		for _, w := range []float64{0, 0.25, 0.5, 0.75, 1} {
			if got, want := weighted(c, w), int64(math.Round(float64(c)*w)); got != want {
				t.Fatalf("weighted(%d, %v) = %d, want %d", c, w, got, want)
			}
		}
	}
}

// TestScoreKeyOrder: score keys order like the scores, and -0 ties +0.
func TestScoreKeyOrder(t *testing.T) {
	if scoreKey(math.Copysign(0, -1)) != scoreKey(0) {
		t.Fatal("-0 and +0 must tie")
	}
	f := func(a, b float64) bool { return (a < b) == (scoreKey(a) < scoreKey(b)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	vals := []float64{math.Inf(-1), -1e300, -2, -0.5, -1e-300, 0, 1e-300, 0.5, 2, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if scoreKey(vals[i-1]) >= scoreKey(vals[i]) {
			t.Fatalf("scoreKey(%v) >= scoreKey(%v)", vals[i-1], vals[i])
		}
	}
}
