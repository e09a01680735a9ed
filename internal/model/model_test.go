package model

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return NewSchema("like", "comment", "share")
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Schema{}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty schema should fail validation")
	}
	dup := NewSchema("a", "a")
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate action names should fail validation")
	}
	empty := NewSchema("a", "")
	if err := empty.Validate(); err == nil {
		t.Fatal("empty action name should fail validation")
	}
	mismatch := &Schema{Actions: []string{"a"}, Reducers: []Reduce{ReduceSum, ReduceMax}}
	if err := mismatch.Validate(); err == nil {
		t.Fatal("reducer length mismatch should fail validation")
	}
}

func TestSchemaActionIndex(t *testing.T) {
	s := testSchema()
	i, err := s.ActionIndex("comment")
	if err != nil || i != 1 {
		t.Fatalf("ActionIndex(comment) = %d, %v", i, err)
	}
	if _, err := s.ActionIndex("nope"); err == nil {
		t.Fatal("unknown action should error")
	}
}

func TestSchemaWithReducer(t *testing.T) {
	s := NewSchema("bid").WithReducer("bid", ReduceLast)
	if s.reducer(0) != ReduceLast {
		t.Fatal("WithReducer did not apply")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WithReducer on unknown action should panic")
		}
	}()
	s.WithReducer("nope", ReduceSum)
}

func TestSchemaClone(t *testing.T) {
	s := testSchema().WithReducer("share", ReduceMax)
	c := s.Clone()
	c.Reducers[0] = ReduceMin
	if s.Reducers[0] == ReduceMin {
		t.Fatal("clone shares reducer storage")
	}
	if c.Reducers[2] != ReduceMax {
		t.Fatal("clone lost reducer setting")
	}
}

func TestReduceApply(t *testing.T) {
	cases := []struct {
		r            Reduce
		older, newer int64
		want         int64
	}{
		{ReduceSum, 2, 3, 5},
		{ReduceMax, 2, 3, 3},
		{ReduceMax, 5, 3, 5},
		{ReduceMin, 2, 3, 2},
		{ReduceMin, 5, 3, 3},
		{ReduceLast, 2, 3, 3},
		{ReduceLast, 5, 1, 1},
	}
	for _, c := range cases {
		if got := c.r.apply(c.older, c.newer); got != c.want {
			t.Errorf("%v.apply(%d, %d) = %d, want %d", c.r, c.older, c.newer, got, c.want)
		}
	}
}

func TestParseReduceRoundTrip(t *testing.T) {
	for _, r := range []Reduce{ReduceSum, ReduceMax, ReduceMin, ReduceLast} {
		got, err := ParseReduce(r.String())
		if err != nil || got != r {
			t.Errorf("ParseReduce(%q) = %v, %v", r.String(), got, err)
		}
	}
	if _, err := ParseReduce("AVG"); err == nil {
		t.Fatal("unknown reduce should error")
	}
	if r, err := ParseReduce(""); err != nil || r != ReduceSum {
		t.Fatal("empty reduce should default to SUM")
	}
}

func TestFeatureStatsMerge(t *testing.T) {
	s := testSchema()
	fs := NewFeatureStats()
	fs.Merge(s, 100, []int64{1, 0, 0})
	fs.Merge(s, 100, []int64{2, 1, 0})
	fs.Merge(s, 200, []int64{0, 0, 5})
	if fs.Len() != 2 {
		t.Fatalf("len = %d, want 2", fs.Len())
	}
	got := fs.Get(100)
	want := []int64{3, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if fs.Get(999) != nil {
		t.Fatal("missing fid should return nil")
	}
}

func TestFeatureStatsMergeReducers(t *testing.T) {
	s := NewSchema("bid", "clicks").WithReducer("bid", ReduceLast)
	fs := NewFeatureStats()
	fs.Merge(s, 1, []int64{100, 1})
	fs.Merge(s, 1, []int64{70, 1})
	got := fs.Get(1)
	if got[0] != 70 {
		t.Fatalf("bid = %d, want 70 (LAST)", got[0])
	}
	if got[1] != 2 {
		t.Fatalf("clicks = %d, want 2 (SUM)", got[1])
	}
}

func TestFeatureStatsDelete(t *testing.T) {
	s := testSchema()
	fs := NewFeatureStats()
	for fid := FeatureID(1); fid <= 5; fid++ {
		fs.Merge(s, fid, []int64{int64(fid), 0, 0})
	}
	if !fs.Delete(3) {
		t.Fatal("delete of present fid should return true")
	}
	if fs.Delete(3) {
		t.Fatal("double delete should return false")
	}
	if fs.Len() != 4 {
		t.Fatalf("len = %d, want 4", fs.Len())
	}
	// Remaining fids still resolvable (swap-delete keeps index coherent).
	for _, fid := range []FeatureID{1, 2, 4, 5} {
		if got := fs.Get(fid); got == nil || got[0] != int64(fid) {
			t.Fatalf("fid %d lookup broken after delete: %v", fid, got)
		}
	}
}

func TestFeatureStatsRetain(t *testing.T) {
	s := testSchema()
	fs := NewFeatureStats()
	for fid := FeatureID(1); fid <= 10; fid++ {
		fs.Merge(s, fid, []int64{int64(fid), 0, 0})
	}
	fs.Retain(func(st FeatureStat) bool { return st.Counts[0] > 5 })
	if fs.Len() != 5 {
		t.Fatalf("len = %d, want 5", fs.Len())
	}
	for fid := FeatureID(6); fid <= 10; fid++ {
		if fs.Get(fid) == nil {
			t.Fatalf("fid %d should survive retain", fid)
		}
	}
	if fs.Get(3) != nil {
		t.Fatal("fid 3 should be dropped")
	}
}

func TestFeatureStatsIndexCoherentProperty(t *testing.T) {
	// Property: after any sequence of merges and deletes, every stat is
	// findable at its position, a set past indexAt has an index, and an
	// index has no stale entries.
	s := NewSchema("n")
	f := func(ops []uint16) bool {
		fs := NewFeatureStats()
		for _, op := range ops {
			fid := FeatureID(op % 50)
			if op%3 == 0 {
				fs.Delete(fid)
			} else {
				fs.Merge(s, fid, []int64{1})
			}
		}
		for i, st := range fs.stats {
			if j, ok := fs.find(st.FID); !ok || j != i {
				return false
			}
		}
		if fs.fidIndex == nil {
			return len(fs.stats) <= indexAt
		}
		if len(fs.fidIndex) != len(fs.stats) {
			return false
		}
		for fid, i := range fs.fidIndex {
			if fs.stats[i].FID != fid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureStatsLookupAcrossIndexAt(t *testing.T) {
	// A set answers the same whether it scans or has built its index:
	// through Merge, Clone, Retain and a marshal round trip, at every
	// size around indexAt.
	s := NewSchema("n")
	check := func(what string, fs *FeatureStats, want map[FeatureID]int64) {
		t.Helper()
		if fs.Len() != len(want) {
			t.Fatalf("%s: %d stats, want %d", what, fs.Len(), len(want))
		}
		for fid := FeatureID(0); fid < 3*indexAt; fid++ {
			got := fs.Get(fid)
			if w, ok := want[fid]; ok != (got != nil) || ok && got[0] != w {
				t.Fatalf("%s: fid %d = %v, want %d (present %v)", what, fid, got, w, ok)
			}
		}
	}
	for n := 0; n <= 2*indexAt+1; n++ {
		fs := NewFeatureStats()
		want := map[FeatureID]int64{}
		for i := 0; i < n; i++ {
			fid := FeatureID((i * 7) % (2*indexAt + 2)) // distinct, out of order
			fs.Merge(s, fid, []int64{int64(i + 1)})
			want[fid] = int64(i + 1)
		}
		check("merge", fs, want)
		check("clone", fs.Clone(), want)

		sl := NewSlice(0, 1000)
		sl.slotOrCreate(3).GetOrCreate(4).MergeAll(s, fs)
		back, err := UnmarshalSlice(MarshalSlice(sl))
		if err != nil {
			t.Fatal(err)
		}
		check("round trip", back.Slot(3).GetOrCreate(4), want)

		fs.Retain(func(st FeatureStat) bool { return st.FID%2 == 0 })
		for fid := range want {
			if fid%2 != 0 {
				delete(want, fid)
			}
		}
		check("retain", fs, want)
	}
}

func TestSliceSlotsAndTypesAscending(t *testing.T) {
	s := NewSchema("n")
	sl := NewSlice(0, 1000)
	for _, k := range []uint32{5, 1, 9, 3, 1, 7} {
		sl.Add(s, 1, k, 10-k, 1, []int64{1})
		sl.Add(s, 1, 2, k, 1, []int64{1})
	}
	var slots []SlotID
	sl.EachSlot(func(id SlotID, _ *InstanceSet) { slots = append(slots, id) })
	if !reflect.DeepEqual(slots, []SlotID{1, 2, 3, 5, 7, 9}) {
		t.Fatalf("slots %v, want ascending", slots)
	}
	var types []TypeID
	sl.Slot(2).Each(func(typ TypeID, _ *FeatureStats) { types = append(types, typ) })
	if !reflect.DeepEqual(types, []TypeID{1, 3, 5, 7, 9}) {
		t.Fatalf("types %v, want ascending", types)
	}
	sl.Slot(2).Delete(5)
	if sl.Slot(2).Get(5) != nil || sl.Slot(2).Len() != 4 || sl.Slot(4) != nil {
		t.Fatal("delete or absent lookup wrong")
	}
}

func TestSliceAddAndMerge(t *testing.T) {
	s := testSchema()
	a := NewSlice(0, 1000)
	a.Add(s, 10, 1, 2, 100, []int64{1, 0, 0})
	a.Add(s, 20, 1, 2, 100, []int64{1, 1, 0})
	b := NewSlice(1000, 2000)
	b.Add(s, 1500, 1, 2, 100, []int64{0, 0, 7})
	b.Add(s, 1600, 3, 4, 200, []int64{9, 0, 0})

	a.MergeFrom(s, b)
	if a.Start != 0 || a.End != 2000 {
		t.Fatalf("merged interval = [%d,%d), want [0,2000)", a.Start, a.End)
	}
	if a.Latest != 1600 {
		t.Fatalf("latest = %d, want 1600", a.Latest)
	}
	got := a.Slot(1).Get(2).Get(100)
	want := []int64{2, 1, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged counts[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if a.Slot(3).Get(4).Get(200)[0] != 9 {
		t.Fatal("merge lost slot 3")
	}
	if a.NumFeatures() != 2 {
		t.Fatalf("NumFeatures = %d, want 2", a.NumFeatures())
	}
}

func TestSliceOverlapsContains(t *testing.T) {
	s := NewSlice(1000, 2000)
	if !s.Contains(1000) || s.Contains(2000) || s.Contains(999) {
		t.Fatal("Contains boundary behaviour wrong")
	}
	if !s.Overlaps(1999, 3000) || s.Overlaps(2000, 3000) || s.Overlaps(0, 1000) {
		t.Fatal("Overlaps boundary behaviour wrong")
	}
	if s.Width() != 1000 {
		t.Fatalf("Width = %d", s.Width())
	}
}

func TestProfileAddPlacement(t *testing.T) {
	sch := testSchema()
	p := NewProfile(1)
	p.Lock()
	defer p.Unlock()
	const w = 1000 // 1s head slices
	// First write creates head.
	mustAdd(t, p, sch, 1500, w)
	if p.NumSlices() != 1 {
		t.Fatalf("slices = %d, want 1", p.NumSlices())
	}
	head := p.Slices()[0]
	if head.Start != 1000 || head.End != 2000 {
		t.Fatalf("head = [%d,%d), want [1000,2000)", head.Start, head.End)
	}
	// Same-window write reuses head.
	mustAdd(t, p, sch, 1900, w)
	if p.NumSlices() != 1 {
		t.Fatalf("slices = %d, want 1", p.NumSlices())
	}
	// Newer write seals head and prepends.
	mustAdd(t, p, sch, 3100, w)
	if p.NumSlices() != 2 {
		t.Fatalf("slices = %d, want 2", p.NumSlices())
	}
	if p.Slices()[0].Start != 3000 {
		t.Fatalf("new head start = %d, want 3000", p.Slices()[0].Start)
	}
	// Older write into existing slice window merges there.
	mustAdd(t, p, sch, 1100, w)
	if p.NumSlices() != 2 {
		t.Fatalf("slices = %d, want 2 (merged into old)", p.NumSlices())
	}
	// Much older write appends at the tail.
	mustAdd(t, p, sch, 500, w)
	if p.NumSlices() != 3 {
		t.Fatalf("slices = %d, want 3", p.NumSlices())
	}
	last := p.Slices()[2]
	if last.Start != 0 || last.End != 1000 {
		t.Fatalf("tail = [%d,%d), want [0,1000)", last.Start, last.End)
	}
	// Write into the gap between slices.
	mustAdd(t, p, sch, 2500, w)
	if p.NumSlices() != 4 {
		t.Fatalf("slices = %d, want 4", p.NumSlices())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.Latest() != 3100 {
		t.Fatalf("Latest = %d, want 3100", p.Latest())
	}
}

func mustAdd(t *testing.T, p *Profile, sch *Schema, ts Millis, w Millis) {
	t.Helper()
	if err := p.Add(sch, ts, w, 1, 1, FeatureID(ts), []int64{1, 0, 0}); err != nil {
		t.Fatalf("Add(ts=%d): %v", ts, err)
	}
}

func TestProfileAddValidation(t *testing.T) {
	sch := testSchema()
	p := NewProfile(1)
	p.Lock()
	defer p.Unlock()
	if err := p.Add(sch, 0, 1000, 1, 1, 1, []int64{1, 0, 0}); err != ErrBadTimestamp {
		t.Fatalf("zero ts err = %v, want ErrBadTimestamp", err)
	}
	if err := p.Add(sch, 100, 1000, 1, 1, 1, []int64{1}); err != ErrBadCounts {
		t.Fatalf("short counts err = %v, want ErrBadCounts", err)
	}
}

func TestProfileInvariantsProperty(t *testing.T) {
	// Property: any sequence of timestamped writes leaves the slice list
	// newest-first and non-overlapping, and the write is queryable.
	sch := NewSchema("n")
	f := func(tss []uint32) bool {
		p := NewProfile(1)
		p.Lock()
		defer p.Unlock()
		for _, raw := range tss {
			ts := Millis(raw%500_000) + 1
			if err := p.Add(sch, ts, 1000, 1, 1, 42, []int64{1}); err != nil {
				return false
			}
		}
		if err := p.CheckInvariants(); err != nil {
			return false
		}
		// Total count across slices must equal number of writes.
		var total int64
		for _, s := range p.Slices() {
			if fsSet := s.Slot(1); fsSet != nil {
				if fs := fsSet.Get(1); fs != nil {
					if c := fs.Get(42); c != nil {
						total += c[0]
					}
				}
			}
		}
		return total == int64(len(tss))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileSlicesInRange(t *testing.T) {
	sch := testSchema()
	p := NewProfile(1)
	p.Lock()
	for _, ts := range []Millis{500, 1500, 2500, 3500} {
		mustAdd(t, p, sch, ts, 1000)
	}
	got := p.SlicesInRange(1000, 3000)
	p.Unlock()
	if len(got) != 2 {
		t.Fatalf("slices in [1000,3000) = %d, want 2", len(got))
	}
	if got[0].Start != 2000 || got[1].Start != 1000 {
		t.Fatalf("range slices misordered: %d, %d", got[0].Start, got[1].Start)
	}
}

func TestProfileMemSizeTracksRecompute(t *testing.T) {
	sch := testSchema()
	p := NewProfile(1)
	p.Lock()
	defer p.Unlock()
	for i := 0; i < 50; i++ {
		mustAdd(t, p, sch, Millis(1000+i*100), 1000)
	}
	cached := p.MemSize()
	recomputed := p.RecomputeMemSize()
	if cached != recomputed {
		t.Fatalf("cached mem %d != recomputed %d", cached, recomputed)
	}
	if cached <= profileBaseSize {
		t.Fatalf("mem size %d suspiciously small", cached)
	}
}

func TestProfileClone(t *testing.T) {
	sch := testSchema()
	p := NewProfile(7)
	p.Lock()
	mustAdd(t, p, sch, 1500, 1000)
	c := p.Clone()
	mustAdd(t, p, sch, 1600, 1000)
	p.Unlock()

	c.RLock()
	defer c.RUnlock()
	fs := c.Slices()[0].Slot(1).Get(1)
	if got := fs.Get(1500)[0]; got != 1 {
		t.Fatalf("clone count = %d, want 1", got)
	}
	if fs.Get(1600) != nil {
		t.Fatal("clone should not see post-clone writes")
	}
}

func TestTableGetOrCreate(t *testing.T) {
	tbl := NewTable("t", testSchema(), 1000)
	p1, created := tbl.GetOrCreate(42)
	if !created || p1 == nil {
		t.Fatal("first GetOrCreate should create")
	}
	p2, created := tbl.GetOrCreate(42)
	if created || p2 != p1 {
		t.Fatal("second GetOrCreate should return the same profile")
	}
	if tbl.Get(99) != nil {
		t.Fatal("Get of absent id should return nil")
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
	if !tbl.Delete(42) || tbl.Delete(42) {
		t.Fatal("Delete semantics wrong")
	}
}

func TestTableAddAndEach(t *testing.T) {
	tbl := NewTable("t", testSchema(), 1000)
	for id := ProfileID(1); id <= 100; id++ {
		if err := tbl.Add(id, 5000, 1, 1, 9, []int64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tbl.Len())
	}
	var seen int
	tbl.Each(func(p *Profile) bool {
		seen++
		return true
	})
	if seen != 100 {
		t.Fatalf("Each visited %d, want 100", seen)
	}
	// Early termination.
	seen = 0
	tbl.Each(func(p *Profile) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("Each early-stop visited %d, want 10", seen)
	}
	if got := len(tbl.IDs()); got != 100 {
		t.Fatalf("IDs len = %d, want 100", got)
	}
	if tbl.MemSize() <= 0 {
		t.Fatal("table MemSize should be positive")
	}
}

func TestTableConcurrentWrites(t *testing.T) {
	tbl := NewTable("t", testSchema(), 1000)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := ProfileID(i % 10)
				ts := Millis(1000 + i)
				if err := tbl.Add(id, ts, 1, 1, 7, []int64{1, 0, 0}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// All writes for fid 7 must be present: total like count == workers*per.
	var total int64
	tbl.Each(func(p *Profile) bool {
		p.RLock()
		for _, s := range p.Slices() {
			if set := s.Slot(1); set != nil {
				if fs := set.Get(1); fs != nil {
					if c := fs.Get(7); c != nil {
						total += c[0]
					}
				}
			}
		}
		p.RUnlock()
		return true
	})
	if total != workers*per {
		t.Fatalf("total = %d, want %d", total, workers*per)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	sch := testSchema()
	p := NewProfile(1234)
	p.Lock()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		ts := Millis(1000 + rng.Intn(100_000))
		slot := SlotID(rng.Intn(5))
		typ := TypeID(rng.Intn(3))
		fid := FeatureID(rng.Intn(50))
		err := p.Add(sch, ts, 1000, slot, typ, fid, []int64{int64(rng.Intn(10)), 1, -3})
		if err != nil {
			t.Fatal(err)
		}
	}
	data := MarshalProfile(p)
	p.Unlock()

	got, err := UnmarshalProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 1234 {
		t.Fatalf("id = %d", got.ID)
	}
	assertProfilesEqual(t, p, got)
	if got.MemSize() != p.MemSize() {
		t.Fatalf("mem size %d != %d after round trip", got.MemSize(), p.MemSize())
	}
}

func assertProfilesEqual(t *testing.T, a, b *Profile) {
	t.Helper()
	if a.NumSlices() != b.NumSlices() {
		t.Fatalf("slice counts differ: %d vs %d", a.NumSlices(), b.NumSlices())
	}
	for i := range a.Slices() {
		sa, sb := a.Slices()[i], b.Slices()[i]
		if sa.Start != sb.Start || sa.End != sb.End || sa.Latest != sb.Latest {
			t.Fatalf("slice %d header differs: [%d,%d,%d] vs [%d,%d,%d]",
				i, sa.Start, sa.End, sa.Latest, sb.Start, sb.End, sb.Latest)
		}
		if sa.NumFeatures() != sb.NumFeatures() {
			t.Fatalf("slice %d feature counts differ", i)
		}
		sa.EachSlot(func(slot SlotID, set *InstanceSet) {
			bset := sb.Slot(slot)
			if bset == nil {
				t.Fatalf("slice %d slot %d missing after round trip", i, slot)
			}
			set.Each(func(typ TypeID, fs *FeatureStats) {
				bfs := bset.Get(typ)
				if bfs == nil {
					t.Fatalf("slice %d slot %d type %d missing", i, slot, typ)
				}
				fs.Each(func(st FeatureStat) {
					bc := bfs.Get(st.FID)
					if bc == nil {
						t.Fatalf("fid %d missing", st.FID)
					}
					for j := range st.Counts {
						if bc[j] != st.Counts[j] {
							t.Fatalf("fid %d counts[%d] = %d, want %d", st.FID, j, bc[j], st.Counts[j])
						}
					}
				})
			})
		})
	}
}

func TestMarshalSliceRoundTrip(t *testing.T) {
	sch := testSchema()
	s := NewSlice(5000, 6000)
	s.Add(sch, 5500, 2, 3, 77, []int64{4, 5, 6})
	s.Add(sch, 5600, 2, 3, 78, []int64{-1, 0, 2})
	got, err := UnmarshalSlice(MarshalSlice(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Start != 5000 || got.End != 6000 || got.Latest != 5600 {
		t.Fatalf("header = [%d,%d,%d]", got.Start, got.End, got.Latest)
	}
	c := got.Slot(2).Get(3).Get(77)
	if c[0] != 4 || c[1] != 5 || c[2] != 6 {
		t.Fatalf("counts = %v", c)
	}
	if got.Slot(2).Get(3).Get(78)[0] != -1 {
		t.Fatal("negative count lost")
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	if _, err := UnmarshalProfile([]byte{0xff, 0xff}); err == nil {
		t.Fatal("corrupt profile should error")
	}
	if _, err := UnmarshalSlice([]byte{0x0a, 0xff}); err == nil {
		t.Fatal("corrupt slice should error")
	}
}

func TestUnmarshalNeverPanicsProperty(t *testing.T) {
	f := func(junk []byte) bool {
		_, _ = UnmarshalProfile(junk)
		_, _ = UnmarshalSlice(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	sch := NewSchema("a", "b")
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProfile(uint64(seed))
		p.Lock()
		for i := 0; i < int(n); i++ {
			ts := Millis(1 + rng.Intn(1_000_000))
			if err := p.Add(sch, ts, 777, SlotID(rng.Intn(3)), TypeID(rng.Intn(3)),
				FeatureID(rng.Intn(20)), []int64{rng.Int63n(100) - 50, 1}); err != nil {
				p.Unlock()
				return false
			}
		}
		data := MarshalProfile(p)
		gen := p.Generation
		p.Unlock()
		got, err := UnmarshalProfile(data)
		if err != nil {
			return false
		}
		return got.Generation == gen && got.NumSlices() == p.NumSlices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTableAdd(b *testing.B) {
	tbl := NewTable("t", testSchema(), 1000)
	counts := []int64{1, 0, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := ProfileID(i % 1000)
		_ = tbl.Add(id, Millis(1000+i), 1, 1, FeatureID(i%100), counts)
	}
}

func BenchmarkMarshalProfile(b *testing.B) {
	sch := testSchema()
	p := NewProfile(1)
	p.Lock()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		_ = p.Add(sch, Millis(1000+rng.Intn(3_600_000)), 60_000,
			SlotID(rng.Intn(8)), TypeID(rng.Intn(4)), FeatureID(rng.Intn(500)),
			[]int64{1, 2, 3})
	}
	p.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MarshalProfile(p)
	}
}

// TestDecodedListsAreCapped: every list a decoded part holds is capped at
// its length, so an append to it reallocates rather than writing into the
// next part carved from the same arena. This pins the count vectors too,
// which no mutator appends to today.
func TestDecodedListsAreCapped(t *testing.T) {
	sch := testSchema()
	p := NewProfile(1)
	p.Lock()
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 300; i++ {
		_ = p.Add(sch, Millis(1000+rng.Intn(20_000)), 1000, SlotID(rng.Intn(3)), TypeID(rng.Intn(3)),
			FeatureID(rng.Intn(40)), []int64{1, 2, 3})
	}
	data := MarshalProfile(p)
	p.Unlock()
	got, err := UnmarshalProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got.slices {
		if cap(s.slots) != len(s.slots) {
			t.Fatalf("slice slots: cap %d, len %d", cap(s.slots), len(s.slots))
		}
		for _, se := range s.slots {
			if cap(se.set.types) != len(se.set.types) {
				t.Fatalf("slot %d types: cap %d, len %d", se.slot, cap(se.set.types), len(se.set.types))
			}
			for _, te := range se.set.types {
				if cap(te.fs.stats) != len(te.fs.stats) {
					t.Fatalf("type %d stats: cap %d, len %d", te.typ, cap(te.fs.stats), len(te.fs.stats))
				}
				for _, st := range te.fs.stats {
					if cap(st.Counts) != len(st.Counts) {
						t.Fatalf("fid %d counts: cap %d, len %d", st.FID, cap(st.Counts), len(st.Counts))
					}
				}
			}
		}
	}
}
