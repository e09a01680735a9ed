package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/snap"
)

func buildProfile(t testing.TB, id model.ProfileID, writes int) (*model.Profile, *model.Schema) {
	t.Helper()
	sch := model.NewSchema("like", "comment", "share")
	p := model.NewProfile(id)
	rng := rand.New(rand.NewSource(int64(id) + 1))
	p.Lock()
	for i := 0; i < writes; i++ {
		ts := model.Millis(1000 + rng.Intn(3_600_000))
		err := p.Add(sch, ts, 60_000, model.SlotID(rng.Intn(4)), model.TypeID(rng.Intn(3)),
			model.FeatureID(rng.Intn(200)), []int64{1, int64(rng.Intn(3)), 0})
		if err != nil {
			t.Fatal(err)
		}
	}
	p.Unlock()
	return p, sch
}

func countFor(p *model.Profile, slot model.SlotID, typ model.TypeID, fid model.FeatureID) int64 {
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

func assertSameContent(t *testing.T, a, b *model.Profile) {
	t.Helper()
	if a.NumSlices() != b.NumSlices() {
		t.Fatalf("slices %d != %d", a.NumSlices(), b.NumSlices())
	}
	if a.NumFeatures() != b.NumFeatures() {
		t.Fatalf("features %d != %d", a.NumFeatures(), b.NumFeatures())
	}
	for slot := model.SlotID(0); slot < 4; slot++ {
		for typ := model.TypeID(0); typ < 3; typ++ {
			for fid := model.FeatureID(0); fid < 200; fid++ {
				if x, y := countFor(a, slot, typ, fid), countFor(b, slot, typ, fid); x != y {
					t.Fatalf("count(%d,%d,%d) %d != %d", slot, typ, fid, x, y)
				}
			}
		}
	}
}

func TestBulkRoundTrip(t *testing.T) {
	store := kv.NewMemory()
	ps := New(store, "tbl")
	p, _ := buildProfile(t, 42, 300)

	p.RLock()
	n, err := ps.Save(p)
	p.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("saved size should be positive")
	}
	got, err := ps.Load(42)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 {
		t.Fatalf("id = %d", got.ID)
	}
	assertSameContent(t, p, got)
}

func TestLoadMissing(t *testing.T) {
	ps := New(kv.NewMemory(), "tbl")
	if _, err := ps.Load(9); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestCompressionShrinksValue(t *testing.T) {
	store := kv.NewMemory()
	p, _ := buildProfile(t, 1, 2000)

	psC := New(store, "c")
	p.RLock()
	nc, err := psC.Save(p)
	p.RUnlock()
	if err != nil {
		t.Fatal(err)
	}

	psR := New(store, "r")
	psR.Compress = false
	p.RLock()
	nr, err := psR.Save(p)
	p.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if nc >= nr {
		t.Fatalf("compressed %d >= raw %d", nc, nr)
	}
	// Both load identically.
	a, err := psC.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := psR.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameContent(t, a, b)
}

func TestFineGrainedRoundTrip(t *testing.T) {
	store := kv.NewMemory()
	ps := New(store, "tbl")
	ps.Mode = FineGrained
	p, _ := buildProfile(t, 7, 500)

	p.RLock()
	if _, err := ps.Save(p); err != nil {
		t.Fatal(err)
	}
	p.RUnlock()

	// No bulk key; meta + slice keys present.
	if _, err := store.Get("tbl/p/7"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatal("fine-grained save must not write the bulk key")
	}
	var fine int
	for _, k := range store.Keys() {
		if ps.KeyIsFineGrained(k) {
			fine++
		}
	}
	p.RLock()
	wantKeys := p.NumSlices() + 1
	p.RUnlock()
	if fine != wantKeys {
		t.Fatalf("fine-grained keys = %d, want %d (slices + meta)", fine, wantKeys)
	}

	got, err := ps.Load(7)
	if err != nil {
		t.Fatal(err)
	}
	assertSameContent(t, p, got)
	if got.Generation != p.Generation {
		t.Fatalf("generation %d != %d", got.Generation, p.Generation)
	}
}

func TestAutoSplitOnThreshold(t *testing.T) {
	store := kv.NewMemory()
	ps := New(store, "tbl")
	ps.SplitThreshold = 512 // tiny, forces split
	p, _ := buildProfile(t, 3, 1000)
	p.RLock()
	if _, err := ps.Save(p); err != nil {
		t.Fatal(err)
	}
	p.RUnlock()
	if _, err := store.Get("tbl/p/3"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatal("oversized profile should be stored fine-grained")
	}
	got, err := ps.Load(3)
	if err != nil {
		t.Fatal(err)
	}
	assertSameContent(t, p, got)
}

func TestFineGrainedConcurrentFlushConflict(t *testing.T) {
	// Fig. 14: a flusher holding a stale meta version must get
	// ErrStaleVersion rather than clobbering a newer flush.
	store := kv.NewMemory()
	ps := New(store, "tbl")
	ps.Mode = FineGrained
	p, _ := buildProfile(t, 5, 100)

	p.RLock()
	if _, err := ps.Save(p); err != nil {
		t.Fatal(err)
	}
	p.RUnlock()

	// Simulate a racing flusher bumping the meta version under us.
	_, cur, err := store.XGet("tbl/m/5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.XSet("tbl/m/5", []byte{0}, cur); err != nil {
		t.Fatal(err)
	}

	// A Save built against the stale version must fail... except Save
	// rereads the current version, so this Save succeeds. Instead verify
	// the protocol primitive: writing with the old version fails.
	if _, err := store.XSet("tbl/m/5", []byte{1}, cur); !errors.Is(err, kv.ErrStaleVersion) {
		t.Fatalf("stale XSet err = %v, want ErrStaleVersion", err)
	}
}

func TestFineGrainedMissingSliceSkipped(t *testing.T) {
	// A torn write leaves a meta row pointing at a slice value that was
	// never written; load must skip it, not fail (§III-G availability).
	store := kv.NewMemory()
	ps := New(store, "tbl")
	ps.Mode = FineGrained
	p, _ := buildProfile(t, 11, 300)
	p.RLock()
	if _, err := ps.Save(p); err != nil {
		t.Fatal(err)
	}
	nSlices := p.NumSlices()
	p.RUnlock()
	if nSlices < 2 {
		t.Skip("need multiple slices")
	}
	// Delete one slice value behind the meta's back.
	var deleted bool
	for _, k := range store.Keys() {
		if strings.HasPrefix(k, "tbl/s/") {
			_ = store.Delete(k)
			deleted = true
			break
		}
	}
	if !deleted {
		t.Fatal("no slice key found")
	}
	got, err := ps.Load(11)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSlices() != nSlices-1 {
		t.Fatalf("loaded %d slices, want %d (one skipped)", got.NumSlices(), nSlices-1)
	}
}

func TestDeleteRemovesEverything(t *testing.T) {
	store := kv.NewMemory()
	ps := New(store, "tbl")
	ps.Mode = FineGrained
	p, _ := buildProfile(t, 13, 200)
	p.RLock()
	if _, err := ps.Save(p); err != nil {
		t.Fatal(err)
	}
	p.RUnlock()
	if err := ps.Delete(13); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("%d keys remain after delete: %v", store.Len(), store.Keys())
	}
	// Deleting an unknown profile is fine.
	if err := ps.Delete(999); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteBulk(t *testing.T) {
	store := kv.NewMemory()
	ps := New(store, "tbl")
	p, _ := buildProfile(t, 21, 50)
	p.RLock()
	if _, err := ps.Save(p); err != nil {
		t.Fatal(err)
	}
	p.RUnlock()
	if err := ps.Delete(21); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatal("bulk delete incomplete")
	}
}

func TestSavedSize(t *testing.T) {
	store := kv.NewMemory()
	ps := New(store, "tbl")
	p, _ := buildProfile(t, 31, 400)
	p.RLock()
	n, err := ps.Save(p)
	p.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ps.SavedSize(31)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("SavedSize = %d, want %d", got, n)
	}
	ps2 := New(store, "fg")
	ps2.Mode = FineGrained
	p.RLock()
	n2, err := ps2.Save(p)
	p.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ps2.SavedSize(31)
	if err != nil {
		t.Fatal(err)
	}
	// SavedSize excludes the meta value's own bytes? No: Save counts the
	// meta too. SavedSize counts only slice values, so allow meta delta.
	if got2 > n2 || got2 <= 0 {
		t.Fatalf("fine SavedSize = %d, save reported %d", got2, n2)
	}
}

func TestPaperProfileSizeClaim(t *testing.T) {
	// §III-E: "a single user's profile usually takes less than 40KB in
	// space after serialization and compression". Build a profile at the
	// paper's production shape (~62 slices, ~730B/slice in memory) and
	// check the persisted value lands well under 40KB.
	store := kv.NewMemory()
	ps := New(store, "tbl")
	sch := model.NewSchema("like", "comment", "share")
	p := model.NewProfile(99)
	rng := rand.New(rand.NewSource(3))
	p.Lock()
	// 62 slices of ~6 features each ≈ paper's average shape.
	for s := 0; s < 62; s++ {
		base := model.Millis(1000 + s*3_600_000)
		for f := 0; f < 6; f++ {
			_ = p.Add(sch, base+model.Millis(f), 3_600_000,
				model.SlotID(rng.Intn(4)), model.TypeID(rng.Intn(2)),
				model.FeatureID(rng.Intn(100_000)), []int64{1, 0, 1})
		}
	}
	nSlices := p.NumSlices()
	p.Unlock()
	if nSlices != 62 {
		t.Fatalf("setup: %d slices, want 62", nSlices)
	}
	p.RLock()
	n, err := ps.Save(p)
	p.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if n >= 40<<10 {
		t.Fatalf("persisted profile = %d bytes, paper says <40KB", n)
	}
}

func BenchmarkSaveBulk(b *testing.B) {
	store := kv.NewMemory()
	ps := New(store, "tbl")
	p, _ := buildProfile(b, 1, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RLock()
		if _, err := ps.Save(p); err != nil {
			b.Fatal(err)
		}
		p.RUnlock()
	}
}

func BenchmarkSaveFineGrained(b *testing.B) {
	store := kv.NewMemory()
	ps := New(store, "tbl")
	ps.Mode = FineGrained
	p, _ := buildProfile(b, 1, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RLock()
		if _, err := ps.Save(p); err != nil {
			b.Fatal(err)
		}
		p.RUnlock()
	}
}

func BenchmarkLoad(b *testing.B) {
	store := kv.NewMemory()
	ps := New(store, "tbl")
	p, _ := buildProfile(b, 1, 1000)
	p.RLock()
	_, _ = ps.Save(p)
	p.RUnlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.Load(1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSplitAfterGrowthLoadsGrownState pins the switch from bulk to
// fine-grained: a profile saved in bulk, then grown past SplitThreshold
// and saved again, must load in its grown state. Load reads the bulk key
// first, so a bulk value the fine-grained save left behind would serve
// the old state — after a crash the journal has already retired the
// records the fine-grained save covered, and those writes are lost.
func TestSplitAfterGrowthLoadsGrownState(t *testing.T) {
	store := kv.NewMemory()
	ps := New(store, "tbl")
	ps.SplitThreshold = 2048
	p, sch := buildProfile(t, 5, 20)
	p.RLock()
	if _, err := ps.Save(p); err != nil {
		t.Fatal(err)
	}
	p.RUnlock()
	if _, err := store.Get("tbl/p/5"); err != nil {
		t.Fatalf("small profile should be stored in bulk: %v", err)
	}

	p.Lock()
	for fid := model.FeatureID(0); fid < 200; fid++ {
		if err := p.Add(sch, 2000, 60_000, 1, 1, fid, []int64{1, 1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	p.WalLSN = 99
	if n := len(model.MarshalProfile(p)); n <= ps.SplitThreshold {
		t.Fatalf("grown profile encodes to %dB, want past the %dB threshold", n, ps.SplitThreshold)
	}
	p.Unlock()
	p.RLock()
	if _, err := ps.Save(p); err != nil {
		t.Fatal(err)
	}
	p.RUnlock()
	if _, err := store.Get("tbl/p/5"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("fine-grained save left the bulk value in place (err %v)", err)
	}

	got, err := ps.Load(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != p.Generation || got.WalLSN != 99 {
		t.Fatalf("loaded generation %d wal %d, want %d and 99", got.Generation, got.WalLSN, p.Generation)
	}
	assertSameContent(t, p, got)
}

// TestLoadKeepsCompressedBlob pins what Load hands the cache: a
// compressed bulk value keeps the blob it was decoded from — the exact
// bytes a fresh encoding would produce, charged to MemSize — while
// uncompressed and fine-grained values keep none.
func TestLoadKeepsCompressedBlob(t *testing.T) {
	p, _ := buildProfile(t, 8, 300)
	want := snap.Encode(nil, model.MarshalProfile(p))
	cases := []struct {
		name     string
		compress bool
		mode     Mode
		keep     bool
	}{
		{"compressed bulk", true, Bulk, true},
		{"uncompressed bulk", false, Bulk, false},
		{"fine-grained", true, FineGrained, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ps := New(kv.NewMemory(), "tbl")
			ps.Compress, ps.Mode = c.compress, c.mode
			p.RLock()
			if _, err := ps.Save(p); err != nil {
				t.Fatal(err)
			}
			p.RUnlock()
			got, err := ps.Load(8)
			if err != nil {
				t.Fatal(err)
			}
			blob := got.Blob()
			if !c.keep {
				if blob != nil {
					t.Fatalf("kept a %dB blob, want none", len(blob))
				}
				return
			}
			if !bytes.Equal(blob, want) {
				t.Fatalf("kept blob (%dB) differs from a fresh encoding (%dB)", len(blob), len(want))
			}
			if got.MemSize() != p.MemSize()+int64(len(blob)) {
				t.Fatalf("MemSize %d, want decoded %d + blob %d", got.MemSize(), p.MemSize(), len(blob))
			}
		})
	}
}
