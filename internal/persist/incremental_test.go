package persist

import (
	"sync/atomic"
	"testing"

	"ips/internal/kv"
	"ips/internal/model"
)

// countingStore wraps Memory to count Set calls.
func countingStore() (*kv.Memory, *atomic.Int64) {
	store := kv.NewMemory()
	var sets atomic.Int64
	store.BeforeOp = func(op, key string) {
		if op == "set" {
			sets.Add(1)
		}
	}
	return store, &sets
}

func TestIncrementalSkipsUnchangedSlices(t *testing.T) {
	store, sets := countingStore()
	ps := New(store, "tbl")
	ps.Mode = FineGrained
	sch := model.NewSchema("n")

	p := model.NewProfile(1)
	p.Lock()
	// 20 distinct slices.
	for i := 0; i < 20; i++ {
		_ = p.Add(sch, model.Millis(1000+i*1000), 1000, 1, 1, 7, []int64{1})
	}
	p.Unlock()

	p.RLock()
	if _, err := ps.Save(p); err != nil {
		t.Fatal(err)
	}
	p.RUnlock()
	first := sets.Load() // 20 slices (meta uses xset, not counted)

	// Mutate only the head slice.
	p.Lock()
	_ = p.Add(sch, 20_500, 1000, 1, 1, 8, []int64{1})
	p.Unlock()

	p.RLock()
	if _, err := ps.Save(p); err != nil {
		t.Fatal(err)
	}
	p.RUnlock()
	second := sets.Load() - first
	if second != 1 {
		t.Fatalf("second save wrote %d slice values, want 1 (only the head changed)", second)
	}

	// Loading still reconstructs everything.
	got, err := ps.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSlices() != 20 {
		t.Fatalf("loaded %d slices, want 20", got.NumSlices())
	}
}

func TestIncrementalDisabledWritesAll(t *testing.T) {
	store, sets := countingStore()
	ps := New(store, "tbl")
	ps.Mode = FineGrained
	ps.Incremental = false
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	for i := 0; i < 10; i++ {
		_ = p.Add(sch, model.Millis(1000+i*1000), 1000, 1, 1, 7, []int64{1})
	}
	p.Unlock()
	p.RLock()
	_, _ = ps.Save(p)
	_, _ = ps.Save(p)
	p.RUnlock()
	if got := sets.Load(); got != 20 {
		t.Fatalf("non-incremental saves wrote %d slice values, want 20", got)
	}
}

func TestIncrementalFingerprintsDropWithSlices(t *testing.T) {
	store, _ := countingStore()
	ps := New(store, "tbl")
	ps.Mode = FineGrained
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	for i := 0; i < 10; i++ {
		_ = p.Add(sch, model.Millis(1000+i*1000), 1000, 1, 1, 7, []int64{1})
	}
	p.Unlock()
	p.RLock()
	_, _ = ps.Save(p)
	p.RUnlock()
	// Truncate to 3 slices and save again: fingerprints shrink with it.
	p.Lock()
	p.ReplaceSlices(append([]*model.Slice(nil), p.Slices()[:3]...))
	p.Unlock()
	p.RLock()
	_, _ = ps.Save(p)
	p.RUnlock()
	ps.mu.Lock()
	n := len(ps.saved[1])
	ps.mu.Unlock()
	if n != 3 {
		t.Fatalf("fingerprints = %d, want 3", n)
	}
}

// TestDeleteThenResaveLoadsWhole: Delete must forget the profile's slice
// fingerprints, or a Save of the same content after it skips every slice
// as unchanged and Load finds none of them.
func TestDeleteThenResaveLoadsWhole(t *testing.T) {
	ps := New(kv.NewMemory(), "tbl")
	ps.Mode = FineGrained
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	for i := 0; i < 20; i++ {
		_ = p.Add(sch, model.Millis(1000+i*1000), 1000, 1, 1, 7, []int64{1})
	}
	p.Unlock()

	p.RLock()
	defer p.RUnlock()
	if _, err := ps.Save(p); err != nil {
		t.Fatal(err)
	}
	if err := ps.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Save(p); err != nil {
		t.Fatal(err)
	}
	got, err := ps.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSlices() != p.NumSlices() || got.NumFeatures() != p.NumFeatures() {
		t.Fatalf("loaded %d slices / %d features after delete and re-save, want %d / %d",
			got.NumSlices(), got.NumFeatures(), p.NumSlices(), p.NumFeatures())
	}
}
