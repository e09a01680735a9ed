package query

import (
	"errors"
	"testing"

	"ips/internal/model"
)

func TestRegistryBuiltins(t *testing.T) {
	r := NewRegistry()
	sum, err := r.Lookup("sum")
	if err != nil {
		t.Fatal(err)
	}
	if got := sum([]int64{1, 2, 3}); got != 6 {
		t.Fatalf("sum = %v", got)
	}
	max, _ := r.Lookup("max")
	if got := max([]int64{1, 7, 3}); got != 7 {
		t.Fatalf("max = %v", got)
	}
	ctr, _ := r.Lookup("ctr")
	if got := ctr([]int64{10, 4}); got != 0.4 {
		t.Fatalf("ctr = %v", got)
	}
	if got := ctr([]int64{0, 4}); got != 0 {
		t.Fatalf("ctr with zero impressions = %v", got)
	}
	if got := ctr([]int64{5}); got != 0 {
		t.Fatalf("ctr with short vector = %v", got)
	}
}

func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Lookup("nope"); !errors.Is(err, ErrUnknownUDAF) {
		t.Fatalf("err = %v", err)
	}
	if err := r.Register("", nil); err == nil {
		t.Fatal("empty registration should fail")
	}
	if err := r.Register("ok", func([]int64) float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	names := r.Names()
	if len(names) != 4 { // sum, max, ctr, ok
		t.Fatalf("names = %v", names)
	}
}

func TestWeightedSum(t *testing.T) {
	fn := WeightedSum(1, 3, 5)
	if got := fn([]int64{2, 1, 1}); got != 10 {
		t.Fatalf("weighted = %v", got)
	}
	// Unweighted positions default to 1.
	if got := fn([]int64{1, 0, 0, 4}); got != 5 {
		t.Fatalf("overflow weights = %v", got)
	}
}

func TestQueryByUDAF(t *testing.T) {
	// Multi-dimensional top-K: shares weighted 5x outrank raw likes.
	sch := model.NewSchema("like", "share")
	p := model.NewProfile(1)
	p.Lock()
	_ = p.Add(sch, 1500, 1000, 1, 1, 100, []int64{10, 0}) // 10 score
	_ = p.Add(sch, 1500, 1000, 1, 1, 200, []int64{2, 3})  // 17 score
	p.Unlock()

	res, err := runQuery(p, sch, Request{
		Slot: 1, Type: 1, Range: CurrentRange(10_000),
		SortBy: ByUDAF, UDAF: WeightedSum(1, 5),
	}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Features[0].FID != 200 {
		t.Fatalf("udaf top = %d, want 200", res.Features[0].FID)
	}
	if res.Features[0].Score != 17 || res.Features[1].Score != 10 {
		t.Fatalf("scores = %v, %v", res.Features[0].Score, res.Features[1].Score)
	}
}

func TestQueryByUDAFRequiresFunction(t *testing.T) {
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	if _, err := runQuery(p, sch, Request{
		Slot: 1, Type: 1, Range: CurrentRange(1000), SortBy: ByUDAF,
	}, 2000); err == nil {
		t.Fatal("ByUDAF without a UDAF should fail")
	}
}

func TestQueryMinScore(t *testing.T) {
	sch := model.NewSchema("imp", "click")
	p := model.NewProfile(1)
	p.Lock()
	_ = p.Add(sch, 1500, 1000, 1, 1, 1, []int64{100, 5})  // ctr 0.05
	_ = p.Add(sch, 1500, 1000, 1, 1, 2, []int64{100, 60}) // ctr 0.60
	p.Unlock()

	reg := NewRegistry()
	ctr, _ := reg.Lookup("ctr")
	res, err := runQuery(p, sch, Request{
		Slot: 1, Type: 1, Range: CurrentRange(10_000),
		SortBy: ByUDAF, UDAF: ctr, MinScore: 0.5,
	}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 1 || res.Features[0].FID != 2 {
		t.Fatalf("min-score filter = %+v", res.Features)
	}
}

func TestUDAFScorePopulatedWithoutUDAFSort(t *testing.T) {
	// UDAF can annotate scores even when sorting by something else.
	sch := model.NewSchema("n")
	p := model.NewProfile(1)
	p.Lock()
	_ = p.Add(sch, 1500, 1000, 1, 1, 9, []int64{4})
	p.Unlock()
	res, err := runQuery(p, sch, Request{
		Slot: 1, Type: 1, Range: CurrentRange(10_000),
		SortBy: ByFeatureID, UDAF: WeightedSum(2),
	}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Features[0].Score != 8 {
		t.Fatalf("score = %v, want 8", res.Features[0].Score)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = r.Register("dynamic", WeightedSum(float64(i)))
		}
	}()
	for i := 0; i < 200; i++ {
		_, _ = r.Lookup("dynamic")
		r.Names()
	}
	<-done
}
