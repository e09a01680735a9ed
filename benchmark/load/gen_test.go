package load

import (
	"math"
	"testing"
)

// TestZipfTopShare checks the sampler against the distribution computed
// independently: the hottest 1% of IDs must take the share of traffic that
// sum(k^-s) says they take.
func TestZipfTopShare(t *testing.T) {
	const (
		profiles = 16384
		s        = 1.2
		draws    = 400_000
	)
	top := profiles / 100
	var head, all float64
	for k := 1; k <= profiles; k++ {
		w := math.Pow(float64(k), -s)
		all += w
		if k <= top {
			head += w
		}
	}
	want := head / all

	g := New(Spec{Profiles: profiles, ZipfS: s, Slots: 1, Types: 1, FIDs: 1}, 7, 0)
	if got := g.zipf.Share(top); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Share(%d) = %v, want %v", top, got, want)
	}
	hits := 0
	var op Op
	for i := 0; i < draws; i++ {
		g.Next(&op)
		if op.Query.Profile < 1 || op.Query.Profile > profiles {
			t.Fatalf("profile %d outside 1..%d", op.Query.Profile, profiles)
		}
		if op.Query.Profile <= uint64(top) {
			hits++
		}
	}
	got := float64(hits) / draws
	// Binomial standard error is under 0.001 here; allow five of them.
	if math.Abs(got-want) > 0.005 {
		t.Errorf("top 1%% of IDs drew %.4f of the traffic, want %.4f", got, want)
	}
}

func TestUniformCoversIDSpace(t *testing.T) {
	g := New(Spec{Profiles: 10, Slots: 2, Types: 2, FIDs: 5}, 3, 0)
	seen := make(map[uint64]int)
	var op Op
	for i := 0; i < 10_000; i++ {
		g.Next(&op)
		seen[op.Query.Profile]++
	}
	for id := uint64(1); id <= 10; id++ {
		if n := seen[id]; n < 800 || n > 1200 {
			t.Errorf("profile %d drawn %d times of 10000, want about 1000", id, n)
		}
	}
	if len(seen) != 10 {
		t.Errorf("drew %d distinct profiles, want 10", len(seen))
	}
}

func TestOpMix(t *testing.T) {
	g := New(Spec{Profiles: 100, ZipfS: 1.2, AddShare: 0.8, BatchShare: 0.2, BatchSize: 16, Slots: 2, Types: 2, FIDs: 50}, 1, 0)
	var counts [3]int
	var op Op
	for i := 0; i < 20_000; i++ {
		g.Next(&op)
		counts[op.Kind]++
		switch op.Kind {
		case Add:
			if n := len(op.Entries); n < 1 || n > MaxAddEntries {
				t.Fatalf("add with %d entries, want 1..%d", n, MaxAddEntries)
			}
			for _, e := range op.Entries {
				if e.AgeMs < 0 || e.AgeMs >= MaxLagMs {
					t.Fatalf("ingestion lag %dms outside [0,%d)", e.AgeMs, MaxLagMs)
				}
			}
		case Batch:
			if len(op.Subs) != 16 {
				t.Fatalf("batch of %d, want 16", len(op.Subs))
			}
		}
	}
	if counts[TopK] != 0 {
		t.Errorf("%d single reads in an 80/20 add/batch mix", counts[TopK])
	}
	if share := float64(counts[Add]) / 20_000; math.Abs(share-0.8) > 0.02 {
		t.Errorf("add share %.3f, want 0.8", share)
	}
}

func TestPrefillIsOrderedAndWithinHistory(t *testing.T) {
	spec := Spec{Profiles: 4, PrefillEntries: 500, Slots: 2, Types: 2, FIDs: 1000}
	h := Prefill(spec, 1, 3)
	if len(h) != 500 {
		t.Fatalf("%d entries, want 500", len(h))
	}
	for i, e := range h {
		if e.AgeMs <= MaxLagMs || e.AgeMs > HistoryDays*DayMs {
			t.Fatalf("entry %d aged %dms, outside the history window", i, e.AgeMs)
		}
		if i > 0 && e.AgeMs > h[i-1].AgeMs {
			t.Fatalf("entry %d is older than entry %d: history must be oldest first", i, i-1)
		}
	}
}
