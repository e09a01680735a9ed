package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("zero counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := c.Reset(); got != 5 {
		t.Fatalf("reset returned %d, want 5", got)
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("counter after reset = %d, want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge = %d, want 42", got)
	}
	if got := g.Add(-2); got != 40 {
		t.Fatalf("gauge after add = %d, want 40", got)
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if got := r.Value(); got != 0 {
		t.Fatalf("empty ratio = %v, want 0", got)
	}
	for i := 0; i < 90; i++ {
		r.Observe(true)
	}
	for i := 0; i < 10; i++ {
		r.Observe(false)
	}
	if got := r.Value(); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("ratio = %v, want 0.9", got)
	}
	if r.Hits() != 90 || r.Total() != 100 {
		t.Fatalf("hits/total = %d/%d, want 90/100", r.Hits(), r.Total())
	}
	r.Reset()
	if r.Total() != 0 {
		t.Fatalf("total after reset = %d, want 0", r.Total())
	}
}

func TestBucketForMonotonic(t *testing.T) {
	prev := -1
	for _, d := range []time.Duration{
		0, time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 5 * time.Millisecond, 100 * time.Millisecond,
		time.Second, time.Minute, time.Hour,
	} {
		b := bucketFor(d)
		if b < prev {
			t.Fatalf("bucketFor(%v) = %d, below previous %d", d, b, prev)
		}
		if b < 0 || b >= bucketCount {
			t.Fatalf("bucketFor(%v) = %d out of range", d, b)
		}
		prev = b
	}
}

func TestBucketForBoundsProperty(t *testing.T) {
	// Property: every duration lands in a bucket whose bounds contain it.
	f := func(ns int64) bool {
		if ns < 0 {
			ns = -ns
		}
		ns %= int64(2 * time.Hour)
		d := time.Duration(ns)
		i := bucketFor(d)
		if i < 0 || i >= bucketCount {
			return false
		}
		if d.Nanoseconds() >= bucketBounds[0] && bucketBounds[i] > d.Nanoseconds() {
			return false
		}
		if i+1 < bucketCount && bucketBounds[i+1] <= d.Nanoseconds() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations: 1ms ... 100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	p50 := h.P50()
	if p50 < 40*time.Millisecond || p50 > 65*time.Millisecond {
		t.Fatalf("p50 = %v, want ~50ms", p50)
	}
	p99 := h.P99()
	if p99 < 80*time.Millisecond || p99 > 120*time.Millisecond {
		t.Fatalf("p99 = %v, want ~99ms", p99)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Fatalf("max = %v, want 100ms", got)
	}
	mean := h.Mean()
	if mean < 48*time.Millisecond || mean > 53*time.Millisecond {
		t.Fatalf("mean = %v, want ~50.5ms", mean)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramQuantileClamping(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	if h.Quantile(-1) == 0 {
		t.Fatal("Quantile(-1) should clamp to q=0, not return 0 duration for nonempty histogram")
	}
	if h.Quantile(2) == 0 {
		t.Fatal("Quantile(2) should clamp to q=1")
	}
}

func TestHistogramQuantileErrorBound(t *testing.T) {
	// Property: for a point mass at d, every quantile is within one bucket
	// width (factor ~1.15 plus midpoint rounding) of d.
	f := func(us uint32) bool {
		d := time.Duration(1+us%1_000_000) * time.Microsecond
		var h Histogram
		for i := 0; i < 10; i++ {
			h.Observe(d)
		}
		q := h.Quantile(0.5)
		ratio := float64(q) / float64(d)
		return ratio > 0.80 && ratio < 1.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Duration(j%20+1) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 2000 {
		t.Fatalf("count = %d, want 2000", got)
	}
}

func TestSnapshotString(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("snapshot count = %d, want 1", s.Count)
	}
	if s.String() == "" {
		t.Fatal("snapshot string should be nonempty")
	}
	if !strings.Contains(s.String(), "p50=") {
		t.Fatalf("populated snapshot should carry quantiles: %q", s)
	}
}

// An empty histogram must say so rather than render zero quantiles that
// read like real sub-nanosecond latencies in ips-cli stats output.
func TestSnapshotStringEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	got := s.String()
	if !strings.Contains(got, "n=0") || !strings.Contains(got, "no samples") {
		t.Fatalf("empty snapshot = %q, want explicit n=0 marker", got)
	}
	if strings.Contains(got, "p50=") {
		t.Fatalf("empty snapshot = %q, must not render quantiles", got)
	}
}
