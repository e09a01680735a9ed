// Package metrics provides the low-overhead instrumentation primitives IPS
// uses to report the production-style numbers in the paper's evaluation
// (§IV): p50/p99 latencies, throughput, error rates, cache hit ratios and
// memory usage. Everything is safe for concurrent use and allocation-free
// on the hot path. The same Histogram/Snapshot types back the per-stage
// tracing aggregates and the operator debug endpoint (OPERATIONS.md lists
// the full metrics catalog).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n atomic.Int64
}

// Inc adds one to the counter.
//
//ips:hotpath
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta to the counter.
//
//ips:hotpath
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Reset sets the counter back to zero and returns the previous value.
func (c *Counter) Reset() int64 { return c.n.Swap(0) }

// Gauge is a settable instantaneous value, e.g. current memory usage.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
//
//ips:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta and returns the new value.
//
//ips:hotpath
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Ratio tracks hits out of a total, e.g. cache hit ratio.
type Ratio struct {
	hit, total Counter
}

// Observe records one observation; hit says whether it counts toward the
// numerator.
//
//ips:hotpath
func (r *Ratio) Observe(hit bool) {
	r.total.Inc()
	if hit {
		r.hit.Inc()
	}
}

// Value returns the hit ratio in [0,1], or 0 when nothing was observed.
func (r *Ratio) Value() float64 {
	t := r.total.Value()
	if t == 0 {
		return 0
	}
	return float64(r.hit.Value()) / float64(t)
}

// Hits returns the numerator.
func (r *Ratio) Hits() int64 { return r.hit.Value() }

// Total returns the denominator.
func (r *Ratio) Total() int64 { return r.total.Value() }

// Reset clears both sides of the ratio.
func (r *Ratio) Reset() {
	r.hit.Reset()
	r.total.Reset()
}

// bucketCount is the number of log-scaled histogram buckets. Bucket i covers
// durations in [lowerBound(i), lowerBound(i+1)). With a growth factor of
// about 1.15 per bucket starting at 1us, 160 buckets reach past 1000s, which
// comfortably covers every latency IPS can produce.
const bucketCount = 160

// growth is the per-bucket multiplicative width.
const growth = 1.15

// bucketBounds[i] is the inclusive lower bound of bucket i in nanoseconds.
var bucketBounds = func() [bucketCount]int64 {
	var b [bucketCount]int64
	lo := 1000.0 // 1us in ns
	for i := 0; i < bucketCount; i++ {
		b[i] = int64(lo)
		lo *= growth
	}
	return b
}()

// bucketFor returns the histogram bucket index for d.
//
//ips:hotpath
func bucketFor(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < bucketBounds[0] {
		return 0
	}
	// log(ns/1000)/log(growth), clamped.
	i := int(math.Log(float64(ns)/1000.0) / math.Log(growth))
	if i < 0 {
		i = 0
	}
	if i >= bucketCount {
		i = bucketCount - 1
	}
	for i+1 < bucketCount && bucketBounds[i+1] <= ns {
		i++
	}
	for i > 0 && bucketBounds[i] > ns {
		i--
	}
	return i
}

// Histogram is a fixed-bucket, log-scaled latency histogram. Recording is a
// single atomic add; quantile reads scan the buckets. Relative quantile
// error is bounded by the bucket growth factor (~15%), which is plenty for
// reproducing the p50/p99 shapes the paper reports.
type Histogram struct {
	buckets [bucketCount]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // total nanoseconds
	max     atomic.Int64
}

// Observe records one duration.
//
//ips:hotpath
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(d.Nanoseconds())
	for {
		cur := h.max.Load()
		if d.Nanoseconds() <= cur || h.max.CompareAndSwap(cur, d.Nanoseconds()) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the maximum observed duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the approximate q-quantile (q in [0,1]) of the recorded
// durations. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := 0; i < bucketCount; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			// Midpoint of the bucket is a better point estimate than
			// either bound.
			hi := int64(float64(bucketBounds[i]) * growth)
			return time.Duration((bucketBounds[i] + hi) / 2)
		}
	}
	return time.Duration(h.max.Load())
}

// P50 is shorthand for Quantile(0.50).
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }

// P95 is shorthand for Quantile(0.95), the hedge-delay trigger quantile.
func (h *Histogram) P95() time.Duration { return h.Quantile(0.95) }

// P99 is shorthand for Quantile(0.99).
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Snapshot is an immutable copy of a histogram's summary statistics.
type Snapshot struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Snapshot captures the current summary statistics.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// String renders the snapshot in a compact human-readable form. An empty
// window says so explicitly instead of rendering all-zero quantiles,
// which read like real (impossibly fast) latencies in operator output.
func (s Snapshot) String() string {
	if s.Count == 0 {
		return "n=0 (no samples)"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// IntHist is a power-of-two-bucketed histogram of non-negative integer
// sample values — batch sizes, fan-out widths and other count-shaped
// distributions where Histogram's nanosecond buckets make no sense.
// Bucket i holds values v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i).
// Recording is a single atomic add.
type IntHist struct {
	buckets [65]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one sample; negative values clamp to zero.
func (h *IntHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of samples.
func (h *IntHist) Count() int64 { return h.count.Load() }

// Sum returns the total of all samples.
func (h *IntHist) Sum() int64 { return h.sum.Load() }

// Mean returns the mean sample, or 0 when empty.
func (h *IntHist) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest sample observed.
func (h *IntHist) Max() int64 { return h.max.Load() }

// Quantile returns an approximate q-quantile (q in [0,1]): the upper bound
// of the bucket containing the ranked sample, clamped to Max. Relative
// error is bounded by the power-of-two bucket width.
func (h *IntHist) Quantile(q float64) int64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			hi := int64(1)<<i - 1 // largest value with bit length i
			if m := h.max.Load(); hi > m {
				hi = m
			}
			return hi
		}
	}
	return h.max.Load()
}

// P50 is shorthand for Quantile(0.50).
func (h *IntHist) P50() int64 { return h.Quantile(0.50) }

// P95 is shorthand for Quantile(0.95).
func (h *IntHist) P95() int64 { return h.Quantile(0.95) }

// P99 is shorthand for Quantile(0.99).
func (h *IntHist) P99() int64 { return h.Quantile(0.99) }

// Reset clears all samples.
func (h *IntHist) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}
