package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted by nearest rank; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n > 0 && n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return quantile(s, 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ratio is a/b, and 0 when b is 0: a count over no operations is "none".
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sample is one timed call: when it was due (or started, in a closed
// loop) relative to the phase start, and how long the caller waited.
type sample struct {
	atNs, latNs int64
}

// latencyUs is the q-quantile of the samples' latencies, in microseconds.
func latencyUs(samples []sample, q float64) float64 {
	us := make([]float64, len(samples))
	for i, s := range samples {
		us[i] = float64(s.latNs) / 1e3
	}
	sort.Float64s(us)
	return quantile(us, q)
}
