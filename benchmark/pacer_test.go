package main

import (
	"sort"
	"sync"
	"testing"
	"time"

	"ips/benchmark/load"
)

// TestPacerChargesAStallToEveryRequestDueDuringIt drives the open loop
// against a target that stalls once, for 200ms. A loop with coordinated
// omission would stop sending during the stall and record one slow call
// per worker; this one must keep the schedule, charge every request that
// fell due during the stall the time it waited from its due moment, and
// report how late the sends ran.
func TestPacerChargesAStallToEveryRequestDueDuringIt(t *testing.T) {
	const (
		rate      = 2000.0
		dur       = 800 * time.Millisecond
		workers   = 8
		stallAt   = 200 * time.Millisecond
		stallFor  = 200 * time.Millisecond
		slowAbove = 20 * time.Millisecond
	)
	start := time.Now()
	var mu sync.Mutex // the target serves one call at a time
	stalled := false
	target := func(_ int, _ *load.Op) error {
		mu.Lock()
		defer mu.Unlock()
		if !stalled && time.Since(start) >= stallAt {
			stalled = true
			time.Sleep(stallFor)
		}
		return nil
	}
	gen := load.New(load.Spec{Profiles: 10, Slots: 1, Types: 1, FIDs: 1}, 1, 0)
	res := runPaced(gen, rate, dur, workers, target)

	if res.failed != 0 {
		t.Fatalf("%d of %d calls failed", res.failed, res.attempted)
	}
	if want := rate * dur.Seconds(); float64(res.attempted) < 0.8*want || float64(res.attempted) > 1.2*want {
		t.Fatalf("%d calls attempted, want about %.0f: the pacer must not slow down with the target", res.attempted, want)
	}
	slow := 0
	var worst time.Duration
	for _, s := range res.all() {
		lat := time.Duration(s.latNs)
		if lat > slowAbove {
			slow++
			// Measured from its due time, a call can only be slow if it fell
			// due before the stall ended (plus the backlog's drain time).
			if due := time.Duration(s.atNs); due < stallAt-50*time.Millisecond || due > stallAt+stallFor+100*time.Millisecond {
				t.Errorf("call due at %v took %v: only calls due around the stall may be slow", due, lat)
			}
		}
		worst = max(worst, lat)
	}
	// About rate*(stallFor-slowAbove) = 360 calls fell due while at least
	// slowAbove of the stall remained.
	if atLeast := int(0.8 * rate * (stallFor - slowAbove).Seconds()); slow < atLeast {
		t.Errorf("%d calls were charged more than %v; want at least %d, every call due during the stall", slow, slowAbove, atLeast)
	}
	if worst < stallFor*9/10 {
		t.Errorf("worst latency %v, want about the whole %v stall", worst, stallFor)
	}
	late := append([]float64(nil), res.lateUs...)
	sort.Float64s(late)
	if p99 := time.Duration(quantile(late, 0.99) * 1e3); p99 < stallFor/2 {
		t.Errorf("send lateness p99 %v does not show the %v stall that held all %d workers", p99, stallFor, workers)
	}
}

// TestPacerKeepsTimeAgainstAnIdleTarget bounds the harness's own share of
// a measured latency: with nothing to wait for, sends run well under a
// millisecond late.
func TestPacerKeepsTimeAgainstAnIdleTarget(t *testing.T) {
	gen := load.New(load.Spec{Profiles: 10, Slots: 1, Types: 1, FIDs: 1}, 1, 0)
	res := runPaced(gen, 2000, 500*time.Millisecond, 8, func(int, *load.Op) error { return nil })
	late := append([]float64(nil), res.lateUs...)
	sort.Float64s(late)
	if p50 := quantile(late, 0.5); p50 > 500 {
		t.Errorf("median send lateness %.0fµs against an idle target, want well under 500µs", p50)
	}
}
