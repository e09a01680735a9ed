package chaostest

import (
	"runtime"
	"testing"
	"time"

	"ips/internal/client"
	"ips/internal/faultinject"
	"ips/internal/gcache"
)

// TestHotKeyStorm aims a Zipf-headed read storm at a live 2-region
// cluster with hot-slot replication on while stall episodes periodically
// freeze a replica (run it with -race). The batch architecture v2 layers
// are all load-bearing here: misses for the storm's head coalesce via
// single-flight, its hottest profiles promote into read slots, and batch
// reads travel the shared-structure v2 encoding. Afterwards the exact
// reconciliation of the chaos harness must still hold — request
// accounting balances to the last RPC, no write is lost or duplicated —
// and the storm must not leak a single goroutine.
func TestHotKeyStorm(t *testing.T) {
	before := runtime.NumGoroutine()

	const callTimeout = 250 * time.Millisecond
	rep, err := Run(Options{
		Regions:            []string{"east", "west"},
		InstancesPerRegion: 3,
		Profiles:           64,
		Workers:            6,
		Ticks:              25,
		TickEvery:          40 * time.Millisecond,
		Seed:               23,
		// Zipf-headed key choice: most traffic lands on a handful of
		// profiles, the contention shape hot slots exist for.
		ZipfS: 1.4,
		Cache: gcache.Options{
			HotSlots:        4,
			HotPromoteAfter: 8,
		},
		Plan: faultinject.Plan{
			// Stall-only: a stalled replica fires after the server applied
			// the effect, so delivered == applied and write conservation
			// stays exact (crashes would void that ledger).
			Seed:       23,
			StallProb:  0.5,
			StallDelay: 100 * time.Millisecond,
			StallTicks: 2,
		},
		Client: client.Options{
			CallTimeout:      callTimeout,
			HedgeDelay:       25 * time.Millisecond,
			BreakerThreshold: 4,
			BreakerCooldown:  400 * time.Millisecond,
			RetryBudgetRatio: 0.3,
			RetryBudgetBurst: 20,
			BackoffBase:      2 * time.Millisecond,
			BackoffCap:       20 * time.Millisecond,
			Seed:             23,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("calls=%d failures=%d maxLat=%v errorRate=%.4f stalls=%d",
		rep.Calls, rep.Failures, rep.MaxLatency, rep.ErrorRate, rep.StallEpisodes)
	t.Logf("cache: loadWaits=%d hotHits=%d hotPromotions=%d", rep.LoadWaits, rep.HotHits, rep.HotPromotions)

	if rep.Calls < 100 {
		t.Fatalf("workload barely ran: %d calls", rep.Calls)
	}
	if rep.StallEpisodes == 0 {
		t.Fatal("storm too quiet: no stall episodes")
	}
	if rep.Crashes != 0 || rep.RegionOutages != 0 {
		t.Fatalf("stall-only plan crashed: crashes=%d outages=%d", rep.Crashes, rep.RegionOutages)
	}

	// The hot-key machinery must actually have engaged: the Zipf head
	// promotes and serves sealed-form reads. (Single-flight shares are
	// workload-dependent — misses must collide in-flight — so LoadWaits
	// is reported above but not gated.)
	if rep.HotPromotions == 0 {
		t.Fatal("no profile promoted into hot slots under a Zipf-headed storm")
	}
	if rep.HotHits == 0 {
		t.Fatal("no read served from a hot slot")
	}

	// Reconciliation: the same exact identities the uniform chaos test
	// pins must survive the hot-key path (sealed-form reads, coalesced loads,
	// v2 batch responses change none of the accounting).
	if err := rep.CheckIdentities(); err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckWriteConservation(); err != nil {
		t.Fatal(err)
	}
	if rep.ServerRejected != 0 {
		t.Fatalf("unexpected quota rejections: %d", rep.ServerRejected)
	}
	if bound := 8 * callTimeout; rep.MaxLatency > bound {
		t.Fatalf("call latency unbounded: max %v > %v", rep.MaxLatency, bound)
	}

	// No goroutine leaks: everything Run started (cluster, flush/swap
	// threads, heartbeats, RPC conns, workload) must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before storm, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
