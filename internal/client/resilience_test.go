package client

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"ips/internal/cluster"
	"ips/internal/model"
	"ips/internal/wire"
)

// newResilientClient builds a client against cl with explicit resilience
// options (the stock newClient helper leaves them at defaults).
func newResilientClient(t testing.TB, cl *cluster.Cluster, opts Options) *Client {
	t.Helper()
	opts.Caller = "test"
	opts.Service = "ips"
	opts.Registry = cl.Registry
	if opts.RefreshInterval == 0 {
		opts.RefreshInterval = 20 * time.Millisecond
	}
	if opts.CallTimeout == 0 {
		opts.CallTimeout = 2 * time.Second
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// nodeByAddr maps a routed address back to its cluster node.
func nodeByAddr(t testing.TB, cl *cluster.Cluster, addr string) *cluster.Node {
	t.Helper()
	for _, n := range cl.Nodes() {
		if n.Addr == addr {
			return n
		}
	}
	t.Fatalf("no node with addr %s", addr)
	return nil
}

// checkAttemptIdentity asserts the exact launch accounting: every read-path
// RPC is exactly one of primary, retry or hedge.
func checkAttemptIdentity(t testing.TB, c *Client) {
	t.Helper()
	a, p, r, h := c.Attempts.Value(), c.Primaries.Value(), c.Retries.Value(), c.Hedges.Value()
	if a != p+r+h {
		t.Fatalf("attempt identity broken: attempts=%d != primaries=%d + retries=%d + hedges=%d", a, p, r, h)
	}
}

// TestHedgedReadBeatsSlowReplica injects a long server-side stall on the
// replica owning a profile and checks that both the single-query and batch
// read paths hedge to the next replica well before the stall elapses —
// while writes to the same instance are never hedged.
func TestHedgedReadBeatsSlowReplica(t *testing.T) {
	const stall = 400 * time.Millisecond
	cl, clock := newCluster(t, []string{"east"}, 3)
	c := newResilientClient(t, cl, Options{
		Region:     "east",
		HedgeDelay: 20 * time.Millisecond,
	})
	now := clock.Now()

	for id := model.ProfileID(1); id <= 30; id++ {
		if err := c.Add("up", id, wire.AddEntry{
			Timestamp: now - 1000, Slot: 1, Type: 1, FID: 7, Counts: []int64{int64(id), 0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	forceVisible(cl)
	// Persist everything so replicas can serve the stalled shard's
	// profiles from the shared regional store.
	for _, node := range cl.Nodes() {
		if err := node.Instance().FlushAll(); err != nil {
			t.Fatal(err)
		}
	}

	// Pick a profile and stall the instance that owns it.
	victimID := model.ProfileID(1)
	victimAddr := c.route("east", victimID)
	if victimAddr == "" {
		t.Fatal("no route for victim profile")
	}
	victim := nodeByAddr(t, cl, victimAddr)
	victim.Service().RPC().SetDelay(func(method string) time.Duration { return stall })
	defer victim.Service().RPC().SetDelay(nil)

	start := time.Now()
	resp, err := c.TopK(queryReq(victimID))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Features) == 0 {
		t.Fatal("hedged read returned no features")
	}
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("single read took %v, never beat the %v stall", elapsed, stall)
	}
	if c.Hedges.Value() == 0 || c.HedgeWins.Value() == 0 {
		t.Fatalf("hedge counters: hedges=%d wins=%d, want both > 0", c.Hedges.Value(), c.HedgeWins.Value())
	}

	// Batch path: every sub-query routed at the stalled instance must be
	// rescued by a hedged group RPC.
	var subs []wire.SubQuery
	for id := model.ProfileID(1); id <= 30; id++ {
		if c.route("east", id) == victimAddr {
			subs = append(subs, wire.SubQuery{Query: *queryReq(id)})
		}
	}
	if len(subs) == 0 {
		t.Fatal("no profiles routed at victim")
	}
	hedgesBefore := c.Hedges.Value()
	start = time.Now()
	results, err := c.QueryBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("batch took %v, never beat the %v stall", elapsed, stall)
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("batch slot %d nil", i)
		}
	}
	if c.Hedges.Value() == hedgesBefore {
		t.Fatal("batch path issued no hedges against a stalled shard")
	}

	// Writes to the stalled instance ride it out: not idempotent, never
	// hedged.
	hedgesBefore = c.Hedges.Value()
	writesBefore := c.WriteRPCs.Value()
	start = time.Now()
	if err := c.Add("up", victimID, wire.AddEntry{
		Timestamp: now - 500, Slot: 1, Type: 1, FID: 8, Counts: []int64{1, 0},
	}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("write finished in %v < stall %v — was it hedged?", elapsed, stall)
	}
	if c.Hedges.Value() != hedgesBefore {
		t.Fatal("a write was hedged")
	}
	if got := c.WriteRPCs.Value() - writesBefore; got != 1 {
		t.Fatalf("write issued %d RPCs in a 1-region cluster, want 1", got)
	}
	checkAttemptIdentity(t, c)
}

// TestBreakerTripsOnDeadInstance crashes a replica and checks that the
// client's failover keeps succeeding, the dead instance's breaker opens
// after the configured threshold, and later reads skip it entirely.
func TestBreakerTripsOnDeadInstance(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 3)
	c := newResilientClient(t, cl, Options{
		Region:           "east",
		CallTimeout:      500 * time.Millisecond,
		HedgeDelay:       -1, // isolate breaker behaviour from hedging
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Second,
		RetryBudgetRatio: 1,
		RetryBudgetBurst: 20,
		Seed:             1,
	})
	now := clock.Now()
	for id := model.ProfileID(1); id <= 30; id++ {
		if err := c.Add("up", id, wire.AddEntry{
			Timestamp: now - 1000, Slot: 1, Type: 1, FID: 7, Counts: []int64{int64(id), 0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	forceVisible(cl)

	victimID := model.ProfileID(1)
	victimAddr := c.route("east", victimID)
	victim := nodeByAddr(t, cl, victimAddr)
	if err := cl.Crash(victim.Name); err != nil {
		t.Fatal(err)
	}

	// Reads keep succeeding through failover; after threshold=2 transport
	// failures the dead instance's breaker opens.
	for i := 0; i < 4; i++ {
		if _, err := c.TopK(queryReq(victimID)); err != nil {
			t.Fatalf("read %d failed during failover: %v", i, err)
		}
	}
	if st := c.Breaker.State(victimAddr); st != BreakerOpen {
		t.Fatalf("victim breaker = %v, want open (trips=%d)", st, c.Breaker.Trips.Value())
	}
	if c.Breaker.Trips.Value() == 0 {
		t.Fatal("no breaker trips recorded")
	}

	// With the breaker open, the dead address is ordered last and refused
	// at issue time: the read's primary goes straight to a live replica.
	attemptsBefore := c.Attempts.Value()
	retriesBefore := c.Retries.Value()
	if _, err := c.TopK(queryReq(victimID)); err != nil {
		t.Fatal(err)
	}
	if got := c.Attempts.Value() - attemptsBefore; got != 1 {
		t.Fatalf("post-trip read used %d attempts, want 1 (breaker should skip the dead primary)", got)
	}
	if got := c.Retries.Value() - retriesBefore; got != 0 {
		t.Fatalf("post-trip read used %d retries, want 0", got)
	}
	checkAttemptIdentity(t, c)
	rs := c.Resilience()
	if rs.BreakerStates[victimAddr] != BreakerOpen {
		t.Fatalf("Resilience snapshot state = %v, want open", rs.BreakerStates[victimAddr])
	}
}

// TestRetryBudgetDeniesUnderTotalOutage kills every instance and checks
// that retries dry up at the budget instead of amplifying: denied retries
// are counted, and every read fails within a bounded attempt count.
func TestRetryBudgetDeniesUnderTotalOutage(t *testing.T) {
	cl, _ := newCluster(t, []string{"east"}, 2)
	c := newResilientClient(t, cl, Options{
		Region:           "east",
		CallTimeout:      300 * time.Millisecond,
		HedgeDelay:       -1,
		BreakerThreshold: -1, // isolate the budget from the breaker
		RetryBudgetRatio: 0.2,
		RetryBudgetBurst: 2,
		BackoffBase:      time.Millisecond,
		BackoffCap:       4 * time.Millisecond,
		Seed:             7,
	})
	for _, n := range cl.Nodes() {
		if err := cl.Crash(n.Name); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 20; i++ {
		if _, err := c.TopK(queryReq(model.ProfileID(i + 1))); err == nil {
			t.Fatal("read succeeded against a fully crashed cluster")
		}
	}
	if c.RetriesDenied.Value() == 0 {
		t.Fatal("no retries were denied despite an exhausted budget")
	}
	// 20 primaries at ratio 0.2 earn at most burst(2) + 4 tokens.
	if got := c.Retries.Value(); got > 6 {
		t.Fatalf("retries = %d, budget (burst 2 + 20×0.2) should cap them at 6", got)
	}
	checkAttemptIdentity(t, c)
}

// pooledConnsUp reports whether the process runs exactly want client read
// loops and want server connection loops, and no client dial.
func pooledConnsUp(want int) bool {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "rpc.(*clientConn).readLoop(") == want &&
		strings.Count(stacks, "rpc.(*Server).serveConn(") == want &&
		!strings.Contains(stacks, "rpc.(*Client).dial(")
}

// TestHedgeLoserStillFeedsBreaker: the primary is blackholed (the server
// computes but never answers), the hedge wins, and the read returns long
// before the primary's call timeout. Nobody is waiting on the primary any
// more — no per-attempt goroutine exists — yet its eventual timeout must
// still reach Breaker.Record through the decided race's reaper, its hedge
// accounting must balance, and once it has, no goroutine may remain.
func TestHedgeLoserStillFeedsBreaker(t *testing.T) {
	const callTimeout = 300 * time.Millisecond
	cl, clock := newCluster(t, []string{"east"}, 3)
	c := newResilientClient(t, cl, Options{
		Region:           "east",
		HedgeDelay:       10 * time.Millisecond,
		CallTimeout:      callTimeout,
		BreakerThreshold: 1, // the one timeout trips it
		BreakerCooldown:  time.Minute,
	})
	now := clock.Now()
	const victimID = model.ProfileID(1)
	if err := c.Add("up", victimID, wire.AddEntry{Timestamp: now - 1000, Slot: 1, Type: 1, FID: 7, Counts: []int64{5, 0}}); err != nil {
		t.Fatal(err)
	}
	forceVisible(cl)
	for _, node := range cl.Nodes() {
		if err := node.Instance().FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	victimAddr := c.route("east", victimID)
	victim := nodeByAddr(t, cl, victimAddr)
	// Warm the connections so the baseline includes their read loops.
	for id := model.ProfileID(1); id <= 30; id++ {
		if _, err := c.TopK(queryReq(id)); err != nil {
			t.Fatal(err)
		}
	}
	// The first call to each node tops its pool up with a background dial,
	// and the server accepts every connection on a goroutine of its own:
	// the baseline waits until both ends of every pooled connection are up
	// (rpc.NewClient pools two per node) and no dial is in flight.
	// Otherwise it can miss a goroutine that settles during the hedged read.
	for deadline := time.Now().Add(5 * time.Second); !pooledConnsUp(2 * len(cl.Nodes())); {
		if time.Now().After(deadline) {
			t.Fatal("the warm-up's pooled connections never came up")
		}
		time.Sleep(time.Millisecond)
	}
	baseline := runtime.NumGoroutine()

	victim.Service().RPC().SetDropRate(func() float64 { return 1 })
	defer victim.Service().RPC().SetDropRate(nil)
	start := time.Now()
	resp, err := c.TopK(queryReq(victimID))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= callTimeout {
		t.Fatalf("read took %v: it waited for the blackholed primary instead of the hedge", elapsed)
	}
	if len(resp.Features) == 0 {
		t.Fatal("hedged read returned no features")
	}
	if c.HedgeWins.Value() != 1 {
		t.Fatalf("hedge wins = %d, want 1", c.HedgeWins.Value())
	}
	if st := c.Breaker.State(victimAddr); st != BreakerClosed {
		t.Fatalf("breaker %v before the primary timed out", st)
	}

	// The primary's timeout arrives with no reader left.
	for deadline := time.Now().Add(10 * callTimeout); c.Breaker.State(victimAddr) != BreakerOpen; {
		if time.Now().After(deadline) {
			t.Fatalf("the blackholed primary's timeout never reached its breaker (state %v, trips %d)",
				c.Breaker.State(victimAddr), c.Breaker.Trips.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.Breaker.Trips.Value() != 1 {
		t.Fatalf("breaker trips = %d, want 1", c.Breaker.Trips.Value())
	}
	if n := c.hedgeInFlight.Load(); n != 0 {
		t.Fatalf("hedgeInFlight = %d after the race settled", n)
	}
	checkAttemptIdentity(t, c)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before the hedged read, %d after it settled:\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
