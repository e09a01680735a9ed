package client

import (
	"sync"
	"testing"
	"time"

	"ips/internal/cluster"
	"ips/internal/discovery"
	"ips/internal/model"
	"ips/internal/wire"
)

// openDrainWindow seeds profiles 1..60 (profile id doubles as the count
// value, and the data lives ONLY on its pre-drain owner — never flushed),
// flips the first node to draining, compresses one client refresh, and
// returns that node plus the keys now inside its migration window.
func openDrainWindow(t *testing.T, cl *cluster.Cluster, c *Client, now model.Millis) (victim *cluster.Node, owned []model.ProfileID) {
	t.Helper()
	for id := model.ProfileID(1); id <= 60; id++ {
		err := c.Add("up", id, wire.AddEntry{
			Timestamp: now - 1000, Slot: 1, Type: 1, FID: 7, Counts: []int64{int64(id), 0},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	forceVisible(cl)

	victim = cl.Nodes()[0]
	for id := model.ProfileID(1); id <= 60; id++ {
		if c.route("east", id) == victim.Addr {
			owned = append(owned, id)
		}
	}
	if len(owned) == 0 {
		t.Skip("ring gave the victim no keys") // ~1-in-10^12 with 60 keys
	}

	victim.SetState(discovery.StateDraining)
	c.RefreshNow() // one refresh interval, compressed
	return victim, owned
}

// openBreaker force-opens c's breaker for addr by recording consecutive
// transport failures until it trips.
func openBreaker(t *testing.T, c *Client, addr string) {
	t.Helper()
	for i := 0; c.Breaker.State(addr) != BreakerOpen; i++ {
		if i > 100 {
			t.Fatalf("breaker for %s refused to open", addr)
		}
		c.Breaker.Record(addr, false)
	}
}

// TestDrainingNodeLosesNewPrimariesWithinOneRefresh pins the resharding
// routing contract: one refresh after a member starts draining, no new
// primary (or retry, or hedge) targets it — it only sees dual-read
// attempts for keys inside its migration window — while reads keep
// returning the data that still lives only on the draining node.
func TestDrainingNodeLosesNewPrimariesWithinOneRefresh(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 3)
	c := newClient(t, cl, "east")
	c.opts.HedgeDelay = -1 // deterministic attempt accounting
	now := clock.Now()
	victim, owned := openDrainWindow(t, cl, c, now)

	// Routing: the draining node is out of the authority ring and the
	// failover ladder entirely; it remains each owned key's old owner.
	for _, id := range owned {
		auth, old := c.dualTargets("east", id)
		if auth == victim.Addr {
			t.Fatalf("key %d: draining node still authority owner", id)
		}
		if old != victim.Addr {
			t.Fatalf("key %d: old owner = %q, want draining node %s", id, old, victim.Addr)
		}
		for _, cand := range c.candidates(c.routes.Load(), id, nil) {
			if cand.addr == victim.Addr {
				t.Fatalf("key %d: draining node still on the candidate ladder", id)
			}
		}
	}

	// Behavior: reads of the owned keys dual-read — exactly one primary
	// (elsewhere) plus one dual attempt (to the draining node) each — and
	// still return the value only the draining node holds, because the
	// dual path prefers the outgoing owner's response.
	preQueries := victim.Instance().Stats().Queries
	pre := c.Resilience()
	for _, id := range owned {
		resp, err := c.TopK(queryReq(id))
		if err != nil {
			t.Fatalf("windowed read %d: %v", id, err)
		}
		if len(resp.Features) != 1 || resp.Features[0].Counts[0] != int64(id) {
			t.Fatalf("windowed read %d: %+v", id, resp.Features)
		}
	}
	post := c.Resilience()
	n := int64(len(owned))
	if got := post.Primaries - pre.Primaries; got != n {
		t.Fatalf("primaries = %d, want %d", got, n)
	}
	if got := post.Duals - pre.Duals; got != n {
		t.Fatalf("duals = %d, want %d", got, n)
	}
	if got := victim.Instance().Stats().Queries - preQueries; got != n {
		t.Fatalf("draining node served %d queries, want %d dual reads only", got, n)
	}
	if post.Attempts != post.Primaries+post.Retries+post.Hedges+post.Duals {
		t.Fatalf("attempt identity broken: %+v", post)
	}

	// Writes inside the window go to both owners.
	preW := c.WriteRPCs.Value()
	preVW := victim.Instance().Stats().Writes
	err := c.Add("up", owned[0], wire.AddEntry{
		Timestamp: now, Slot: 1, Type: 1, FID: 7, Counts: []int64{1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.WriteRPCs.Value() - preW; got != 2 {
		t.Fatalf("windowed write issued %d RPCs, want 2 (dual)", got)
	}
	if got := victim.Instance().Stats().Writes - preVW; got != 1 {
		t.Fatalf("draining node saw %d writes, want 1 (the dual leg)", got)
	}
}

// TestDepartedMemberInFlightCallSurvivesRefresh pins the refresh-churn
// fix: when a member leaves the catalog, the client must stop routing to
// it at once but keep the socket open for a grace period, so calls
// already in flight complete instead of dying with a connection-closed
// error on every membership change.
func TestDepartedMemberInFlightCallSurvivesRefresh(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 2)
	c := newClient(t, cl, "east")
	c.opts.HedgeDelay = -1
	now := clock.Now()

	var id model.ProfileID
	victim := cl.Nodes()[0]
	for probe := model.ProfileID(1); ; probe++ {
		if c.route("east", probe) == victim.Addr {
			id = probe
			break
		}
	}
	err := c.Add("up", id, wire.AddEntry{
		Timestamp: now - 1000, Slot: 1, Type: 1, FID: 7, Counts: []int64{9, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	forceVisible(cl)

	// Slow the victim down, start a read against it, then rip it out of
	// the catalog while the call is in flight.
	victim.Service().RPC().SetDelay(func(string) time.Duration { return 250 * time.Millisecond })
	var wg sync.WaitGroup
	var resp *wire.QueryResponse
	var callErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, callErr = c.TopK(queryReq(id))
	}()
	time.Sleep(50 * time.Millisecond) // the call is now waiting out the delay
	cl.Registry.Deregister("ips", victim.Addr)
	c.RefreshNow()

	// New traffic reroutes immediately...
	if got := c.route("east", id); got == victim.Addr || got == "" {
		t.Fatalf("departed member still routed: %q", got)
	}
	// ...while the in-flight call finishes on the retiring connection.
	wg.Wait()
	if callErr != nil {
		t.Fatalf("in-flight call died on refresh: %v", callErr)
	}
	if len(resp.Features) != 1 || resp.Features[0].Counts[0] != 9 {
		t.Fatalf("in-flight call returned %+v", resp.Features)
	}

	// The retired connection's grace goroutine must not outlive Close.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedWriteSingleLegIsNotAcked pins the migration-window ack
// rule: a write whose two legs did not BOTH land must fail. The handoff
// protocol's safety argument (old-owner superset preference, wholesale
// content installs, mark-only release) covers acknowledged writes only
// because of this — an acked old-only write would be dropped by the
// release pass, and an acked authority-only write could be clobbered by
// a later content pass shipping a fresher source blob without it.
func TestWindowedWriteSingleLegIsNotAcked(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 3)
	c := newClient(t, cl, "east")
	c.opts.HedgeDelay = -1
	now := clock.Now()
	victim, owned := openDrainWindow(t, cl, c, now)

	id := owned[0]
	auth, old := c.dualTargets("east", id)
	if old != victim.Addr || auth == "" {
		t.Fatalf("window not open: auth=%q old=%q", auth, old)
	}
	entry := wire.AddEntry{Timestamp: now, Slot: 1, Type: 1, FID: 7, Counts: []int64{1, 0}}

	// Authority leg unreachable (breaker open): the old leg still lands —
	// keeping the window's copies as close as an unacked write can — but
	// the call must report failure.
	openBreaker(t, c, auth)
	preW := c.WriteRPCs.Value()
	preVW := victim.Instance().Stats().Writes
	if err := c.Add("up", id, entry); err == nil {
		t.Fatal("windowed write acked with only the old leg landed")
	}
	if got := c.WriteRPCs.Value() - preW; got != 1 {
		t.Fatalf("write issued %d RPCs, want 1 (old leg only)", got)
	}
	if got := victim.Instance().Stats().Writes - preVW; got != 1 {
		t.Fatalf("old owner saw %d writes, want 1", got)
	}

	// Symmetric, via a fresh client: old leg unreachable, authority leg
	// lands — still not an ack.
	c2 := newClient(t, cl, "east")
	c2.opts.HedgeDelay = -1
	c2.RefreshNow()
	openBreaker(t, c2, victim.Addr)
	preW2 := c2.WriteRPCs.Value()
	if err := c2.Add("up", id, entry); err == nil {
		t.Fatal("windowed write acked with only the authority leg landed")
	}
	if got := c2.WriteRPCs.Value() - preW2; got != 1 {
		t.Fatalf("write issued %d RPCs, want 1 (authority leg only)", got)
	}
}

// TestDualReadDoesNotWaitForStalledAuthority pins the window read's
// latency shape: the old owner's success returns immediately, so a
// stalled (or cold, still-joining) authority adds nothing to in-window
// read latency — the property the migrate bench's p99 gate leans on.
func TestDualReadDoesNotWaitForStalledAuthority(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 3)
	c := newClient(t, cl, "east")
	c.opts.HedgeDelay = -1
	now := clock.Now()
	_, owned := openDrainWindow(t, cl, c, now)

	id := owned[0]
	auth, _ := c.dualTargets("east", id)
	var authNode *cluster.Node
	for _, n := range cl.Nodes() {
		if n.Addr == auth {
			authNode = n
		}
	}
	if authNode == nil {
		t.Fatalf("no node serves authority owner %q", auth)
	}
	const stall = time.Second
	authNode.Service().RPC().SetDelay(func(string) time.Duration { return stall })

	pre := c.Resilience()
	start := time.Now()
	resp, err := c.TopK(queryReq(id))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("windowed read: %v", err)
	}
	if len(resp.Features) != 1 || resp.Features[0].Counts[0] != int64(id) {
		t.Fatalf("windowed read: %+v", resp.Features)
	}
	if elapsed >= stall {
		t.Fatalf("read took %v: dual read waited out the stalled authority (stall %v)", elapsed, stall)
	}
	post := c.Resilience()
	if got := post.Primaries - pre.Primaries; got != 1 {
		t.Fatalf("primaries = %d, want 1", got)
	}
	if got := post.Duals - pre.Duals; got != 1 {
		t.Fatalf("duals = %d, want 1", got)
	}
}

// TestAuthorityBreakerBlockedReadServesOldOwner pins the window read's
// breaker fallback: with only the authority owner breaker-blocked, the
// read is served from the old owner — whose answer the dual path prefers
// anyway — rather than falling back to the authority-ring ladder, whose
// candidates may not hold the migrated content yet and would answer an
// empty profile as a success.
func TestAuthorityBreakerBlockedReadServesOldOwner(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 3)
	c := newClient(t, cl, "east")
	c.opts.HedgeDelay = -1
	now := clock.Now()
	victim, owned := openDrainWindow(t, cl, c, now)

	id := owned[0]
	auth, old := c.dualTargets("east", id)
	if old != victim.Addr {
		t.Fatalf("old owner = %q, want draining node %s", old, victim.Addr)
	}
	openBreaker(t, c, auth)

	pre := c.Resilience()
	resp, err := c.TopK(queryReq(id))
	if err != nil {
		t.Fatalf("read with authority breaker open: %v", err)
	}
	// The data was never flushed, so only the draining node holds it; an
	// empty answer means the read leaked onto the authority ring.
	if len(resp.Features) != 1 || resp.Features[0].Counts[0] != int64(id) {
		t.Fatalf("read returned %+v, want the old owner's copy", resp.Features)
	}
	post := c.Resilience()
	if got := post.Primaries - pre.Primaries; got != 0 {
		t.Fatalf("primaries = %d, want 0 (old-owner-only read)", got)
	}
	if got := post.Duals - pre.Duals; got != 1 {
		t.Fatalf("duals = %d, want 1", got)
	}
	if got := post.DualWins - pre.DualWins; got != 1 {
		t.Fatalf("dual wins = %d, want 1", got)
	}
	if post.Attempts != post.Primaries+post.Retries+post.Hedges+post.Duals {
		t.Fatalf("attempt identity broken: %+v", post)
	}
}

// TestBatchReadInWindowPrefersOldOwner pins the batch half of the window
// read: a batch over keys inside a migration window takes each key's dual
// read, so every slot carries the draining owner's copy — the data lives
// nowhere else — instead of the incoming owner's empty profile.
func TestBatchReadInWindowPrefersOldOwner(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 3)
	c := newClient(t, cl, "east")
	c.opts.HedgeDelay = -1
	now := clock.Now()
	_, owned := openDrainWindow(t, cl, c, now)

	subs := make([]wire.SubQuery, len(owned))
	for i, id := range owned {
		subs[i] = batchSub(id)
	}
	pre := c.Resilience()
	resps, err := c.QueryBatch(subs)
	if err != nil {
		t.Fatalf("windowed batch: %v", err)
	}
	for i, resp := range resps {
		id := owned[i]
		if len(resp.Features) != 1 || resp.Features[0].Counts[0] != int64(id) {
			t.Fatalf("slot %d (profile %d): %+v, want the draining owner's copy", i, id, resp.Features)
		}
	}
	post := c.Resilience()
	if got := post.Duals - pre.Duals; got != int64(len(owned)) {
		t.Fatalf("duals = %d, want %d (one per windowed key)", got, len(owned))
	}
	if post.Attempts != post.Primaries+post.Retries+post.Hedges+post.Duals {
		t.Fatalf("attempt identity broken: %+v", post)
	}
}
