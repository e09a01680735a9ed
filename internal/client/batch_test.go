package client

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/wire"
)

func batchSub(id model.ProfileID) wire.SubQuery {
	return wire.SubQuery{Op: wire.OpTopK, Query: wire.QueryRequest{
		Table: "up", ProfileID: id, Slot: 1, Type: 1,
		RangeKind: query.Current, Span: 3_600_000,
		SortBy: query.ByAction, Action: "like", K: 10,
	}}
}

// writeCounter wraps every pooled connection c dials from now on and
// counts the writes each one makes. It must run before c dials anything.
type writeCounter struct {
	mu     sync.Mutex
	writes []*atomic.Int64 // one per dialed connection
}

func countWrites(t *testing.T, c *Client) *writeCounter {
	t.Helper()
	c.RefreshNow()
	wc := &writeCounter{}
	for _, rs := range c.routes.Load().regions {
		for _, conn := range rs.conns {
			conn.DialFunc = func(addr string, timeout time.Duration) (net.Conn, error) {
				nc, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					return nil, err
				}
				n := new(atomic.Int64)
				wc.mu.Lock()
				wc.writes = append(wc.writes, n)
				wc.mu.Unlock()
				return countingConn{Conn: nc, writes: n}, nil
			}
		}
	}
	return wc
}

// snapshot returns every counted connection's writes so far.
func (wc *writeCounter) snapshot() []int64 {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	out := make([]int64, len(wc.writes))
	for i, n := range wc.writes {
		out[i] = n.Load()
	}
	return out
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (cc countingConn) Write(p []byte) (int, error) {
	cc.writes.Add(1)
	return cc.Conn.Write(p)
}

// TestQueryBatchCoalescing pins what a batch is on the wire: N
// sub-queries are N primaries, each served by its own ring owner, with
// every response in its input slot — and the N frames leave in at most
// one client write per pooled connection used.
func TestQueryBatchCoalescing(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 3)
	c := newResilientClient(t, cl, Options{Region: "east", HedgeDelay: -1})
	wc := countWrites(t, c)
	now := clock.Now()

	const n = 32
	for id := model.ProfileID(1); id <= n; id++ {
		if err := c.Add("up", id, wire.AddEntry{
			Timestamp: now - 1000, Slot: 1, Type: 1, FID: model.FeatureID(id), Counts: []int64{int64(id), 0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	forceVisible(cl)

	// The expected routing: each profile's ring owner serves it.
	owned := make(map[string]int64)
	subs := make([]wire.SubQuery, 0, n)
	for id := model.ProfileID(1); id <= n; id++ {
		owned[c.route("east", id)]++
		subs = append(subs, batchSub(id))
	}
	if len(owned) < 2 {
		t.Fatalf("degenerate routing: %d shards for %d profiles", len(owned), n)
	}

	queries := make(map[string]int64)
	for _, node := range cl.Nodes() {
		queries[node.Addr] = node.Instance().Stats().Queries
	}
	pre := c.Resilience()
	writes := wc.snapshot()
	resps, err := c.QueryBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	after := wc.snapshot()

	for i, w := range after {
		var was int64
		if i < len(writes) {
			was = writes[i]
		}
		if w-was > 1 {
			t.Fatalf("connection %d carried the batch in %d writes, want at most 1", i, w-was)
		}
	}
	post := c.Resilience()
	if got := post.Primaries - pre.Primaries; got != n {
		t.Fatalf("primaries = %d, want %d (one per sub-query)", got, n)
	}
	if got := post.Attempts - pre.Attempts; got != n {
		t.Fatalf("attempts = %d, want %d", got, n)
	}
	for _, node := range cl.Nodes() {
		if got := node.Instance().Stats().Queries - queries[node.Addr]; got != owned[node.Addr] {
			t.Fatalf("%s served %d sub-queries, owns %d", node.Addr, got, owned[node.Addr])
		}
	}
	// Responses land in input order: each slot holds its profile's
	// feature.
	for i, resp := range resps {
		id := subs[i].Query.ProfileID
		if resp == nil || len(resp.Features) != 1 || resp.Features[0].FID != id ||
			resp.Features[0].Counts[0] != int64(id) {
			t.Fatalf("slot %d (profile %d): %+v", i, id, resp)
		}
	}
	if got := c.BatchSize.Max(); got != n {
		t.Fatalf("BatchSize max = %d, want %d", got, n)
	}
	if got := c.BatchRPCs.Value(); got != 0 {
		t.Fatalf("BatchRPCs = %d: the client sent a batch RPC", got)
	}
}

func TestQueryBatchPartialFailure(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 2)
	c := newClient(t, cl, "east")
	now := clock.Now()
	if err := c.Add("up", 1, wire.AddEntry{Timestamp: now - 10, Slot: 1, Type: 1, FID: 3, Counts: []int64{2, 0}}); err != nil {
		t.Fatal(err)
	}
	forceVisible(cl)

	bad := batchSub(2)
	bad.Query.Table = "ghost"
	subs := []wire.SubQuery{batchSub(1), bad, batchSub(1)}
	resps, err := c.QueryBatch(subs)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	var perr *PartialError
	if !errors.As(err, &perr) || len(perr.Failed) != 1 || perr.Failed[0] != 1 {
		t.Fatalf("PartialError = %+v", perr)
	}
	if resps[1] != nil {
		t.Fatalf("failed slot non-nil: %+v", resps[1])
	}
	for _, i := range []int{0, 2} {
		if resps[i] == nil || len(resps[i].Features) != 1 || resps[i].Features[0].FID != 3 {
			t.Fatalf("slot %d = %+v", i, resps[i])
		}
	}
	if c.PartialBatches.Value() != 1 {
		t.Fatalf("PartialBatches = %d", c.PartialBatches.Value())
	}
}

// TestQueryBatchShardFailover crashes one instance without letting
// discovery notice, so every sub-query whose primary went to the dead
// shard fails in transport and retries down its own candidates under the
// retry budget. A slot either answers correctly or failed because the
// budget denied its retry. Once the victim's breaker is open, a batch
// routes around it with no retries at all.
func TestQueryBatchShardFailover(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 2)
	c := newClient(t, cl, "east")
	now := clock.Now()

	const n = 16
	for id := model.ProfileID(1); id <= n; id++ {
		if err := c.Add("up", id, wire.AddEntry{
			Timestamp: now - 1000, Slot: 1, Type: 1, FID: model.FeatureID(id), Counts: []int64{1, 0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	forceVisible(cl)
	// Persist everything so the surviving instance can load the dead
	// shard's profiles from the shared regional store.
	for _, node := range cl.Nodes() {
		if err := node.Instance().FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	victim := cl.Nodes()[0]
	if err := cl.Crash(victim.Name); err != nil {
		t.Fatal(err)
	}
	// No RefreshNow: the client's ring still maps profiles to the dead
	// address.

	subs := make([]wire.SubQuery, 0, n)
	for id := model.ProfileID(1); id <= n; id++ {
		subs = append(subs, batchSub(id))
	}
	check := func(resps []*wire.QueryResponse, err error) int {
		t.Helper()
		failed := make(map[int]bool)
		if err != nil {
			var perr *PartialError
			if !errors.As(err, &perr) {
				t.Fatalf("batch after shard crash: %v", err)
			}
			for _, i := range perr.Failed {
				failed[i] = true
			}
		}
		for i, resp := range resps {
			id := subs[i].Query.ProfileID
			if failed[i] {
				continue
			}
			if resp == nil || len(resp.Features) != 1 || resp.Features[0].FID != id {
				t.Fatalf("slot %d (profile %d) after failover: %+v", i, id, resp)
			}
		}
		return len(failed)
	}
	pre := c.Resilience()
	failed := check(c.QueryBatch(subs))
	post := c.Resilience()
	if denied := post.RetriesDenied - pre.RetriesDenied; int64(failed) != denied {
		t.Fatalf("%d slots failed, the budget denied %d retries", failed, denied)
	}
	if c.Failovers.Value() == 0 {
		t.Fatal("no failovers recorded despite a dead shard")
	}

	openBreaker(t, c, victim.Addr)
	pre = c.Resilience()
	if failed := check(c.QueryBatch(subs)); failed != 0 {
		t.Fatalf("%d slots failed with the dead shard's breaker open", failed)
	}
	if got := c.Resilience().Retries - pre.Retries; got != 0 {
		t.Fatalf("%d retries with the dead shard's breaker open, want 0", got)
	}
}

func TestQueryBatchEmptyAndNoInstances(t *testing.T) {
	cl, _ := newCluster(t, []string{"east"}, 1)
	c := newClient(t, cl, "east")
	if resps, err := c.QueryBatch(nil); resps != nil || err != nil {
		t.Fatalf("empty batch = %v, %v", resps, err)
	}
	cl.CrashRegion("east")
	time.Sleep(1200 * time.Millisecond)
	c.RefreshNow()
	resps, err := c.QueryBatch([]wire.SubQuery{batchSub(1), batchSub(2)})
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	var perr *PartialError
	if !errors.As(err, &perr) || len(perr.Failed) != 2 {
		t.Fatalf("PartialError = %+v", perr)
	}
	for i, r := range resps {
		if r != nil {
			t.Fatalf("slot %d non-nil with no instances", i)
		}
	}
}

// TestStatsPartialFailure fault-injects a 100% response drop on one
// instance and asserts Stats surfaces the partial results alongside a
// PartialError instead of silently swallowing the failure.
func TestStatsPartialFailure(t *testing.T) {
	cl, _ := newCluster(t, []string{"east"}, 2)
	c, err := New(Options{
		Caller: "test", Service: "ips", Region: "east",
		Registry:        cl.Registry,
		RefreshInterval: 20 * time.Millisecond,
		CallTimeout:     300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.RefreshNow()

	// Drop every response from one instance: the client sees timeouts.
	nodes := cl.Nodes()
	nodes[0].Service().RPC().SetDropRate(func() float64 { return 1 })

	stats, err := c.Stats()
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	var perr *PartialError
	if !errors.As(err, &perr) || len(perr.Failed) != 1 {
		t.Fatalf("PartialError = %+v", perr)
	}
	if len(stats) != 1 {
		t.Fatalf("got %d stats, want 1 (the healthy instance)", len(stats))
	}

	// Both instances dark: no results, error wraps ErrNoInstances.
	nodes[1].Service().RPC().SetDropRate(func() float64 { return 1 })
	if stats, err = c.Stats(); len(stats) != 0 || !errors.Is(err, ErrNoInstances) {
		t.Fatalf("all-dark stats = %v, %v", stats, err)
	}
}
