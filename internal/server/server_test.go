package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ips/internal/config"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/quota"
	"ips/internal/wire"
)

// simClock is a controllable millisecond clock.
type simClock struct {
	mu  sync.Mutex
	now model.Millis
}

func (c *simClock) Now() model.Millis {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *simClock) Advance(d model.Millis) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func newInstance(t testing.TB, mutate func(*config.Config)) (*Instance, *simClock) {
	t.Helper()
	cfg := config.Default()
	cfg.WriteIsolation = false // most tests want immediate visibility
	if mutate != nil {
		mutate(&cfg)
	}
	store, err := config.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clock := &simClock{now: 1_000_000_000} // arbitrary epoch
	in, err := New(Options{
		Name:   "ips-test-0",
		Region: "east",
		Store:  kv.NewMemory(),
		Config: store,
		Clock:  clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	if err := in.CreateTable("up", model.NewSchema("like", "share")); err != nil {
		t.Fatal(err)
	}
	return in, clock
}

func addOne(t testing.TB, in *Instance, id model.ProfileID, ts model.Millis, fid model.FeatureID, counts []int64) {
	t.Helper()
	err := in.Add("test", "up", id, []wire.AddEntry{{Timestamp: ts, Slot: 1, Type: 1, FID: fid, Counts: counts}})
	if err != nil {
		t.Fatal(err)
	}
}

func topK(t testing.TB, in *Instance, id model.ProfileID, span model.Millis, k int) *wire.QueryResponse {
	t.Helper()
	resp, err := in.Query(&wire.QueryRequest{
		Caller: "test", Table: "up", ProfileID: id,
		Slot: 1, Type: 1,
		RangeKind: query.Current, Span: span,
		SortBy: query.ByAction, Action: "like", K: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestWriteThenRead(t *testing.T) {
	in, clock := newInstance(t, nil)
	now := clock.Now()
	addOne(t, in, 7, now-1000, 100, []int64{5, 0})
	addOne(t, in, 7, now-2000, 200, []int64{9, 0})

	resp := topK(t, in, 7, 60_000, 10)
	if len(resp.Features) != 2 {
		t.Fatalf("features = %d, want 2", len(resp.Features))
	}
	if resp.Features[0].FID != 200 {
		t.Fatalf("top = %d, want 200", resp.Features[0].FID)
	}
}

func TestQueryUnknownProfileEmpty(t *testing.T) {
	in, _ := newInstance(t, nil)
	resp := topK(t, in, 404, 60_000, 10)
	if len(resp.Features) != 0 {
		t.Fatalf("unknown profile returned %d features", len(resp.Features))
	}
	if resp.CacheHit {
		t.Fatal("unknown profile cannot be a hit")
	}
}

func TestUnknownTable(t *testing.T) {
	in, _ := newInstance(t, nil)
	err := in.Add("test", "nope", 1, []wire.AddEntry{{Timestamp: 1, Slot: 1, Type: 1, FID: 1, Counts: []int64{1, 0}}})
	if !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v, want ErrNoTable", err)
	}
	_, err = in.Query(&wire.QueryRequest{Table: "nope", RangeKind: query.Current, Span: 1})
	if !errors.Is(err, ErrNoTable) {
		t.Fatalf("query err = %v", err)
	}
}

func TestCreateTableTwice(t *testing.T) {
	in, _ := newInstance(t, nil)
	if err := in.CreateTable("up", model.NewSchema("x")); err == nil {
		t.Fatal("duplicate table should fail")
	}
	if err := in.CreateTable("bad", &model.Schema{}); err == nil {
		t.Fatal("invalid schema should fail")
	}
}

func TestWriteIsolationDelayedVisibility(t *testing.T) {
	in, clock := newInstance(t, func(c *config.Config) {
		c.WriteIsolation = true
		c.MergeInterval = config.Duration(time.Hour) // manual merges only
	})
	now := clock.Now()
	addOne(t, in, 7, now-1000, 100, []int64{5, 0})

	// Not yet visible: the write sits in the write table (§III-F).
	resp := topK(t, in, 7, 60_000, 10)
	if len(resp.Features) != 0 {
		t.Fatalf("write visible before merge: %+v", resp.Features)
	}
	in.MergeAll()
	resp = topK(t, in, 7, 60_000, 10)
	if len(resp.Features) != 1 || resp.Features[0].Counts[0] != 5 {
		t.Fatalf("after merge: %+v", resp.Features)
	}
}

func TestWriteIsolationMergePreservesCounts(t *testing.T) {
	in, clock := newInstance(t, func(c *config.Config) {
		c.WriteIsolation = true
		c.MergeInterval = config.Duration(time.Hour)
	})
	now := clock.Now()
	// Interleave merges with writes; totals must be exact.
	for i := 0; i < 50; i++ {
		addOne(t, in, 3, now-model.Millis(i*10), 42, []int64{1, 0})
		if i%7 == 0 {
			in.MergeAll()
		}
	}
	in.MergeAll()
	resp := topK(t, in, 3, 60_000, 1)
	if len(resp.Features) != 1 || resp.Features[0].Counts[0] != 50 {
		t.Fatalf("merged total = %+v, want 50", resp.Features)
	}
}

func TestWriteIsolationMemoryCapForcesMerge(t *testing.T) {
	in, clock := newInstance(t, func(c *config.Config) {
		c.WriteIsolation = true
		c.MergeInterval = config.Duration(time.Hour)
		c.WriteTableMaxBytes = 2048 // tiny cap
	})
	now := clock.Now()
	for i := 0; i < 200; i++ {
		addOne(t, in, model.ProfileID(i), now-1000, model.FeatureID(i), []int64{1, 0})
	}
	// The cap must have forced merges: data visible without MergeAll.
	resp := topK(t, in, 0, 60_000, 1)
	if len(resp.Features) == 0 {
		t.Fatal("cap-forced merge did not happen")
	}
}

func TestHotSwitchIsolationOff(t *testing.T) {
	in, clock := newInstance(t, func(c *config.Config) {
		c.WriteIsolation = true
		c.MergeInterval = config.Duration(time.Hour)
	})
	now := clock.Now()
	// Turn isolation off live (§III-F hot switch).
	if err := in.Config().Mutate(func(c *config.Config) { c.WriteIsolation = false }); err != nil {
		t.Fatal(err)
	}
	addOne(t, in, 8, now-1000, 5, []int64{1, 0})
	resp := topK(t, in, 8, 60_000, 1)
	if len(resp.Features) != 1 {
		t.Fatal("write should be immediately visible with isolation off")
	}
}

func TestQuotaRejection(t *testing.T) {
	in, clock := newInstance(t, nil)
	in.Limiter().SetQuota("greedy", 5)
	now := clock.Now()
	var rejected int
	for i := 0; i < 20; i++ {
		err := in.Add("greedy", "up", 1, []wire.AddEntry{{Timestamp: now, Slot: 1, Type: 1, FID: 1, Counts: []int64{1, 0}}})
		if errors.Is(err, quota.ErrOverQuota) {
			rejected++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if rejected == 0 {
		t.Fatal("quota never rejected")
	}
	if in.Rejected.Value() != int64(rejected) {
		t.Fatalf("rejected counter = %d, want %d", in.Rejected.Value(), rejected)
	}
	// Another caller is unaffected.
	addOne(t, in, 2, now, 1, []int64{1, 0})
}

func TestBatchedAdd(t *testing.T) {
	in, clock := newInstance(t, nil)
	now := clock.Now()
	entries := make([]wire.AddEntry, 10)
	for i := range entries {
		entries[i] = wire.AddEntry{Timestamp: now - model.Millis(i*100), Slot: 1, Type: 1, FID: 9, Counts: []int64{1, 0}}
	}
	if err := in.Add("test", "up", 4, entries); err != nil {
		t.Fatal(err)
	}
	resp := topK(t, in, 4, 60_000, 1)
	if resp.Features[0].Counts[0] != 10 {
		t.Fatalf("batched total = %d, want 10", resp.Features[0].Counts[0])
	}
	if in.Writes.Value() != 10 {
		t.Fatalf("writes counter = %d, want 10", in.Writes.Value())
	}
}

func TestCompactionTriggeredByWrites(t *testing.T) {
	in, clock := newInstance(t, func(c *config.Config) {
		c.PartialCompactThreshold = 8
	})
	// Spread writes over 100 distinct head-width windows to grow the slice
	// list past the threshold.
	head := in.Config().Get().TimeDimension.HeadWidth()
	base := clock.Now()
	windows := make(map[model.Millis]bool)
	for i := 0; i < 100; i++ {
		ts := base - model.Millis(i)*60_000
		windows[ts-ts%head] = true
		addOne(t, in, 5, ts, 7, []int64{1, 0})
	}
	if len(windows) != 100 {
		t.Fatalf("writes covered %d head-width windows, want 100", len(windows))
	}
	// The writes woke the background compactor, and CompactNow runs a
	// synchronous pass; either may do the work, so assert what the two
	// reach together: fewer slices than windows, and every count intact.
	if _, err := in.CompactNow("up", 5); err != nil {
		t.Fatal(err)
	}
	ts, err := in.table("up")
	if err != nil {
		t.Fatal(err)
	}
	p := ts.main.Get(5)
	p.RLock()
	slices := p.NumSlices()
	p.RUnlock()
	if slices >= 100 {
		t.Fatalf("compaction ineffective: %d slices for 100 windows", slices)
	}
	resp := topK(t, in, 5, 365*24*3_600_000, 1)
	if resp.Features[0].Counts[0] != 100 {
		t.Fatalf("count after compaction = %d, want 100", resp.Features[0].Counts[0])
	}
}

func TestStats(t *testing.T) {
	in, clock := newInstance(t, nil)
	now := clock.Now()
	addOne(t, in, 1, now, 1, []int64{1, 0})
	topK(t, in, 1, 60_000, 1)
	st := in.Stats()
	if st.Name != "ips-test-0" || st.Region != "east" {
		t.Fatalf("identity = %s/%s", st.Name, st.Region)
	}
	if st.Profiles != 1 || st.Queries != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MemUsage <= 0 {
		t.Fatal("mem usage should be positive")
	}
	if _, err := in.CacheStats("up"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.CacheStats("nope"); err == nil {
		t.Fatal("CacheStats of unknown table should fail")
	}
}

func TestPersistenceAcrossInstances(t *testing.T) {
	store := kv.NewMemory()
	cfg := config.Default()
	cfg.WriteIsolation = false
	cstore, _ := config.NewStore(cfg)
	clock := &simClock{now: 1_000_000_000}

	in1, err := New(Options{Name: "a", Store: store, Config: cstore, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	if err := in1.CreateTable("up", model.NewSchema("like", "share")); err != nil {
		t.Fatal(err)
	}
	addOne(t, in1, 77, clock.Now()-500, 9, []int64{3, 0})
	if err := in1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh instance over the same store serves the data (cache miss →
	// storage fill).
	in2, err := New(Options{Name: "b", Store: store, Config: cstore, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Close()
	if err := in2.CreateTable("up", model.NewSchema("like", "share")); err != nil {
		t.Fatal(err)
	}
	resp := topK(t, in2, 77, 60_000, 1)
	if len(resp.Features) != 1 || resp.Features[0].Counts[0] != 3 {
		t.Fatalf("restart lost data: %+v", resp.Features)
	}
	if resp.CacheHit {
		t.Fatal("first read after restart must be a miss")
	}
	// Second read is a hit.
	resp = topK(t, in2, 77, 60_000, 1)
	if !resp.CacheHit {
		t.Fatal("second read should hit")
	}
}

func TestClosedInstanceErrors(t *testing.T) {
	in, _ := newInstance(t, nil)
	in.Close()
	if err := in.Add("c", "up", 1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after close = %v", err)
	}
	if _, err := in.Query(&wire.QueryRequest{Table: "up"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after close = %v", err)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	in, clock := newInstance(t, func(c *config.Config) {
		c.WriteIsolation = true
		c.MergeInterval = config.Duration(20 * time.Millisecond)
	})
	now := clock.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := model.ProfileID(i % 20)
				if i%3 == 0 {
					err := in.Add("load", "up", id, []wire.AddEntry{{
						Timestamp: now - model.Millis(i), Slot: 1, Type: 1,
						FID: model.FeatureID(i % 10), Counts: []int64{1, 0},
					}})
					if err != nil {
						errs <- err
						return
					}
				} else {
					_, err := in.Query(&wire.QueryRequest{
						Caller: "load", Table: "up", ProfileID: id,
						Slot: 1, Type: 1, RangeKind: query.Current, Span: 60_000,
						SortBy: query.ByAction, Action: "like", K: 5,
					})
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestServiceOverRPC(t *testing.T) {
	in, clock := newInstance(t, nil)
	svc := NewService(in)
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cl := newTestRPCClient(t, addr)
	now := clock.Now()

	// Ping.
	if resp, err := cl.Call(wire.MethodPing, nil); err != nil || string(resp) != "pong" {
		t.Fatalf("ping = %q, %v", resp, err)
	}
	// Add over RPC.
	addReq := &wire.AddRequest{
		Caller: "rpc", Table: "up", ProfileID: 55,
		Entries: []wire.AddEntry{{Timestamp: now - 100, Slot: 1, Type: 1, FID: 3, Counts: []int64{4, 0}}},
	}
	if _, err := cl.Call(wire.MethodAdd, wire.EncodeAdd(addReq)); err != nil {
		t.Fatal(err)
	}
	// Query over RPC.
	qReq := &wire.QueryRequest{
		Caller: "rpc", Table: "up", ProfileID: 55,
		Slot: 1, Type: 1, RangeKind: query.Current, Span: 60_000,
		SortBy: query.ByAction, Action: "like", K: 1,
	}
	raw, err := cl.Call(wire.MethodTopK, wire.EncodeQuery(qReq))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeQueryResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Features) != 1 || resp.Features[0].Counts[0] != 4 {
		t.Fatalf("rpc query = %+v", resp.Features)
	}
	if resp.ServerNanos <= 0 {
		t.Fatal("server nanos missing")
	}
	// Stats over RPC.
	raw, err = cl.Call(wire.MethodStats, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := wire.DecodeStats(raw)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "ips-test-0" {
		t.Fatalf("stats name = %q", st.Name)
	}
	// Bad table over RPC surfaces as a remote error.
	qReq.Table = "nope"
	if _, err := cl.Call(wire.MethodTopK, wire.EncodeQuery(qReq)); err == nil {
		t.Fatal("unknown table over RPC should error")
	}
}

func BenchmarkServerAdd(b *testing.B) {
	in, clock := newInstance(b, nil)
	now := clock.Now()
	entry := []wire.AddEntry{{Timestamp: now, Slot: 1, Type: 1, FID: 1, Counts: []int64{1, 0}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entry[0].Timestamp = now - model.Millis(i%10_000)
		entry[0].FID = model.FeatureID(i % 100)
		if err := in.Add("bench", "up", model.ProfileID(i%1000), entry); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerQuery(b *testing.B) {
	in, clock := newInstance(b, nil)
	now := clock.Now()
	for i := 0; i < 10_000; i++ {
		_ = in.Add("bench", "up", model.ProfileID(i%100), []wire.AddEntry{{
			Timestamp: now - model.Millis(i*10), Slot: 1, Type: 1,
			FID: model.FeatureID(i % 200), Counts: []int64{1, 0},
		}})
	}
	req := &wire.QueryRequest{
		Caller: "bench", Table: "up", ProfileID: 1,
		Slot: 1, Type: 1, RangeKind: query.Current, Span: 3_600_000,
		SortBy: query.ByAction, Action: "like", K: 20,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ProfileID = model.ProfileID(i % 100)
		if _, err := in.Query(req); err != nil {
			b.Fatal(err)
		}
	}
}
