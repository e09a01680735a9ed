package server

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ips/internal/config"
	"ips/internal/gcache"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/wal"
	"ips/internal/wire"
)

func batchSub(id model.ProfileID, span model.Millis, k int) wire.SubQuery {
	return wire.SubQuery{Op: wire.OpTopK, Query: wire.QueryRequest{
		Caller: "test", Table: "up", ProfileID: id,
		Slot: 1, Type: 1,
		RangeKind: query.Current, Span: span,
		SortBy: query.ByAction, Action: "like", K: k,
	}}
}

func TestQueryBatchMatchesSingles(t *testing.T) {
	in, clock := newInstance(t, nil)
	now := clock.Now()
	for id := model.ProfileID(1); id <= 10; id++ {
		for f := 0; f < 4; f++ {
			addOne(t, in, id, now-model.Millis(f*1000), model.FeatureID(f+1), []int64{int64(f + 1), 0})
		}
	}

	// Mixed batch: several sub-queries per profile exercise the
	// single-cache-pass grouping; the unknown table and the bad span are
	// per-slot failures.
	subs := []wire.SubQuery{
		batchSub(1, 3_600_000, 2),
		batchSub(2, 3_600_000, 0),
		{Op: wire.OpFilter, Query: wire.QueryRequest{
			Caller: "test", Table: "up", ProfileID: 1, Slot: 1, Type: 1,
			RangeKind: query.Current, Span: 3_600_000,
			SortBy: query.ByAction, Action: "like", MinCount: 3,
		}},
		{Op: wire.OpTopK, Query: wire.QueryRequest{
			Caller: "test", Table: "nope", ProfileID: 3, Slot: 1, Type: 1,
			RangeKind: query.Current, Span: 3_600_000,
			SortBy: query.ByAction, Action: "like",
		}},
		batchSub(4, -5, 1),         // bad span: per-slot error
		batchSub(99, 3_600_000, 3), // unknown profile: empty success
		{Op: wire.OpDecay, Query: wire.QueryRequest{
			Caller: "test", Table: "up", ProfileID: 2, Slot: 1, Type: 1,
			RangeKind: query.Current, Span: 3_600_000,
			SortBy: query.ByAction, Action: "like",
			Decay: query.DecayExp, DecayFactor: 0.5,
		}},
	}
	results := in.QueryBatch("test", subs)
	if len(results) != len(subs) {
		t.Fatalf("got %d results for %d subs", len(results), len(subs))
	}
	for i, sub := range subs {
		single, err := in.Query(&sub.Query)
		br := results[i]
		if err != nil {
			if br.Err == "" {
				t.Fatalf("sub %d: single errored (%v) but batch succeeded", i, err)
			}
			if br.Resp != nil {
				t.Fatalf("sub %d: failed slot carries a response", i)
			}
			continue
		}
		if br.Err != "" {
			t.Fatalf("sub %d: single succeeded but batch failed: %s", i, br.Err)
		}
		if !reflect.DeepEqual(single.Features, br.Resp.Features) {
			t.Fatalf("sub %d: features differ\nsingle: %+v\nbatch:  %+v", i, single.Features, br.Resp.Features)
		}
		if single.SlicesScanned != br.Resp.SlicesScanned {
			t.Fatalf("sub %d: scanned %d vs %d", i, single.SlicesScanned, br.Resp.SlicesScanned)
		}
	}
}

func TestQueryBatchUnknownTableSlots(t *testing.T) {
	in, _ := newInstance(t, nil)
	subs := []wire.SubQuery{
		{Query: wire.QueryRequest{Caller: "test", Table: "ghost", ProfileID: 1,
			RangeKind: query.Current, Span: 1000}},
		batchSub(1, 3_600_000, 1),
	}
	results := in.QueryBatch("test", subs)
	if results[0].Err == "" || !strings.Contains(results[0].Err, "unknown table") {
		t.Fatalf("slot 0 = %+v, want unknown-table error", results[0])
	}
	if results[1].Err != "" {
		t.Fatalf("slot 1 failed: %s", results[1].Err)
	}
}

func TestQueryBatchCountsQueries(t *testing.T) {
	in, clock := newInstance(t, nil)
	addOne(t, in, 1, clock.Now()-10, 1, []int64{1, 0})
	before := in.Queries.Value()
	subs := []wire.SubQuery{batchSub(1, 3_600_000, 1), batchSub(1, 3_600_000, 2), batchSub(2, 3_600_000, 1)}
	in.QueryBatch("test", subs)
	if got := in.Queries.Value() - before; got != int64(len(subs)) {
		t.Fatalf("Queries advanced by %d, want %d", got, len(subs))
	}
}

// TestQueryBatchOverRPC exercises the wire handler end to end.
func TestQueryBatchOverRPC(t *testing.T) {
	in, clock := newInstance(t, nil)
	now := clock.Now()
	addOne(t, in, 7, now-10, 5, []int64{3, 0})
	svc := NewService(in)
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	c := newTestRPCClient(t, addr)

	req := &wire.BatchQueryRequest{Caller: "test", Subs: []wire.SubQuery{
		batchSub(7, 3_600_000, 5),
		{Query: wire.QueryRequest{Caller: "test", Table: "ghost", ProfileID: 7,
			RangeKind: query.Current, Span: 1000}},
	}}
	raw, err := c.Call(wire.MethodQueryBatchV2, wire.EncodeQueryBatch(req))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeQueryBatchResponseV2(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	if resp.Results[0].Err != "" || len(resp.Results[0].Resp.Features) != 1 {
		t.Fatalf("slot 0 = %+v", resp.Results[0])
	}
	if resp.Results[0].Resp.Features[0].FID != 5 {
		t.Fatalf("slot 0 fid = %d", resp.Results[0].Resp.Features[0].FID)
	}
	if resp.Results[1].Err == "" || resp.Results[1].Resp != nil {
		t.Fatalf("slot 1 = %+v, want error slot", resp.Results[1])
	}
}

// TestQueryBatchCarriesWalLSN: a batch sub-result reports the same
// freshness watermark as the single read of the same profile and
// request, both when the live profile serves it and when a hot sealed
// form does.
func TestQueryBatchCarriesWalLSN(t *testing.T) {
	jn, err := wal.Open(filepath.Join(t.TempDir(), "journal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jn.Close() })
	cfg := config.Default()
	cfg.WriteIsolation = false
	cfgs, err := config.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clock := &simClock{now: 1_000_000_000}
	in, err := New(Options{
		Name: "ips-test-0", Store: kv.NewMemory(), Config: cfgs, Clock: clock.Now, Journal: jn,
		Cache: gcache.Options{HotSlots: 1, HotPromoteAfter: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	if err := in.CreateTable("up", model.NewSchema("like", "share")); err != nil {
		t.Fatal(err)
	}
	for f := 1; f <= 3; f++ {
		addOne(t, in, 7, clock.Now()-model.Millis(f*1000), model.FeatureID(f), []int64{int64(f), 0})
	}
	sub := batchSub(7, 3_600_000, 5)
	check := func(hot bool) {
		t.Helper()
		before, _ := in.CacheStats("up")
		single, err := in.Query(&sub.Query)
		if err != nil {
			t.Fatal(err)
		}
		res := in.QueryBatch("test", []wire.SubQuery{sub})
		if res[0].Err != "" {
			t.Fatal(res[0].Err)
		}
		if single.WalLSN == 0 {
			t.Fatal("a journaled profile's read must report its watermark")
		}
		if got := res[0].Resp.WalLSN; got != single.WalLSN {
			t.Fatalf("hot=%v: batch WalLSN %d, single read %d", hot, got, single.WalLSN)
		}
		want := int64(0)
		if hot {
			want = 2
		}
		if after, _ := in.CacheStats("up"); after.HotHits-before.HotHits != want {
			t.Fatalf("hot=%v: %d of the 2 reads were served hot", hot, after.HotHits-before.HotHits)
		}
	}
	check(false)
	for i := 0; i < 16; i++ {
		if _, err := in.Query(&sub.Query); err != nil {
			t.Fatal(err)
		}
	}
	check(true)
}
