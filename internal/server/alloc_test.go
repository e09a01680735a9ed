package server

// Allocation gates for the served read path — the tentpole claim the
// hotpathalloc analyzer enforces statically, proven dynamically here:
// a warmed, steady-state, cache-hit single read allocates NOTHING on the
// server, end to end (request decode → cache lookup → feature compute →
// response encode). CI runs these with the race-free default build; a
// regression in any pooled layer (interner, query scratch, response
// buffer, hot slots) fails the gate.

import (
	"context"
	"testing"

	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/wire"
)

func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts do not hold")
	}
}

// warmQueryPayload builds an instance with one resident profile and
// returns the service plus an encoded topK request against it.
func warmQueryPayload(t testing.TB) (*Service, []byte) {
	t.Helper()
	in, _ := newInstance(t, nil)
	for f := 1; f <= 16; f++ {
		addOne(t, in, 7, 1_000_000_000, model.FeatureID(f), []int64{int64(f), int64(f % 3)})
	}
	svc := NewService(in)
	t.Cleanup(func() { svc.Close() })
	req := &wire.QueryRequest{
		Caller: "test", Table: "up", ProfileID: 7,
		Slot: 1, Type: 1,
		RangeKind: query.Current, Span: 10_000,
		SortBy: query.ByAction, Action: "like", K: 8,
	}
	return svc, wire.EncodeQuery(req)
}

// TestServedQueryAllocFree is the headline gate: AllocsPerRun over the
// full fast-path handler must be exactly zero once every pooled layer is
// warm. Warming runs past the hot-slot promotion threshold (default 64
// reads) so the one-time promotion snapshot happens before measurement.
func TestServedQueryAllocFree(t *testing.T) {
	skipUnderRace(t)
	svc, payload := warmQueryPayload(t)
	ctx := context.Background()
	var dst []byte
	var err error
	for i := 0; i < 128; i++ {
		dst, err = svc.fastQuery(ctx, payload, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	}
	var resp wire.QueryResponse
	if err := wire.DecodeQueryResponseInto(dst, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Features) == 0 || !resp.CacheHit {
		t.Fatalf("warmed query must be a cache hit with features; got hit=%v n=%d", resp.CacheHit, len(resp.Features))
	}
	allocs := testing.AllocsPerRun(200, func() {
		dst, err = svc.fastQuery(ctx, payload, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed cache-hit served query: %.2f allocs/run, want 0", allocs)
	}
}

// TestQueryScratchAllocFree gates the compute stage alone: a warmed
// Scratch runs the engine with zero allocations.
func TestQueryScratchAllocFree(t *testing.T) {
	in, _ := newInstance(t, nil)
	for f := 1; f <= 16; f++ {
		addOne(t, in, 9, 1_000_000_000, model.FeatureID(f), []int64{int64(f), 1})
	}
	req := &wire.QueryRequest{
		Caller: "test", Table: "up", ProfileID: 9,
		Slot: 1, Type: 1,
		RangeKind: query.Current, Span: 10_000,
		SortBy: query.ByAction, Action: "like", K: 8,
	}
	resp := &wire.QueryResponse{}
	var sc query.Scratch
	ctx := context.Background()
	for i := 0; i < 128; i++ {
		if err := in.QueryInto(ctx, req, resp, &sc); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := in.QueryInto(ctx, req, resp, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed QueryInto: %.2f allocs/run, want 0", allocs)
	}
}

// queryBatchAllocs is TestQueryBatchAllocs' measured count (60 when each
// sub-query built its own scratch): the batch's own bookkeeping (results,
// grouping, workers) plus, per group, its sub-query slice and the copied
// rows and counts.
const queryBatchAllocs = 19

// TestQueryBatchAllocs pins the batch executor: three sub-queries over
// two profiles, each group run on one pooled scratch and copied out.
func TestQueryBatchAllocs(t *testing.T) {
	skipUnderRace(t)
	in, _ := newInstance(t, nil)
	for id := model.ProfileID(1); id <= 2; id++ {
		for f := 1; f <= 16; f++ {
			addOne(t, in, id, 1_000_000_000, model.FeatureID(f), []int64{int64(f), 1})
		}
	}
	subs := []wire.SubQuery{batchSub(1, 10_000, 8), batchSub(1, 10_000, 4), batchSub(2, 10_000, 8)}
	for i := 0; i < 128; i++ {
		in.QueryBatch("test", subs)
	}
	allocs := testing.AllocsPerRun(200, func() { in.QueryBatch("test", subs) })
	t.Logf("QueryBatch: %.2f allocs/run", allocs)
	if allocs > queryBatchAllocs {
		t.Fatalf("QueryBatch: %.2f allocs/run, pinned at %d", allocs, queryBatchAllocs)
	}
}

// TestWireCodecAllocFree gates the codec stage: request decode through a
// warmed interner and response encode into a reused buffer.
func TestWireCodecAllocFree(t *testing.T) {
	svc, payload := warmQueryPayload(t)
	var req wire.QueryRequest
	if err := wire.DecodeQueryInto(payload, &req, &svc.interner); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.in.QueryCtx(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	var dst []byte
	dst = wire.AppendQueryResponse(dst[:0], resp)
	allocs := testing.AllocsPerRun(200, func() {
		if err := wire.DecodeQueryInto(payload, &req, &svc.interner); err != nil {
			t.Fatal(err)
		}
		dst = wire.AppendQueryResponse(dst[:0], resp)
	})
	if allocs != 0 {
		t.Fatalf("warmed wire decode+encode: %.2f allocs/run, want 0", allocs)
	}
	var back wire.QueryResponse
	if err := wire.DecodeQueryResponseInto(dst, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Features) != len(resp.Features) {
		t.Fatalf("codec roundtrip lost features: %d != %d", len(back.Features), len(resp.Features))
	}
}

// BenchmarkServedQuery measures the full fast-path handler; run with
// -benchmem — the gate above pins allocs/op at 0, this reports ns/op.
func BenchmarkServedQuery(b *testing.B) {
	svc, payload := warmQueryPayload(b)
	ctx := context.Background()
	var dst []byte
	var err error
	for i := 0; i < 128; i++ {
		if dst, err = svc.fastQuery(ctx, payload, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = svc.fastQuery(ctx, payload, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
