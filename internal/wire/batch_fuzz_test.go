package wire

import (
	"reflect"
	"testing"

	"ips/internal/model"
	"ips/internal/query"
)

// normalizeBatchReq maps empty slices to nil so DeepEqual compares
// semantics, mirroring normalizeAdd.
func normalizeBatchReq(r *BatchQueryRequest) *BatchQueryRequest {
	if len(r.Subs) == 0 {
		r.Subs = nil
	}
	for i := range r.Subs {
		if len(r.Subs[i].Query.FIDs) == 0 {
			r.Subs[i].Query.FIDs = nil
		}
	}
	return r
}

func normalizeBatchResp(r *BatchQueryResponse) *BatchQueryResponse {
	if len(r.Results) == 0 {
		r.Results = nil
	}
	for i := range r.Results {
		resp := r.Results[i].Resp
		if resp == nil {
			continue
		}
		if len(resp.Features) == 0 {
			resp.Features = nil
		}
		for j := range resp.Features {
			if len(resp.Features[j].Counts) == 0 {
				resp.Features[j].Counts = nil
			}
		}
	}
	return r
}

// FuzzDecodeQueryBatch checks the batch request decoder on hostile bytes
// and round-trips whatever decodes.
func FuzzDecodeQueryBatch(f *testing.F) {
	f.Add(EncodeQueryBatch(&BatchQueryRequest{Caller: "c", Subs: []SubQuery{
		{Op: OpTopK, Query: QueryRequest{Table: "t", ProfileID: 1,
			RangeKind: query.Current, Span: 100, SortBy: query.ByAction, Action: "like", K: 5}},
		{Op: OpFilter, Query: QueryRequest{Table: "t", ProfileID: 2, MinCount: 3}},
		{Op: OpDecay, Query: QueryRequest{Table: "t", ProfileID: 3,
			Decay: query.DecayExp, DecayFactor: 0.5}},
	}}))
	f.Add(EncodeQueryBatch(&BatchQueryRequest{}))
	f.Add([]byte{0x0a, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeQueryBatch(data)
		if err != nil {
			return
		}
		again, err := DecodeQueryBatch(EncodeQueryBatch(req))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(normalizeBatchReq(req), normalizeBatchReq(again)) {
			t.Fatalf("fixpoint mismatch:\n%+v\n%+v", req, again)
		}
	})
}

// TestBatchCodecRoundTrip pins the happy-path encoding deterministically
// (the fuzzers only see it if coverage drives them there).
func TestBatchCodecRoundTrip(t *testing.T) {
	req := &BatchQueryRequest{Caller: "ranker", Subs: []SubQuery{
		{Op: OpDecay, Query: QueryRequest{Caller: "ranker", Table: "up", ProfileID: 12,
			Slot: 1, Type: 2, RangeKind: query.Relative, Span: 5000,
			SortBy: query.ByTotal, K: 3, Decay: query.DecayLinear, DecayFactor: 0.25,
			FIDs: []model.FeatureID{4, 5}}},
		{Op: OpTopK, Query: QueryRequest{Table: "up", ProfileID: 13}},
	}}
	got, err := DecodeQueryBatch(EncodeQueryBatch(req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, got) {
		t.Fatalf("request round-trip:\n%+v\n%+v", req, got)
	}

	resp := &BatchQueryResponse{Results: []BatchResult{
		{Resp: &QueryResponse{Features: []query.Feature{{FID: 9, Counts: []int64{1, 2}, LastSeen: 77, Score: 1.5}},
			SlicesScanned: 4, CacheHit: true, ServerNanos: 1234}},
		{Err: "query: CURRENT range needs positive span"},
	}}
	rgot, err := DecodeQueryBatchResponseV2(EncodeQueryBatchResponseV2(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, rgot) {
		t.Fatalf("response round-trip:\n%+v\n%+v", resp, rgot)
	}
	if m := OpFilter.Method(); m != MethodFilter {
		t.Fatalf("OpFilter.Method() = %q", m)
	}
}
