package wire

import (
	"reflect"
	"testing"

	"ips/internal/query"
)

// FuzzDecodeAdd checks the add decoder on hostile bytes and round-trips
// re-encoded values.
func FuzzDecodeAdd(f *testing.F) {
	f.Add(EncodeAdd(&AddRequest{Caller: "c", Table: "t", ProfileID: 9,
		Entries: []AddEntry{{Timestamp: 5, Slot: 1, Type: 2, FID: 3, Counts: []int64{1, -2}}}}))
	f.Add([]byte{0xff, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeAdd(data)
		if err != nil {
			return
		}
		// Whatever decoded must survive a re-encode/re-decode cycle.
		again, err := DecodeAdd(EncodeAdd(req))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(normalizeAdd(req), normalizeAdd(again)) {
			t.Fatalf("fixpoint mismatch:\n%+v\n%+v", req, again)
		}
	})
}

// normalizeAdd maps empty slices to nil so DeepEqual compares semantics.
func normalizeAdd(r *AddRequest) *AddRequest {
	if len(r.Entries) == 0 {
		r.Entries = nil
	}
	for i := range r.Entries {
		if len(r.Entries[i].Counts) == 0 {
			r.Entries[i].Counts = nil
		}
	}
	return r
}

// FuzzDecodeQuery does the same for query requests.
func FuzzDecodeQuery(f *testing.F) {
	f.Add(EncodeQuery(&QueryRequest{Caller: "c", Table: "t", ProfileID: 1,
		RangeKind: query.Current, Span: 100, SortBy: query.ByAction, K: 5}))
	f.Add([]byte{0x0a, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeQuery(data)
		if err != nil {
			return
		}
		again, err := DecodeQuery(EncodeQuery(req))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(req.FIDs) == 0 {
			req.FIDs = nil
		}
		if len(again.FIDs) == 0 {
			again.FIDs = nil
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("fixpoint mismatch:\n%+v\n%+v", req, again)
		}
	})
}

// FuzzDecodeQueryResponse covers the response path.
func FuzzDecodeQueryResponse(f *testing.F) {
	f.Add(EncodeQueryResponse(&QueryResponse{SlicesScanned: 3, CacheHit: true, ServerNanos: 42}))
	f.Add(squareResponse(20_000)) // shape names 3 GiB of counts; see TestDecodeQueryResponseStaysLinear
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeQueryResponse(data)
		if err != nil {
			return
		}
		if _, err := DecodeQueryResponse(EncodeQueryResponse(resp)); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}
