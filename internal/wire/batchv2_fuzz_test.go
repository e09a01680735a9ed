package wire

import (
	"reflect"
	"testing"

	"ips/internal/codec"
	"ips/internal/query"
)

// v2Frame hand-builds a shared-structure frame from raw blob payloads and
// (err, ref) result pairs — for corpus entries the encoder would never
// produce (dangling refs, duplicate refs to one blob, ref-before-blob
// field order).
func v2Frame(blobs [][]byte, results [][2]interface{}) []byte {
	var e codec.Buffer
	for _, b := range blobs {
		e.Raw(fB2Blob, b)
	}
	for _, r := range results {
		errStr := r[0].(string)
		ref := r[1].(uint32)
		e.Message(fB2Result, func(b *codec.Buffer) {
			b.String(fB2RErr, errStr)
			if ref != 0 {
				b.Uint32(fB2RRef, ref)
			}
		})
	}
	return append([]byte(nil), e.Bytes()...)
}

// FuzzDecodeQueryBatchResponseV2 covers the shared-structure decoder on
// hostile frames: duplicate references (two slots, one blob), dangling
// references past the pool, self-referential garbage, and truncations.
// Whatever decodes must re-encode to a fixpoint and uphold the failed-
// slot invariant (Err != "" => Resp == nil).
func FuzzDecodeQueryBatchResponseV2(f *testing.F) {
	shared := &QueryResponse{SlicesScanned: 2, CacheHit: true, ServerNanos: 42,
		Features: []query.Feature{{FID: 7, Counts: []int64{3, -1}, LastSeen: 9}}}

	// Encoder-shaped seeds: high duplication, failed slots, empty batch.
	f.Add(EncodeQueryBatchResponseV2(&BatchQueryResponse{Results: []BatchResult{
		{Resp: shared}, {Resp: shared}, {Resp: shared},
		{Err: "unknown table \"ghost\""},
		{Resp: &QueryResponse{}},
	}}))
	f.Add(EncodeQueryBatchResponseV2(&BatchQueryResponse{}))

	blob := EncodeQueryResponse(shared)
	// Duplicate refs: four slots sharing one blob.
	f.Add(v2Frame([][]byte{blob}, [][2]interface{}{
		{"", uint32(1)}, {"", uint32(1)}, {"", uint32(1)}, {"", uint32(1)},
	}))
	// Dangling ref: points past the pool — must be a decode error.
	f.Add(v2Frame([][]byte{blob}, [][2]interface{}{{"", uint32(2)}}))
	// Ref with an empty pool.
	f.Add(v2Frame(nil, [][2]interface{}{{"", uint32(7)}}))
	// Err alongside a valid ref: decodes with Resp == nil.
	f.Add(v2Frame([][]byte{blob}, [][2]interface{}{{"boom", uint32(1)}}))
	// A blob that is itself a v2 frame (ref "cycle" shape): the pool
	// decoder must treat it as a QueryResponse payload, never recurse.
	self := v2Frame([][]byte{blob}, [][2]interface{}{{"", uint32(1)}})
	f.Add(v2Frame([][]byte{self}, [][2]interface{}{{"", uint32(1)}}))
	// Hostile raw bytes.
	f.Add([]byte{0x0a, 0xff, 0x01})
	f.Add([]byte{0x12, 0x02, 0x10, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeQueryBatchResponseV2(data)
		if err != nil {
			return
		}
		again, err := DecodeQueryBatchResponseV2(EncodeQueryBatchResponseV2(resp))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(normalizeBatchResp(resp), normalizeBatchResp(again)) {
			t.Fatalf("fixpoint mismatch:\n%+v\n%+v", resp, again)
		}
		for i, br := range again.Results {
			if br.Err != "" && br.Resp != nil {
				t.Fatalf("slot %d: error %q alongside a response", i, br.Err)
			}
		}
	})
}

// TestBatchV2DanglingRef pins that a reference past the blob pool is a
// decode error, not a nil slot — a decoder that silently nils the slot
// would mask server bugs as empty results.
func TestBatchV2DanglingRef(t *testing.T) {
	blob := EncodeQueryResponse(&QueryResponse{ServerNanos: 1})
	for _, ref := range []uint32{2, 3, 1 << 20} {
		frame := v2Frame([][]byte{blob}, [][2]interface{}{{"", ref}})
		if _, err := DecodeQueryBatchResponseV2(frame); err == nil {
			t.Fatalf("ref %d of 1 blob decoded without error", ref)
		}
	}
}

// TestBatchV2SharesDecodedBlobs: duplicate references resolve to the
// SAME decoded object — the codec-CPU half of the v2 win (decode once,
// point many times).
func TestBatchV2SharesDecodedBlobs(t *testing.T) {
	shared := &QueryResponse{CacheHit: true, ServerNanos: 7,
		Features: []query.Feature{{FID: 3, Counts: []int64{9, 9}}}}
	enc := EncodeQueryBatchResponseV2(&BatchQueryResponse{Results: []BatchResult{
		{Resp: shared}, {Resp: shared}, {Err: "x"}, {Resp: shared},
	}})
	got, err := DecodeQueryBatchResponseV2(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(got.Results))
	}
	if got.Results[0].Resp == nil || got.Results[0].Resp != got.Results[1].Resp || got.Results[1].Resp != got.Results[3].Resp {
		t.Fatal("duplicate refs must share one decoded response object")
	}
	if got.Results[2].Resp != nil || got.Results[2].Err != "x" {
		t.Fatalf("failed slot decoded as %+v", got.Results[2])
	}
}

// TestBatchV2RoundTrip pins the encoding's two properties: for any
// response, decode(encodeV2(r)) == r, and at duplication factors >= 8 the
// shared-structure frame is under half of what embedding one copy per
// slot would cost.
func TestBatchV2RoundTrip(t *testing.T) {
	big := &QueryResponse{SlicesScanned: 12, CacheHit: true, ServerNanos: 98765}
	for i := 0; i < 40; i++ {
		big.Features = append(big.Features, query.Feature{
			FID: uint64(i + 1), Counts: []int64{int64(i), int64(2 * i), 7}, LastSeen: 1000 + int64(i), Score: float64(i) / 3,
		})
	}
	perCopy := len(EncodeQueryResponse(big))
	for _, dup := range []int{1, 8, 64} {
		r := &BatchQueryResponse{}
		for i := 0; i < dup; i++ {
			r.Results = append(r.Results, BatchResult{Resp: big})
		}
		r.Results = append(r.Results, BatchResult{Err: "tail slot failed"})

		frame := EncodeQueryBatchResponseV2(r)
		got, err := DecodeQueryBatchResponseV2(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeBatchResp(r), normalizeBatchResp(got)) {
			t.Fatalf("dup %d: decode(encode(r)) != r", dup)
		}
		if dup >= 8 && len(frame)*2 > dup*perCopy {
			t.Errorf("dup %d: frame %dB not under half of %d copies (%dB)", dup, len(frame), dup, dup*perCopy)
		}
		t.Logf("dup %d: frame=%dB copies=%dB (%.1f%%)", dup, len(frame), dup*perCopy, 100*float64(len(frame))/float64(dup*perCopy))
	}
}
