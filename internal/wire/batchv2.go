package wire

import (
	"fmt"

	"ips/internal/codec"
)

// MethodQueryBatchV2 is the batch read: a BatchQueryRequest in, a
// shared-structure BatchQueryResponse out. Instead of embedding one
// QueryResponse per slot, the server encodes each DISTINCT response once
// in a blob pool and each slot carries a small reference into it. Ranking
// batches at high duplication factors (many sub-queries scoring windows
// of the same hot profile) ask the same question many times and get the
// same answer — the encoding pays the codec CPU and wire bytes for that
// answer once.
//
// The client no longer sends it: a client batch is N single reads
// (DESIGN.md "Batched reads"). The method, its codecs and their fuzzers
// stay because the benchmark's traced run (benchmark/trace.go) calls them.
const MethodQueryBatchV2 = "ips.query_batch2"

// Field numbers for the v2 batch response.
const (
	// fB2Blob is a repeated bytes field: the pool of distinct encoded
	// QueryResponse payloads, in first-use order.
	fB2Blob = 1
	// fB2Result is a repeated message: one per sub-query, in request
	// order.
	fB2Result = 2

	// Inside a result message: the error string, and a 1-based reference
	// into the blob pool (0 = no response, the failed-slot shape).
	fB2RErr = 1
	fB2RRef = 2
)

// EncodeQueryBatchResponseV2 serializes a BatchQueryResponse with
// shared-structure encoding: each distinct response body is encoded and
// written once, and duplicate slots cost one varint reference each.
// Distinctness is judged on the encoded bytes, so two slots share a blob
// exactly when their responses encode identically.
func EncodeQueryBatchResponseV2(r *BatchQueryResponse) []byte {
	var e codec.Buffer
	refs := make([]uint32, len(r.Results))
	seen := make(map[string]uint32, len(r.Results))
	for i := range r.Results {
		br := &r.Results[i]
		if br.Resp == nil {
			continue // ref stays 0
		}
		enc := EncodeQueryResponse(br.Resp)
		if ref, ok := seen[string(enc)]; ok {
			refs[i] = ref
			continue
		}
		e.Raw(fB2Blob, enc)
		ref := uint32(len(seen) + 1)
		seen[string(enc)] = ref
		refs[i] = ref
	}
	for i := range r.Results {
		br := &r.Results[i]
		ref := refs[i]
		e.Message(fB2Result, func(b *codec.Buffer) {
			b.String(fB2RErr, br.Err)
			if ref != 0 {
				b.Uint32(fB2RRef, ref)
			}
		})
	}
	return append([]byte(nil), e.Bytes()...)
}

// DecodeQueryBatchResponseV2 parses a shared-structure batch response.
// Each blob is decoded once; slots referencing the same blob SHARE the
// decoded *QueryResponse, so callers must treat batch results as
// read-only (the client does). A reference past the blob pool is a
// decode error — references are resolved after the full frame is read,
// so blob/result field order does not matter on hostile input. A slot
// with a non-empty Err never carries a response, whatever its ref says.
func DecodeQueryBatchResponseV2(data []byte) (*BatchQueryResponse, error) {
	var blobs [][]byte
	type rawResult struct {
		err string
		ref uint32
	}
	var raws []rawResult
	rd := codec.NewReader(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return nil, decodeErr("batch2", err)
		}
		switch f {
		case fB2Blob:
			b, err := rd.Bytes()
			if err != nil {
				return nil, decodeErr("batch2 blob", err)
			}
			blobs = append(blobs, b)
		case fB2Result:
			sub, err := rd.Message()
			if err != nil {
				return nil, decodeErr("batch2 result", err)
			}
			var rr rawResult
			for !sub.Done() {
				sf, swt, err := sub.Next()
				if err != nil {
					return nil, decodeErr("batch2 result field", err)
				}
				switch sf {
				case fB2RErr:
					if rr.err, err = sub.String(); err != nil {
						return nil, decodeErr("batch2 result err", err)
					}
				case fB2RRef:
					if rr.ref, err = sub.Uint32(); err != nil {
						return nil, decodeErr("batch2 result ref", err)
					}
				default:
					if err := sub.Skip(swt); err != nil {
						return nil, decodeErr("batch2 result skip", err)
					}
				}
			}
			raws = append(raws, rr)
		default:
			if err := rd.Skip(wt); err != nil {
				return nil, decodeErr("batch2 skip", err)
			}
		}
	}

	// Decode the pool once, then resolve references.
	decoded := make([]*QueryResponse, len(blobs))
	for i, b := range blobs {
		resp, err := DecodeQueryResponse(b)
		if err != nil {
			return nil, err
		}
		decoded[i] = resp
	}
	r := &BatchQueryResponse{}
	if len(raws) > 0 {
		r.Results = make([]BatchResult, len(raws))
	}
	for i, rr := range raws {
		br := BatchResult{Err: rr.err}
		if rr.ref != 0 && rr.err == "" {
			if int(rr.ref) > len(decoded) {
				return nil, fmt.Errorf("wire: batch2 result %d references blob %d of %d", i, rr.ref, len(decoded))
			}
			br.Resp = decoded[rr.ref-1]
		}
		r.Results[i] = br
	}
	return r, nil
}
