package wire

import (
	"ips/internal/codec"
)

// BatchOp names the read semantics of one sub-query, mirroring the three
// single-query methods. The server resolves semantics from the request
// fields themselves (exactly as the single-query handlers do), so Op is
// carried for symmetry with the single-call API and for tooling.
type BatchOp uint8

// Sub-query operations.
const (
	OpTopK BatchOp = iota
	OpFilter
	OpDecay
)

// Method returns the single-query method name equivalent to the op.
func (op BatchOp) Method() string {
	switch op {
	case OpFilter:
		return MethodFilter
	case OpDecay:
		return MethodDecay
	default:
		return MethodTopK
	}
}

// SubQuery is one element of a batch: an operation plus its request.
type SubQuery struct {
	Op    BatchOp
	Query QueryRequest
}

// BatchQueryRequest is the batch read request payload: N independent
// sub-queries (any mix of topK / filter / decay semantics) in one RPC.
// Ranking requests need features for hundreds of candidates per user
// request (§II, §IV); batching turns N per-profile round trips into one
// per owning instance, the dominant tail-latency lever for that workload.
// The top-level Caller applies to every sub-query (one upstream
// application issues the whole batch); per-sub Caller fields are ignored
// by the server.
type BatchQueryRequest struct {
	Caller string
	Subs   []SubQuery
}

// BatchResult is the outcome of one sub-query. Err is empty on success;
// when set, Resp is nil and the sub-query failed server-side (unknown
// table, bad range, quota rejection, ...). Failures are per-slot: one bad
// sub-query never poisons its batch.
type BatchResult struct {
	Err  string
	Resp *QueryResponse
}

// BatchQueryResponse carries one BatchResult per sub-query, in request
// order.
type BatchQueryResponse struct {
	Results []BatchResult
}

// Field numbers for the batch messages.
const (
	fBQCaller = 1
	fBQSub    = 2

	fSubOp    = 1
	fSubQuery = 2
)

// EncodeQueryBatch serializes a BatchQueryRequest. Each sub-query embeds
// its QueryRequest via the single-query codec, so the two paths cannot
// drift apart.
func EncodeQueryBatch(r *BatchQueryRequest) []byte {
	var e codec.Buffer
	e.String(fBQCaller, r.Caller)
	for i := range r.Subs {
		sub := &r.Subs[i]
		e.Message(fBQSub, func(b *codec.Buffer) {
			b.Uint32(fSubOp, uint32(sub.Op))
			b.Raw(fSubQuery, EncodeQuery(&sub.Query))
		})
	}
	return append([]byte(nil), e.Bytes()...)
}

// DecodeQueryBatch parses a BatchQueryRequest.
func DecodeQueryBatch(data []byte) (*BatchQueryRequest, error) {
	r := &BatchQueryRequest{}
	rd := codec.NewReader(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return nil, decodeErr("batch", err)
		}
		switch f {
		case fBQCaller:
			if r.Caller, err = rd.String(); err != nil {
				return nil, decodeErr("batch caller", err)
			}
		case fBQSub:
			sub, err := rd.Message()
			if err != nil {
				return nil, decodeErr("batch sub", err)
			}
			sq, err := decodeSubQuery(sub)
			if err != nil {
				return nil, err
			}
			r.Subs = append(r.Subs, sq)
		default:
			if err := rd.Skip(wt); err != nil {
				return nil, decodeErr("batch skip", err)
			}
		}
	}
	return r, nil
}

func decodeSubQuery(rd *codec.Reader) (SubQuery, error) {
	var sq SubQuery
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return sq, decodeErr("sub field", err)
		}
		switch f {
		case fSubOp:
			var v uint32
			if v, err = rd.Uint32(); err != nil {
				return sq, decodeErr("sub op", err)
			}
			sq.Op = BatchOp(v)
		case fSubQuery:
			raw, err := rd.Bytes()
			if err != nil {
				return sq, decodeErr("sub query", err)
			}
			q, err := DecodeQuery(raw)
			if err != nil {
				return sq, err
			}
			sq.Query = *q
		default:
			if err := rd.Skip(wt); err != nil {
				return sq, decodeErr("sub skip", err)
			}
		}
	}
	return sq, nil
}
