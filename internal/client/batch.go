package client

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"ips/internal/rpc"
	"ips/internal/trace"
	"ips/internal/wire"
)

// ErrPartial marks an operation that produced some results but not all;
// test with errors.Is. The concrete error is a *PartialError carrying
// which units failed.
var ErrPartial = errors.New("client: partial failure")

// PartialError reports which units of a fan-out operation failed: for
// QueryBatch the indices are sub-query positions, for Stats they index the
// discovered instance list. Successful units' results are still returned
// by the operation alongside this error.
type PartialError struct {
	Failed []int         // failed unit indices, ascending
	Errs   map[int]error // last error observed per failed index
}

// Error summarises the failure set.
func (e *PartialError) Error() string {
	if len(e.Failed) == 0 {
		return ErrPartial.Error()
	}
	return fmt.Sprintf("%v: %d failed (first: index %d: %v)",
		ErrPartial, len(e.Failed), e.Failed[0], e.Errs[e.Failed[0]])
}

// Unwrap makes errors.Is(err, ErrPartial) hold.
func (e *PartialError) Unwrap() error { return ErrPartial }

// QueryBatch executes N sub-queries (any mix of topK / filter / decay) and
// returns their responses in input order. A batch of N sub-queries is N
// reads: each is the read its TopK, Filter or Decay would be — routed to
// its own ring owner, dual-read inside a migration window, hedged,
// retried under the retry budget — and only their start is shared: every
// primary is queued before any is sent, and each connection carries its
// share in one write. Requests and Errors count sub-queries, Failovers
// counts their retries.
//
// Sub-queries that fail come back as nil slots, and the returned error is
// a *PartialError (errors.Is(err, ErrPartial)) listing them; err is nil
// only when every slot succeeded.
func (c *Client) QueryBatch(subs []wire.SubQuery) ([]*wire.QueryResponse, error) {
	return c.QueryBatchCtx(context.Background(), subs)
}

// QueryBatchCtx is QueryBatch with a request context. A traced batch gets
// one client.query root span; every sub-query's attempts hang under it,
// so sibling durations overlap and can sum past the root.
func (c *Client) QueryBatchCtx(ctx context.Context, subs []wire.SubQuery) ([]*wire.QueryResponse, error) {
	if len(subs) == 0 {
		return nil, nil
	}
	start := time.Now()
	c.Requests.Add(int64(len(subs)))
	c.BatchSize.Observe(int64(len(subs)))
	ctx, owned := c.traceStart(ctx)
	ctx, root := trace.StartSpan(ctx, trace.StageClientQuery)

	// Begin every read with its frames queued. The payloads share one
	// buffer: a slice taken before the buffer grows keeps the old array,
	// which stays intact for the read's retries and hedges.
	sc := getScratch()
	sc.payload = sc.payload[:0]
	if cap(sc.reads) < len(subs) {
		sc.reads = make([]race, len(subs))
	}
	reads := sc.reads[:len(subs)]
	rt := c.routes.Load()
	for i := range subs {
		req := subs[i].Query
		req.Caller = c.opts.Caller
		from := len(sc.payload)
		sc.payload = wire.AppendQuery(sc.payload, &req)
		r := &reads[i]
		r.c, r.ctx, r.method, r.queue = c, ctx, subs[i].Op.Method(), true
		r.payload = sc.payload[from:len(sc.payload):len(sc.payload)]
		r.begin(rt, req.ProfileID)
	}
	var connArr [8]*rpc.Client
	conns := connArr[:0]
	for i := range reads {
		reads[i].queue = false
		for _, a := range reads[i].att {
			if a.call != nil && !slices.Contains(conns, a.tgt.conn) {
				conns = append(conns, a.tgt.conn)
			}
		}
	}
	for _, conn := range conns {
		conn.Flush()
	}

	results := make([]*wire.QueryResponse, len(subs))
	var perr *PartialError
	for i := range reads {
		raw, err := reads[i].drive(sc.raw[:0])
		if err == nil {
			sc.raw = raw
			results[i], err = wire.DecodeQueryResponse(raw)
		}
		if err != nil {
			results[i] = nil
			if perr == nil {
				perr = &PartialError{Errs: make(map[int]error)}
			}
			perr.Failed = append(perr.Failed, i)
			perr.Errs[i] = err
		}
	}
	clear(reads)
	scratchPool.Put(sc)
	root.End()
	c.opts.Tracer.Done(owned)
	c.QueryLat.Observe(time.Since(start))
	if perr == nil {
		return results, nil
	}
	c.Errors.Add(int64(len(perr.Failed)))
	c.PartialBatches.Inc()
	return results, perr
}
