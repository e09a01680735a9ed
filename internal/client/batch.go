package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ips/internal/model"
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

// ErrRetryBudget marks sub-queries whose failover re-dispatch was refused
// because the client's retry budget is exhausted: retries are bounded to a
// fraction of primary traffic so a broad outage cannot amplify itself.
var ErrRetryBudget = errors.New("client: retry budget exhausted")

// batchTarget is one RPC destination: an instance and the pooled client
// that reaches it, both taken from one routing snapshot.
type batchTarget struct {
	region, addr string
	conn         *rpc.Client
}

// batchMethod picks the batch read method: shared-structure v2 by
// default, legacy v1 when Options.BatchV1 is set. The request payload is
// identical either way; only the response encoding differs.
func (c *Client) batchMethod() string {
	if c.opts.BatchV1 {
		return wire.MethodQueryBatch
	}
	return wire.MethodQueryBatchV2
}

// decodeBatch parses a batch response in whichever encoding this client
// requested. V2 slots that referenced the same blob share one decoded
// *QueryResponse — batch results are read-only, so sharing is safe.
func (c *Client) decodeBatch(raw []byte) (*wire.BatchQueryResponse, error) {
	if c.opts.BatchV1 {
		return wire.DecodeQueryBatchResponse(raw)
	}
	return wire.DecodeQueryBatchResponseV2(raw)
}

// groupOutcome is the result of one (possibly hedged) batch-group RPC.
type groupOutcome struct {
	raw       []byte
	err       error
	attempted []string // addresses actually sent to (primary, maybe hedge)
}

// groupCall issues one batch-group RPC to tgt, hedging it to alt if the
// primary outlasts the hedge delay; the first success wins. The group's
// breaker is consulted at issue time: a refused primary fails fast with
// ErrBreakerOpen instead of spending a timeout on a known-broken instance.
func (c *Client) groupCall(ctx context.Context, tgt batchTarget, alt *batchTarget, payload []byte, subQueries int, kind attemptKind) groupOutcome {
	if c.Breaker != nil && !c.Breaker.Allow(tgt.addr) {
		return groupOutcome{err: ErrBreakerOpen}
	}
	r := race{c: c, ctx: ctx, method: c.batchMethod(), payload: payload}
	issue := func(t batchTarget, k attemptKind) error {
		if hook := c.OnBatchCall; hook != nil {
			hook(t.region, t.addr, subQueries)
		}
		c.BatchRPCs.Inc()
		return r.start(t, k)
	}
	attempted := []string{tgt.addr}
	if err := issue(tgt, kind); err != nil {
		return groupOutcome{err: err, attempted: attempted}
	}
	var hedgeT *time.Timer
	var hedgeCh <-chan time.Time
	if alt != nil {
		if hd := c.hedgeDelay(); hd >= 0 {
			hedgeT = getTimer(hd)
			hedgeCh = hedgeT.C
		}
	}
	var out groupOutcome
	for {
		slot := r.wait(hedgeCh, nil)
		if slot == firedFirst {
			hedgeCh = nil
			if !c.hedgeAcquire() {
				continue
			}
			if c.Breaker != nil && !c.Breaker.Allow(alt.addr) {
				c.hedgeInFlight.Add(-1)
				continue
			}
			attempted = append(attempted, alt.addr)
			// A hedge that cannot even start leaves the primary racing alone.
			_ = issue(*alt, attemptHedge)
			continue
		}
		k, raw, err := r.finish(slot, nil)
		if err == nil {
			if k == attemptHedge {
				c.HedgeWins.Inc()
			}
			out = groupOutcome{raw: raw, attempted: attempted}
			break
		}
		if r.inflight == 0 {
			// Primary failed before any hedge fired (or both failed): don't
			// wait for the timer, the failover rounds own retries.
			out = groupOutcome{err: err, attempted: attempted}
			break
		}
	}
	putTimer(hedgeT)
	r.abandon()
	return out
}

// QueryBatch executes N sub-queries (any mix of topK / filter / decay) and
// returns their responses in input order. Sub-queries are grouped by
// owning shard via the hash ring and each (region, shard) group travels in
// ONE ips.query_batch RPC, issued in parallel — a ranking request for
// hundreds of candidates costs S RPCs for S shards touched instead of N.
//
// Failover is per shard group with partial-result semantics: when a group
// RPC fails (or individual slots fail server-side), only those sub-queries
// are re-grouped against each one's next untried candidate — ring
// successors in the local region first, then other regions, exactly the
// ladder the single-query path climbs. Sub-queries that exhaust their
// candidates come back as nil slots, and the returned error is a
// *PartialError (errors.Is(err, ErrPartial)) listing them; err is nil only
// when every slot succeeded.
func (c *Client) QueryBatch(subs []wire.SubQuery) ([]*wire.QueryResponse, error) {
	return c.QueryBatchCtx(context.Background(), subs)
}

// QueryBatchCtx is QueryBatch with a request context. A traced batch gets
// one client.query root span; each shard group's RPCs hang under it as
// concurrent primary/retry/hedge attempt spans, so sibling durations
// overlap and can sum past the root.
func (c *Client) QueryBatchCtx(ctx context.Context, subs []wire.SubQuery) ([]*wire.QueryResponse, error) {
	if len(subs) == 0 {
		return nil, nil
	}
	start := time.Now()
	defer func() { c.QueryLat.Observe(time.Since(start)) }()
	c.Requests.Add(int64(len(subs)))
	c.BatchSize.Observe(int64(len(subs)))
	ctx, owned := c.traceStart(ctx)
	ctx, root := trace.StartSpan(ctx, trace.StageClientQuery)
	defer func() {
		root.End()
		c.opts.Tracer.Done(owned)
	}()

	results := make([]*wire.QueryResponse, len(subs))
	subErrs := make([]error, len(subs))
	pending := make([]int, len(subs))
	for i := range pending {
		pending[i] = i
	}
	// tried records addresses each sub-query has already been sent to, so
	// failover under ring churn never loops on a dead shard.
	tried := make([]map[string]bool, len(subs))
	for i := range tried {
		tried[i] = make(map[string]bool, 2)
	}

	for round := 0; len(pending) > 0; round++ {
		rt := c.routes.Load()
		// Coalesce: assign each pending sub-query its next untried
		// candidate and group by (region, shard) in first-seen order.
		psp := trace.StartLeaf(ctx, trace.StageClientPick)
		groups := make(map[batchTarget][]int)
		var order []batchTarget
		var next []int
		for _, i := range pending {
			tgt, ok := c.nextCandidate(rt, subs[i].Query.ProfileID, tried[i])
			if !ok {
				if subErrs[i] == nil {
					subErrs[i] = ErrNoInstances
				}
				continue // exhausted: stays a nil slot
			}
			tried[i][tgt.addr] = true
			if _, seen := groups[tgt]; !seen {
				order = append(order, tgt)
			}
			groups[tgt] = append(groups[tgt], i)
		}
		psp.End()
		if len(order) == 0 {
			break
		}
		kind := attemptPrimary
		if round == 0 {
			c.BatchFanOut.Set(int64(len(order)))
			for range order {
				c.budget.onPrimary()
			}
		} else {
			kind = attemptRetry
			// Retry rounds draw on the budget — one token per re-dispatched
			// group RPC. Denied groups fail their slots immediately instead
			// of amplifying an outage.
			kept := order[:0]
			for _, tgt := range order {
				if c.budget.allow() {
					kept = append(kept, tgt)
					continue
				}
				c.RetriesDenied.Inc()
				for _, i := range groups[tgt] {
					subErrs[i] = ErrRetryBudget
				}
				delete(groups, tgt)
			}
			order = kept
			if len(order) == 0 {
				break
			}
			time.Sleep(c.boff.delay(round - 1))
		}

		type rpcOut struct {
			resp      *wire.BatchQueryResponse
			err       error
			attempted []string
		}
		outs := make([]rpcOut, len(order))
		var wg sync.WaitGroup
		for gi, tgt := range order {
			idxs := groups[tgt]
			wg.Add(1)
			go func(gi int, tgt batchTarget, idxs []int) {
				defer wg.Done()
				req := &wire.BatchQueryRequest{Caller: c.opts.Caller, Subs: make([]wire.SubQuery, len(idxs))}
				for j, i := range idxs {
					req.Subs[j] = subs[i]
				}
				alt := c.altCandidate(rt, subs[idxs[0]].Query.ProfileID, tried[idxs[0]], tgt.addr)
				out := c.groupCall(ctx, tgt, alt, wire.EncodeQueryBatch(req), len(idxs), kind)
				if out.err != nil {
					outs[gi] = rpcOut{err: out.err, attempted: out.attempted}
					return
				}
				resp, err := c.decodeBatch(out.raw)
				outs[gi] = rpcOut{resp: resp, err: err, attempted: out.attempted}
			}(gi, tgt, idxs)
		}
		wg.Wait()

		// Merge: fill successful slots, queue failed ones for the next
		// failover round.
		for gi, tgt := range order {
			idxs := groups[tgt]
			o := outs[gi]
			if o.err == nil && len(o.resp.Results) != len(idxs) {
				o.err = fmt.Errorf("client: batch response carried %d results for %d sub-queries", len(o.resp.Results), len(idxs))
			}
			if o.err != nil {
				for _, i := range idxs {
					// Burn every address the group actually reached — a
					// failed hedge target must not be re-picked next round.
					for _, a := range o.attempted {
						tried[i][a] = true
					}
					subErrs[i] = o.err
					next = append(next, i)
				}
				continue
			}
			for j, i := range idxs {
				br := o.resp.Results[j]
				if br.Err != "" {
					subErrs[i] = &rpc.RemoteError{Method: c.batchMethod(), Msg: br.Err}
					next = append(next, i)
					continue
				}
				resp := br.Resp
				if resp == nil {
					resp = &wire.QueryResponse{}
				}
				results[i] = resp
				subErrs[i] = nil
			}
		}
		pending = next
	}

	var failed []int
	for i := range subs {
		if results[i] == nil {
			failed = append(failed, i)
		}
	}
	if len(failed) == 0 {
		return results, nil
	}
	c.Errors.Add(int64(len(failed)))
	c.PartialBatches.Inc()
	perr := &PartialError{Failed: failed, Errs: make(map[int]error, len(failed))}
	for _, i := range failed {
		err := subErrs[i]
		if err == nil {
			err = ErrNoInstances
		}
		perr.Errs[i] = err
	}
	return results, perr
}

// nextCandidate walks the failover ladder for id — ring owner plus
// successors in the local region first, then the other regions — and
// returns the first address not yet tried. Addresses whose circuit breaker
// is not ready are held back and returned only when every ready candidate
// has been exhausted, so one broken shard owner costs a ring hop instead
// of a timeout.
func (c *Client) nextCandidate(rt *routes, id model.ProfileID, tried map[string]bool) (batchTarget, bool) {
	var blocked *batchTarget
	var addrs [ladderLen]string
	for _, rs := range rt.regions {
		for _, addr := range rs.ring.AppendN(addrs[:0], id, c.opts.Retries) {
			if tried[addr] {
				continue
			}
			t := rs.target(addr)
			if c.Breaker != nil && !c.Breaker.Ready(addr) {
				if blocked == nil {
					blocked = &t
				}
				continue
			}
			return t, true
		}
	}
	if blocked != nil {
		return *blocked, true
	}
	return batchTarget{}, false
}

// altCandidate picks the hedge target for a group: the next untried
// candidate for the group's representative sub-query, excluding the
// primary address itself.
func (c *Client) altCandidate(rt *routes, id model.ProfileID, tried map[string]bool, primary string) *batchTarget {
	merged := make(map[string]bool, len(tried)+1)
	for k, v := range tried {
		merged[k] = v
	}
	merged[primary] = true
	if alt, ok := c.nextCandidate(rt, id, merged); ok {
		return &alt
	}
	return nil
}
