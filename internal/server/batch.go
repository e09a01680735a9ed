package server

import (
	"context"
	"slices"
	"sync"
	"time"

	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/trace"
	"ips/internal/wire"
)

// batchWorkers bounds how many per-profile groups of one batch execute
// concurrently inside the instance. Batches are already one of many
// concurrent RPCs; a small pool exploits multi-core without letting a
// single fat batch monopolise the instance.
const batchWorkers = 8

// QueryBatch executes a batch of sub-queries (§II-B2 reads, any mix of
// topK / filter / decay semantics) and returns one BatchResult per
// sub-query, in input order. Failures are per-slot: a bad sub-query never
// fails its siblings.
//
// Sub-queries are grouped by (table, profile) so each profile is fetched
// from GCache exactly once, its lock taken once for the whole group, and
// the group evaluated on one pooled query scratch (runGroup); groups run
// on a bounded worker pool. Quota is charged per sub-query, exactly as N
// single calls would be.
//
// Only the ips.query_batch2 handler and the benchmark's traced run call
// it: a client batch is N single reads (DESIGN.md "Batched reads"). It is
// kept until the benchmark stops calling it.
func (in *Instance) QueryBatch(caller string, subs []wire.SubQuery) []wire.BatchResult {
	return in.QueryBatchCtx(context.Background(), caller, subs)
}

// QueryBatchCtx is QueryBatch with a request context carrying the
// request's trace, if sampled. Groups run concurrently, so their spans
// are siblings whose durations overlap: each nests inside the dispatch
// span, but their sum can exceed it.
func (in *Instance) QueryBatchCtx(ctx context.Context, caller string, subs []wire.SubQuery) []wire.BatchResult {
	results := make([]wire.BatchResult, len(subs))
	if in.closed.Load() {
		for i := range results {
			results[i].Err = ErrClosed.Error()
		}
		return results
	}
	// Group by (table, profile), preserving first-seen order.
	type groupKey struct {
		table string
		id    model.ProfileID
	}
	groups := make(map[groupKey][]int, len(subs))
	order := make([]groupKey, 0, len(subs))
	for i := range subs {
		k := groupKey{subs[i].Query.Table, subs[i].Query.ProfileID}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}

	workers := batchWorkers
	if len(order) < workers {
		workers = len(order)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, k := range order {
		idxs := groups[k]
		wg.Add(1)
		sem <- struct{}{}
		go func(table string, id model.ProfileID, idxs []int) {
			defer wg.Done()
			defer func() { <-sem }()
			in.queryGroup(ctx, caller, table, id, subs, idxs, results)
		}(k.table, k.id, idxs)
	}
	wg.Wait()
	return results
}

// groupQuery is one sub-query of a group: its slot in the batch, the
// resolved request, and its answer.
type groupQuery struct {
	slot int
	req  query.Request
	resp wire.QueryResponse
	err  error
}

// queryGroup runs one (table, profile) group of a batch. Each goroutine
// writes only its own disjoint result slots.
func (in *Instance) queryGroup(ctx context.Context, caller, table string, id model.ProfileID, subs []wire.SubQuery, idxs []int, results []wire.BatchResult) {
	start := time.Now()
	failAll := func(err error) {
		for _, i := range idxs {
			results[i].Err = err.Error()
		}
	}
	ts, err := in.table(table)
	if err != nil {
		failAll(err)
		return
	}
	// Hot profiles come back as their sealed read form, so concurrent
	// groups for the same Zipf-head profile compute without touching the
	// live profile's lock.
	sealed, p, hit, err := ts.cache.GetReadForm(ctx, id)
	if err != nil {
		failAll(err)
		return
	}
	// Resolve requests, charging quota per sub-query like the single path.
	group := make([]groupQuery, 0, len(idxs))
	for _, i := range idxs {
		if err := in.limiter.Allow(caller); err != nil {
			in.Rejected.Inc()
			results[i].Err = err.Error()
			continue
		}
		q := subs[i].Query.ToQuery()
		if name := subs[i].Query.UDAFName; name != "" {
			fn, err := in.udafs.Lookup(name)
			if err != nil {
				results[i].Err = err.Error()
				continue
			}
			q.UDAF = fn
		}
		group = append(group, groupQuery{slot: i, req: q})
	}
	if sealed != nil || p != nil {
		csp := trace.StartLeaf(ctx, trace.StageCacheCompute)
		sc := query.GetScratch()
		if sealed != nil {
			runGroup(sealed, nil, ts.schema, in.clock(), sc, group)
		} else {
			runGroupLocked(p, ts.schema, in.clock(), sc, group)
		}
		query.PutScratch(sc)
		csp.End()
	}
	elapsed := time.Since(start)
	for j := range group {
		b := &group[j]
		if b.err != nil {
			results[b.slot].Err = b.err.Error()
			continue
		}
		b.resp.CacheHit, b.resp.ServerNanos = hit, elapsed.Nanoseconds()
		results[b.slot].Resp = &b.resp
	}
	// One latency observation per group (the unit of server work), one
	// query count per executed sub-query, matching what N singles report.
	in.QueryLat.Observe(elapsed)
	in.Queries.Add(int64(len(group)))
}

// runGroupLocked is runGroup on the live profile p under its read lock,
// held once for the group.
func runGroupLocked(p *model.Profile, schema *model.Schema, now model.Millis, sc *query.Scratch, group []groupQuery) {
	p.RLock()
	defer p.RUnlock()
	runGroup(nil, p, schema, now, sc, group)
}

// runGroup answers every sub-query of a group on sc — from the sealed
// form when the profile is promoted, else from p, whose read lock the
// caller holds — and copies each result's rows into one Feature slice
// and one count slice shared by the group, so sc can return to the pool
// before the responses are encoded. The freshness watermark comes from
// the same form, under the same hold, as the rows.
func runGroup(sealed *query.Sealed, p *model.Profile, schema *model.Schema, now model.Millis, sc *query.Scratch, group []groupQuery) {
	var lsn uint64
	if sealed != nil {
		lsn = maxLSN(sealed.WalLSN, sealed.MigLSN)
	} else {
		lsn = maxLSN(p.WalLSN, p.MigLSN)
	}
	var feats []query.Feature
	var cnts []int64
	for j := range group {
		b := &group[j]
		var res query.Result
		var err error
		if sealed != nil {
			res, err = query.RunSealed(sealed, b.req, now, sc)
		} else {
			res, err = query.Run(p, schema, b.req, now, sc)
		}
		if err != nil {
			b.err = err
			continue
		}
		b.resp = wire.QueryResponse{Features: copyRows(&feats, &cnts, res.Features), SlicesScanned: res.SlicesScanned, WalLSN: lsn}
	}
}

// copyRows appends copies of rows to *feats and of their count vectors to
// *cnts, returning the copied rows: they outlive the query scratch the
// originals alias. A later append that moves either array leaves earlier
// copies on the old one, which stays valid.
func copyRows(feats *[]query.Feature, cnts *[]int64, rows []query.Feature) []query.Feature {
	if len(rows) == 0 {
		return nil
	}
	n := len(*feats)
	*feats = append(*feats, rows...)
	*cnts = slices.Grow(*cnts, len(rows)*len(rows[0].Counts))
	out := (*feats)[n:len(*feats):len(*feats)]
	for i := range out {
		c := len(*cnts)
		*cnts = append(*cnts, out[i].Counts...)
		out[i].Counts = (*cnts)[c:len(*cnts):len(*cnts)]
	}
	return out
}
