package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ips/benchmark/load"
	"ips/internal/query"
	"ips/internal/wire"
)

// decayFactor is the per-slice-width multiplier of every decayed read.
const decayFactor = 0.98

// fillQuery converts a generated read into the wire request dst.
func fillQuery(dst *wire.QueryRequest, q *load.Query) {
	*dst = wire.QueryRequest{
		Caller: callerName, Table: tableName, ProfileID: q.Profile,
		Slot: q.Slot, Type: q.Type, AllTypes: q.AllTypes,
		RangeKind: query.Current, Span: q.SpanMs,
		SortBy: query.ByAction, Action: actions[q.Action], K: q.K,
		MinCount: q.MinCount,
	}
	if q.ExpDecay {
		dst.Decay, dst.DecayFactor = query.DecayExp, decayFactor
	}
}

// appendEntries converts generated events, stamped relative to nowMs,
// into wire entries appended to dst. counts is the backing array the
// entries' count vectors are carved from; it must hold NumActions values
// per entry.
func appendEntries(dst []wire.AddEntry, counts []int64, src []load.Entry, nowMs int64) []wire.AddEntry {
	for i := range src {
		e := &src[i]
		c := counts[i*load.NumActions : (i+1)*load.NumActions : (i+1)*load.NumActions]
		copy(c, e.Counts[:])
		dst = append(dst, wire.AddEntry{
			Timestamp: nowMs - e.AgeMs, Slot: e.Slot, Type: e.Type, FID: e.FID, Counts: c,
		})
	}
	return dst
}

// freshEntries is appendEntries into newly allocated storage, for calls
// that hand the entries to the instance in-process: the journal keeps
// them.
func freshEntries(src []load.Entry, nowMs int64) []wire.AddEntry {
	return appendEntries(make([]wire.AddEntry, 0, len(src)), make([]int64, len(src)*load.NumActions), src, nowMs)
}

// addBytes is the user payload of one add: its encoded request.
func addBytes(id uint64, entries []wire.AddEntry) int64 {
	return int64(len(wire.EncodeAdd(&wire.AddRequest{Caller: callerName, Table: tableName, ProfileID: id, Entries: entries})))
}

// ledger is the benchmark's own record of what the program acknowledged:
// user bytes of every acked add, and for the sampled profiles the per
// (slot, feature) action sums that verify compares reads against.
type ledger struct {
	userBytes atomic.Int64
	ackedAdds atomic.Int64

	mu     sync.Mutex
	sample map[uint64]map[featureKey][load.NumActions]int64
}

type featureKey struct {
	slot uint32
	fid  uint64
}

// ack records one acknowledged add.
func (l *ledger) ack(id uint64, entries []wire.AddEntry) {
	l.userBytes.Add(addBytes(id, entries))
	l.ackedAdds.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	sums, ok := l.sample[id]
	if !ok {
		return
	}
	for i := range entries {
		e := &entries[i]
		k := featureKey{e.Slot, e.FID}
		v := sums[k]
		for a := range v {
			v[a] += e.Counts[a]
		}
		sums[k] = v
	}
}

// caller issues generated operations through the unified client. One
// goroutine owns one caller; its request storage is reused across calls.
type caller struct {
	d   *deployment
	led *ledger

	req     wire.QueryRequest
	entries []wire.AddEntry
	counts  [load.MaxAddEntries * load.NumActions]int64
	subs    []wire.SubQuery
}

// do issues op and reports whether the program answered it completely.
func (c *caller) do(ctx context.Context, op *load.Op) error {
	switch op.Kind {
	case load.TopK:
		fillQuery(&c.req, &op.Query)
		_, err := c.d.client.TopKCtx(ctx, &c.req)
		return err
	case load.Add:
		c.entries = appendEntries(c.entries[:0], c.counts[:], op.Entries, time.Now().UnixMilli())
		if err := c.d.client.AddCtx(ctx, tableName, op.Profile, c.entries...); err != nil {
			return err
		}
		c.led.ack(op.Profile, c.entries)
		return nil
	default:
		c.subs = c.subs[:0]
		for i := range op.Subs {
			c.subs = append(c.subs, wire.SubQuery{Op: wire.OpTopK})
			fillQuery(&c.subs[i].Query, &op.Subs[i])
		}
		res, err := c.d.client.QueryBatchCtx(ctx, c.subs)
		if err != nil {
			return err
		}
		for i, r := range res {
			if r == nil {
				return fmt.Errorf("batch slot %d unanswered", i)
			}
		}
		return nil
	}
}

// prefill writes every profile's history through Instance.Add and brings
// the instance to a settled state: merged, compacted, flushed. Profiles go
// in chunks of chunkEntries entries, small enough that the write table and
// journal of one chunk stay well below the cache's own size, so the
// process's memory high-water mark is the program's, not the loader's.
// Each chunk is merged and then compacted here: the merge also queues its
// profiles for background compaction, but a pass skips a profile that was
// evicted first, and which ones are is a race. Compacting here gives every
// profile the same shape on every run; settle waits for the flushes.
func prefill(d *deployment, spec load.Spec, seed int64, led *ledger) error {
	const chunkEntries = 50_000
	chunk := max(chunkEntries/spec.PrefillEntries, 1)
	for lo := 1; lo <= spec.Profiles; lo += chunk {
		hi := min(lo+chunk-1, spec.Profiles)
		now := time.Now().UnixMilli()
		for id := uint64(lo); id <= uint64(hi); id++ {
			entries := freshEntries(load.Prefill(spec, seed, id), now)
			if err := d.inst.Add(callerName, tableName, id, entries); err != nil {
				return fmt.Errorf("prefill profile %d: %w", id, err)
			}
			led.ack(id, entries)
		}
		d.inst.MergeAll()
		for id := uint64(lo); id <= uint64(hi); id++ {
			if _, err := d.inst.CompactNow(tableName, id); err != nil {
				return fmt.Errorf("prefill profile %d: %w", id, err)
			}
		}
	}
	return settle(d)
}

// settle merges the write table and waits until the cache's flush threads
// have nothing left to write: two polls in a row, each longer than their
// 100ms cadence, without a new flush. It deliberately does not call
// Instance.FlushAll on a live instance: FlushAll re-enters the table
// shard's read lock from inside Table.Each, so an eviction asking for the
// write lock in between deadlocks both (seen on every workload whose
// cache usage passes MemLimit).
func settle(d *deployment) error {
	const poll = 150 * time.Millisecond
	d.inst.MergeAll()
	last, quiet := int64(-1), 0
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(poll) {
		st, err := d.inst.CacheStats(tableName)
		if err != nil {
			return err
		}
		if st.Flushes != last {
			last, quiet = st.Flushes, 0
		} else if quiet++; quiet == 2 {
			return nil
		}
	}
	return errors.New("settle: flush threads still busy after 30s")
}
