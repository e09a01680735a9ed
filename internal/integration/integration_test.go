// Package integration exercises the whole system end to end: raw events
// through the streaming join substrate, over RPC into a multi-region
// cluster, through compaction and persistence, across crashes and
// restarts, out through every query type — the full life of a profile.
package integration

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"ips/internal/client"
	"ips/internal/cluster"
	"ips/internal/config"
	"ips/internal/ingest"
	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/wire"
)

type simClock struct {
	mu  sync.Mutex
	now model.Millis
}

func (c *simClock) Now() model.Millis {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *simClock) Advance(d model.Millis) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestFullPipelineLifecycle(t *testing.T) {
	clock := &simClock{now: 1_700_000_000_000}
	schema := model.NewSchema("impression", "like", "share")
	cfg := config.Default()
	cfg.PartialCompactThreshold = 4

	cl, err := cluster.New(cluster.Options{
		Regions:            []string{"east", "west"},
		InstancesPerRegion: 2,
		Clock:              clock.Now,
		Config:             &cfg,
		Tables:             map[string]*model.Schema{"up": schema},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	app, err := client.New(client.Options{
		Caller: "integration", Service: "ips", Region: "east",
		Registry: cl.Registry, CallTimeout: 3 * time.Second,
		RefreshInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	// Stage 1 — ingestion: raw events stream through the log + joiner and
	// land in the cluster via the unified client (the §III-A dataflow).
	logStore := ingest.NewLog()
	sink := ingest.SinkFunc(func(caller, tbl string, id model.ProfileID, entries []wire.AddEntry) error {
		return app.Add(tbl, id, entries...)
	})
	pipe := ingest.NewPipeline(logStore, sink, "up", "flink-job", schema)

	now := clock.Now()
	const users = 40
	for u := uint64(1); u <= users; u++ {
		for item := uint64(0); item < 5; item++ {
			ts := now - model.Millis(item)*60_000
			logStore.Append(ingest.TopicImpression, ingest.Message{Key: u, Value: ingest.EncodeEvent(&ingest.Event{
				ProfileID: u, ItemID: 100 + item, Timestamp: ts, Slot: 1, Type: 1,
			})})
			if item%2 == 0 {
				logStore.Append(ingest.TopicAction, ingest.Message{Key: u, Value: ingest.EncodeEvent(&ingest.Event{
					ProfileID: u, ItemID: 100 + item, Timestamp: ts + 1000, Action: "like",
				})})
			}
		}
	}
	if n := pipe.RunOnce(); n != users*5 {
		t.Fatalf("ingested %d instances, want %d", n, users*5)
	}
	for _, n := range cl.Nodes() {
		n.Instance().MergeAll()
		// Flushed, so that a hedge or failover landing on a ring successor
		// loads the same state from the region's shared store: a hedged
		// batch group could otherwise win with an empty answer.
		if err := n.Instance().FlushAll(); err != nil {
			t.Fatal(err)
		}
	}

	// Stage 2 — queries: every user's features are queryable through
	// every read API.
	for u := uint64(1); u <= users; u++ {
		topk, err := app.TopK(&wire.QueryRequest{
			Table: "up", ProfileID: u, Slot: 1, Type: 1,
			RangeKind: query.Current, Span: 24 * 3_600_000,
			SortBy: query.ByAction, Action: "like", K: 3,
		})
		if err != nil {
			t.Fatalf("user %d topk: %v", u, err)
		}
		if len(topk.Features) != 3 {
			t.Fatalf("user %d topk = %d features", u, len(topk.Features))
		}
		// Liked items rank above unliked ones.
		if topk.Features[0].Counts[1] != 1 {
			t.Fatalf("user %d top feature has no like: %+v", u, topk.Features[0])
		}
		filtered, err := app.Filter(&wire.QueryRequest{
			Table: "up", ProfileID: u, Slot: 1, Type: 1,
			RangeKind: query.Current, Span: 24 * 3_600_000,
			SortBy: query.ByAction, Action: "like", MinCount: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(filtered.Features) != 3 { // items 100, 102, 104 were liked
			t.Fatalf("user %d filter = %d features, want 3", u, len(filtered.Features))
		}
		decayed, err := app.Decay(&wire.QueryRequest{
			Table: "up", ProfileID: u, Slot: 1, Type: 1,
			RangeKind: query.Current, Span: 24 * 3_600_000,
			SortBy: query.ByAction, Action: "impression",
			Decay: query.DecayExp, DecayFactor: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(decayed.Features) == 0 {
			t.Fatalf("user %d decay query empty", u)
		}
	}

	// Stage 2b — batched ranking read: the same features fetched as one
	// coalesced QueryBatch (a 40-candidate ranking request) must be
	// element-wise identical to the single-query answers.
	subs := make([]wire.SubQuery, 0, users*2)
	for u := uint64(1); u <= users; u++ {
		subs = append(subs,
			wire.SubQuery{Op: wire.OpTopK, Query: wire.QueryRequest{
				Table: "up", ProfileID: u, Slot: 1, Type: 1,
				RangeKind: query.Current, Span: 24 * 3_600_000,
				SortBy: query.ByAction, Action: "like", K: 3,
			}},
			wire.SubQuery{Op: wire.OpFilter, Query: wire.QueryRequest{
				Table: "up", ProfileID: u, Slot: 1, Type: 1,
				RangeKind: query.Current, Span: 24 * 3_600_000,
				SortBy: query.ByAction, Action: "like", MinCount: 1,
			}})
	}
	batched, err := app.QueryBatch(subs)
	if err != nil {
		t.Fatalf("query batch: %v", err)
	}
	for i := range subs {
		req := subs[i].Query
		var single *wire.QueryResponse
		if subs[i].Op == wire.OpFilter {
			single, err = app.Filter(&req)
		} else {
			single, err = app.TopK(&req)
		}
		if err != nil {
			t.Fatalf("sub %d single: %v", i, err)
		}
		if !reflect.DeepEqual(single.Features, batched[i].Features) {
			t.Fatalf("sub %d: batch differs from single\nsingle: %+v\nbatch:  %+v",
				i, single.Features, batched[i].Features)
		}
	}

	// Stage 3 — growth and maintenance: months of additional activity,
	// then compaction, with totals preserved.
	for m := 0; m < 50; m++ {
		clock.Advance(12 * 3_600_000)
		if err := app.Add("up", 1, wire.AddEntry{
			Timestamp: clock.Now() - 5000, Slot: 1, Type: 1, FID: 999, Counts: []int64{1, 1, 0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range cl.Nodes() {
		n.Instance().MergeAll()
		if _, err := n.Instance().CompactNow("up", 1); err != nil {
			t.Fatal(err)
		}
	}
	total, err := app.TopK(&wire.QueryRequest{
		Table: "up", ProfileID: 1, Slot: 1, Type: 1,
		RangeKind: query.Current, Span: 365 * 24 * 3_600_000,
		SortBy: query.ByAction, Action: "like", K: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Features[0].FID != 999 || total.Features[0].Counts[1] != 50 {
		t.Fatalf("post-compaction total = %+v, want fid 999 with 50 likes", total.Features[0])
	}

	// Stage 4 — durability: flush, crash every node, restart, verify.
	for _, n := range cl.Nodes() {
		if err := n.Instance().FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, 0, 4)
	for _, n := range cl.Nodes() {
		names = append(names, n.Name)
	}
	for _, name := range names {
		if err := cl.Crash(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		if _, err := cl.Restart(name); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(150 * time.Millisecond)
	app.RefreshNow()

	reloaded, err := app.TopK(&wire.QueryRequest{
		Table: "up", ProfileID: 1, Slot: 1, Type: 1,
		RangeKind: query.Current, Span: 365 * 24 * 3_600_000,
		SortBy: query.ByAction, Action: "like", K: 1,
	})
	if err != nil {
		t.Fatalf("post-restart query: %v", err)
	}
	if len(reloaded.Features) == 0 || reloaded.Features[0].Counts[1] != 50 {
		t.Fatalf("post-restart data = %+v", reloaded.Features)
	}
	// The batch path serves the reloaded data too.
	postBatch, err := app.QueryBatch([]wire.SubQuery{{Op: wire.OpTopK, Query: wire.QueryRequest{
		Table: "up", ProfileID: 1, Slot: 1, Type: 1,
		RangeKind: query.Current, Span: 365 * 24 * 3_600_000,
		SortBy: query.ByAction, Action: "like", K: 1,
	}}})
	if err != nil {
		t.Fatalf("post-restart batch: %v", err)
	}
	if len(postBatch[0].Features) == 0 || postBatch[0].Features[0].Counts[1] != 50 {
		t.Fatalf("post-restart batch data = %+v", postBatch[0].Features)
	}
}

func TestBulkBackfillWithIsolationSwitch(t *testing.T) {
	// The §III-F operational pattern: enable write isolation for the
	// duration of an offline back-fill so it cannot disturb serving, then
	// merge and restore.
	clock := &simClock{now: 1_700_000_000_000}
	cfg := config.Default()
	cfg.WriteIsolation = false // online default for this cluster

	cl, err := cluster.New(cluster.Options{
		Regions:            []string{"east"},
		InstancesPerRegion: 2,
		Clock:              clock.Now,
		Config:             &cfg,
		Tables:             map[string]*model.Schema{"up": model.NewSchema("like")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	app, err := client.New(client.Options{
		Caller: "backfill", Service: "ips", Region: "east",
		Registry: cl.Registry, CallTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	// Build a historical snapshot: 200 profiles x 30 entries.
	recs := make([]ingest.BulkRecord, 200)
	now := clock.Now()
	for i := range recs {
		entries := make([]wire.AddEntry, 30)
		for j := range entries {
			entries[j] = wire.AddEntry{
				Timestamp: now - model.Millis(j+1)*24*3_600_000,
				Slot:      1, Type: 1, FID: uint64(j % 10), Counts: []int64{1},
			}
		}
		recs[i] = ingest.BulkRecord{ProfileID: model.ProfileID(i + 1), Entries: entries}
	}

	setIsolation := func(on bool) {
		for _, n := range cl.Nodes() {
			if err := n.Instance().Config().Mutate(func(c *config.Config) {
				c.WriteIsolation = on
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	loader := &ingest.BulkLoader{
		Sink: ingest.SinkFunc(func(caller, tbl string, id model.ProfileID, entries []wire.AddEntry) error {
			return app.Add(tbl, id, entries...)
		}),
		Table: "up", Caller: "backfill", Parallelism: 4,
		BeforeRun: func() { setIsolation(true) },
		AfterRun: func() {
			for _, n := range cl.Nodes() {
				n.Instance().MergeAll()
			}
			setIsolation(false)
		},
	}
	if err := loader.Run(&ingest.SliceSource{Records: recs}); err != nil {
		t.Fatal(err)
	}
	if loader.Entries.Load() != 200*30 {
		t.Fatalf("entries = %d", loader.Entries.Load())
	}

	// Every profile's history is fully queryable.
	for id := model.ProfileID(1); id <= 200; id += 17 {
		resp, err := app.TopK(&wire.QueryRequest{
			Table: "up", ProfileID: id, Slot: 1, Type: 1,
			RangeKind: query.Current, Span: 40 * 24 * 3_600_000,
			SortBy: query.ByAction, Action: "like", K: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		var totalLikes int64
		for _, f := range resp.Features {
			totalLikes += f.Counts[0]
		}
		if totalLikes != 30 {
			t.Fatalf("profile %d total = %d, want 30", id, totalLikes)
		}
	}
}
