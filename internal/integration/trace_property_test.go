package integration

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ips/internal/client"
	"ips/internal/cluster"
	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/trace"
	"ips/internal/wire"
)

// TestTracedSpanTreesWellFormed is the property layer over the tracing
// tentpole: for random queries through a real cluster (client → RPC →
// server → gcache, spans grafted back over the wire), every sampled span
// tree must be structurally well-formed:
//
//   - trace.Validate holds: unique non-zero IDs, no orphans, every
//     child's interval nests inside its parent's;
//   - the root is the client.query span, and at least one server.dispatch
//     span is present with every one hanging under an rpc.roundtrip span,
//     i.e. the server's spans were grafted back with their identity;
//   - a traced batch attributes its latency to at least five distinct
//     stages;
//   - with hedging disabled every request's stages run sequentially, so
//     each parent's direct children sum to at most the parent's own
//     duration (plus scheduling slack).
func TestTracedSpanTreesWellFormed(t *testing.T) {
	clock := &simClock{now: 1_700_000_000_000}
	schema := model.NewSchema("like", "share")
	cl, err := cluster.New(cluster.Options{
		Regions:            []string{"east"},
		InstancesPerRegion: 2,
		Clock:              clock.Now,
		Tables:             map[string]*model.Schema{"up": schema},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tracer := trace.NewTracer(trace.Config{SampleEvery: 1})
	app, err := client.New(client.Options{
		Caller: "trace-prop", Service: "ips", Region: "east",
		Registry: cl.Registry, CallTimeout: 3 * time.Second,
		RefreshInterval: 20 * time.Millisecond,
		// Hedge attempts overlap the primary by design, which breaks the
		// sequential sum-of-children bound this property asserts.
		HedgeDelay: -1,
		Tracer:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	const maxProfile = 20
	now := clock.Now()
	for id := model.ProfileID(1); id <= maxProfile; id++ {
		err := app.Add("up", id, wire.AddEntry{
			Timestamp: now - 1000, Slot: 1, Type: 1,
			FID: model.FeatureID(id), Counts: []int64{int64(id), 1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range cl.Nodes() {
		n.Instance().MergeAll()
	}

	// Wall-clock slack for interval nesting and child sums: spans are
	// stamped in two goroutines (client and server) of one process, so a
	// millisecond absorbs scheduler noise without masking real breakage.
	const slack = time.Millisecond

	checkTree := func(tr *trace.Trace, batch bool) string {
		spans := tr.Spans()
		if len(spans) == 0 {
			return "sampled trace has no spans"
		}
		if err := trace.Validate(spans, slack); err != nil {
			return err.Error()
		}
		byID := make(map[uint64]trace.Span, len(spans))
		stages := make(map[trace.Stage]bool)
		roots, dispatches := 0, 0
		for _, sp := range spans {
			byID[sp.ID] = sp
			stages[sp.Stage] = true
		}
		for _, sp := range spans {
			if sp.Parent == 0 {
				roots++
				if sp.Stage != trace.StageClientQuery && sp.Stage != trace.StageClientWrite {
					return "root span is " + sp.Stage.String() + ", want a client root"
				}
			}
			if sp.Stage == trace.StageServerDispatch {
				par, ok := byID[sp.Parent]
				if !ok || par.Stage != trace.StageRPCRoundtrip {
					return "server.dispatch not parented under rpc.roundtrip: hop lost span identity"
				}
				dispatches++
			}
		}
		if roots != 1 {
			return "trace has more than one root"
		}
		if dispatches == 0 {
			return "no server.dispatch span: the server's spans were not grafted"
		}
		if batch && len(stages) < 5 {
			return fmt.Sprintf("traced batch attributed %d distinct stages, want >= 5", len(stages))
		}
		if !batch {
			durs := trace.ChildSums(spans)
			for parent, sum := range durs {
				if par, ok := byID[parent]; ok && sum > par.Dur+slack {
					return "children of " + par.Stage.String() + " sum past their parent"
				}
			}
		}
		return ""
	}

	property := func(s int64) bool {
		rnd := rand.New(rand.NewSource(s))
		req := &wire.QueryRequest{
			Table:     "up",
			ProfileID: model.ProfileID(1 + rnd.Intn(maxProfile)),
			Slot:      1, Type: 1,
			RangeKind: query.Current, Span: model.Millis(1 + rnd.Intn(10_000)),
			SortBy: query.ByAction, Action: []string{"like", "share"}[rnd.Intn(2)],
			K: 1 + rnd.Intn(5),
		}
		if _, err := app.TopK(req); err != nil {
			t.Logf("seed %d: query: %v", s, err)
			return false
		}
		tr := tracer.LastSampled()
		if tr == nil {
			t.Logf("seed %d: no sampled trace despite SampleEvery=1", s)
			return false
		}
		if msg := checkTree(tr, false); msg != "" {
			var b strings.Builder
			trace.RenderTree(&b, tr.ID, tr.Spans())
			t.Logf("seed %d single: %s\n%s", s, msg, b.String())
			return false
		}

		// Batch fan-out: groups run concurrently so sibling durations may
		// overlap; structural invariants must still hold.
		subs := make([]wire.SubQuery, 1+rnd.Intn(8))
		for i := range subs {
			q := *req
			q.ProfileID = model.ProfileID(1 + rnd.Intn(maxProfile))
			subs[i] = wire.SubQuery{Op: wire.OpTopK, Query: q}
		}
		if _, err := app.QueryBatch(subs); err != nil {
			t.Logf("seed %d: batch: %v", s, err)
			return false
		}
		tr = tracer.LastSampled()
		if msg := checkTree(tr, true); msg != "" {
			var b strings.Builder
			trace.RenderTree(&b, tr.ID, tr.Spans())
			t.Logf("seed %d batch: %s\n%s", s, msg, b.String())
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
