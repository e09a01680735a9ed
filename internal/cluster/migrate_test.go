package cluster

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ips/internal/client"
	"ips/internal/config"
	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/rpc"
	"ips/internal/wire"
)

// newReshardCluster boots a journaled single-region cluster tuned for
// fast discovery propagation, the prerequisite for elastic resharding.
func newReshardCluster(t *testing.T, perRegion int) *Cluster {
	t.Helper()
	return newReshardClusterWith(t, perRegion, nil)
}

// newReshardClusterWith seeds every instance with cfg (nil: defaults).
func newReshardClusterWith(t *testing.T, perRegion int, cfg *config.Config) *Cluster {
	t.Helper()
	c, err := New(Options{
		Config:             cfg,
		Regions:            []string{"east"},
		InstancesPerRegion: perRegion,
		Tables:             map[string]*model.Schema{"up": model.NewSchema("like", "share")},
		JournalDir:         t.TempDir(),
		HeartbeatInterval:  20 * time.Millisecond,
		SettleInterval:     80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	return c
}

func newReshardClient(t *testing.T, c *Cluster) *client.Client {
	t.Helper()
	cl, err := client.New(client.Options{
		Caller: "test", Service: "ips", Region: "east",
		Registry:        c.Registry,
		RefreshInterval: 25 * time.Millisecond,
		CallTimeout:     2 * time.Second,
		// No hedging: a hedged read would reload a released profile onto
		// its old owner from the shared store, which the source-residency
		// assertions below would misread as a failed release.
		HedgeDelay: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func reshardQuery(id model.ProfileID) *wire.QueryRequest {
	return &wire.QueryRequest{
		Caller: "test", Table: "up", ProfileID: id, Slot: 1, Type: 1,
		RangeKind: query.Current, Span: 3_600_000,
		SortBy: query.ByAction, Action: "like", K: 10,
	}
}

func writeProfiles(t *testing.T, cl *client.Client, n int) {
	t.Helper()
	now := time.Now().UnixMilli()
	for id := model.ProfileID(1); id <= model.ProfileID(n); id++ {
		err := cl.Add("up", id, wire.AddEntry{
			Timestamp: now - 1000, Slot: 1, Type: 1, FID: 7,
			Counts: []int64{int64(id), 0},
		})
		if err != nil {
			t.Fatalf("add %d: %v", id, err)
		}
	}
}

func readProfiles(t *testing.T, cl *client.Client, n int, when string) {
	t.Helper()
	for id := model.ProfileID(1); id <= model.ProfileID(n); id++ {
		resp, err := cl.TopK(reshardQuery(id))
		if err != nil {
			t.Fatalf("%s: query %d: %v", when, id, err)
		}
		if len(resp.Features) != 1 || resp.Features[0].Counts[0] != int64(id) {
			t.Fatalf("%s: query %d returned %+v", when, id, resp.Features)
		}
	}
}

func mergeAll(c *Cluster) {
	for _, n := range c.Nodes() {
		n.Instance().MergeAll()
	}
}

func TestJoinLiveMigration(t *testing.T) {
	const profiles = 120
	c := newReshardCluster(t, 2)
	cl := newReshardClient(t, c)

	writeProfiles(t, cl, profiles)
	mergeAll(c)
	readProfiles(t, cl, profiles, "before join")

	joined, rep, err := c.Join("east")
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if len(rep.Moves) == 0 || rep.Installed == 0 {
		t.Fatalf("join moved nothing: %+v", rep)
	}
	if rep.Passes < 1 || rep.Passes > maxMigratePasses {
		t.Fatalf("passes = %d", rep.Passes)
	}

	// Every profile still reads its exact written value through the
	// client, and the request path saw no errors at any point.
	readProfiles(t, cl, profiles, "after join")
	if got := cl.ErrorRate(); got != 0 {
		t.Fatalf("error rate = %v", got)
	}

	// The joiner serves its share now...
	if got := joined.Instance().Stats().Queries; got == 0 {
		t.Fatal("joiner served no queries after cutover")
	}
	// ...and the release pass dropped each moved profile from its source.
	byAddr := make(map[string]*Node)
	for _, n := range c.Nodes() {
		byAddr[n.Addr] = n
	}
	for _, mv := range rep.Moves {
		if mv.To != joined.Addr {
			t.Fatalf("move %+v does not target the joiner %s", mv, joined.Addr)
		}
		src := byAddr[mv.From]
		if src == nil {
			t.Fatalf("move %+v from unknown node", mv)
		}
		ids, err := src.Instance().ResidentProfiles(mv.Table)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if id == mv.ID {
				t.Fatalf("profile %d still resident on source %s after release", mv.ID, mv.From)
			}
		}
	}

	// Post-cutover freshness: the new owner's responses must report a
	// watermark at or above the release watermark — proof no acknowledged
	// pre-cutover write was left behind.
	conn := rpc.NewClient(joined.Addr)
	defer conn.Close()
	for _, mv := range rep.Moves[:min(8, len(rep.Moves))] {
		raw, err := conn.Call(wire.MethodTopK, wire.EncodeQuery(reshardQuery(mv.ID)))
		if err != nil {
			t.Fatalf("direct query %d: %v", mv.ID, err)
		}
		resp, err := wire.DecodeQueryResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if resp.WalLSN < mv.Watermark {
			t.Fatalf("profile %d: freshness %d < release watermark %d", mv.ID, resp.WalLSN, mv.Watermark)
		}
	}
}

func TestDrainLiveMigration(t *testing.T) {
	const profiles = 120
	c := newReshardCluster(t, 3)
	cl := newReshardClient(t, c)

	writeProfiles(t, cl, profiles)
	mergeAll(c)

	victim := c.Node("ips-east-0")
	rep, err := c.Drain(victim.Name)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(rep.Moves) == 0 {
		t.Fatalf("drain moved nothing: %+v", rep)
	}
	if !victim.Drained() {
		t.Fatal("victim not marked drained")
	}
	for _, in := range c.Registry.Lookup("ips") {
		if in.Addr == victim.Addr {
			t.Fatal("drained node still registered")
		}
	}

	readProfiles(t, cl, profiles, "after drain")
	if got := cl.ErrorRate(); got != 0 {
		t.Fatalf("error rate = %v", got)
	}
	for _, mv := range rep.Moves {
		if mv.From != victim.Addr {
			t.Fatalf("move %+v not from the drained node", mv)
		}
		if mv.To == victim.Addr {
			t.Fatalf("move %+v targets the drained node", mv)
		}
	}

	// New writes for a moved key reach its new owner, not the drained
	// node: the drained node's write counter stays frozen.
	before := victim.Instance().Stats().Writes
	mv := rep.Moves[0]
	err = cl.Add("up", mv.ID, wire.AddEntry{
		Timestamp: time.Now().UnixMilli(), Slot: 1, Type: 1, FID: 7,
		Counts: []int64{5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := victim.Instance().Stats().Writes; got != before {
		t.Fatalf("drained node took a write: %d -> %d", before, got)
	}

	// Draining the rest of the region down to one node is allowed...
	if _, err := c.Drain("ips-east-1"); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	// ...but the last node must refuse.
	if _, err := c.Drain("ips-east-2"); err == nil {
		t.Fatal("draining the last node should fail")
	}
	if _, err := c.Drain(victim.Name); err == nil {
		t.Fatal("double drain should fail")
	}
	mergeAll(c) // the probe write may still sit in a write-isolation buffer
	for id := model.ProfileID(1); id <= profiles; id++ {
		resp, err := cl.TopK(reshardQuery(id))
		if err != nil {
			t.Fatalf("after second drain: query %d: %v", id, err)
		}
		want := int64(id)
		if id == mv.ID {
			want += 5 // the routing probe above added 5 to this profile
		}
		if len(resp.Features) != 1 || resp.Features[0].Counts[0] != want {
			t.Fatalf("after second drain: query %d returned %+v, want count %d", id, resp.Features, want)
		}
	}
}

// TestDrainConvergesUnderSustainedWrites drains a node while closed-loop
// writers hit the moving profiles as fast as the client lets them: some
// moving profile is written during every content pass, so a coordinator
// that waits for a pass in which none was cannot finish. Each profile
// settles on its own instead — and settling early must lose nothing:
// every acknowledged write is still counted afterwards. (Not "exactly
// once": a write whose old leg made the last installed frame and whose
// new leg lands after that install is counted twice on the new owner,
// with any coordinator — at most one such write per closed-loop writer.)
func TestDrainConvergesUnderSustainedWrites(t *testing.T) {
	const profiles, writers = 64, 4
	// Without write isolation a count is exact up to the writes in flight
	// at a profile's last install: with it, every dual write the new owner
	// buffered is counted again when merged over an installed frame that
	// already contains it (ROADMAP item 7), which would drown a loss.
	cfg := config.Default()
	cfg.WriteIsolation = false
	c := newReshardClusterWith(t, 2, &cfg)
	cl := newReshardClient(t, c)
	writeProfiles(t, cl, profiles)
	mergeAll(c)

	var (
		acked [profiles + 1]atomic.Int64
		errs  atomic.Int64
		wg    sync.WaitGroup
		stop  = make(chan struct{})
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := model.ProfileID(rng.Intn(profiles) + 1)
				err := cl.Add("up", id, wire.AddEntry{
					Timestamp: time.Now().UnixMilli() - 1000, Slot: 1, Type: 1, FID: 7,
					Counts: []int64{1, 0},
				})
				if err != nil {
					errs.Add(1)
					continue
				}
				acked[id].Add(1)
			}
		}(w)
	}
	rep, err := c.Drain("ips-east-0")
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("drain under sustained writes: %v (%d passes)", err, rep.Passes)
	}
	if len(rep.Moves) == 0 {
		t.Fatalf("drain moved nothing: %+v", rep)
	}
	if n := errs.Load(); n != 0 {
		t.Fatalf("%d writes failed while the node drained", n)
	}
	mergeAll(c)
	var total int64
	for id := model.ProfileID(1); id <= profiles; id++ {
		resp, err := cl.TopK(reshardQuery(id))
		if err != nil {
			t.Fatalf("query %d: %v", id, err)
		}
		want := int64(id) + acked[id].Load()
		total += acked[id].Load()
		if len(resp.Features) != 1 {
			t.Fatalf("profile %d reads %+v after the drain", id, resp.Features)
		}
		if got := resp.Features[0].Counts[0]; got < want || got > want+writers {
			t.Fatalf("profile %d counts %d after the drain, want %d (seed + acknowledged writes)", id, got, want)
		}
	}
	t.Logf("%d moves over %d passes, %d installs, %d writes acknowledged meanwhile",
		len(rep.Moves), rep.Passes, rep.Installed, total)
}

func TestReshardingRequiresJournal(t *testing.T) {
	c := newTestCluster(t, []string{"east"}, 2)
	if _, _, err := c.Join("east"); err != errNeedJournal {
		t.Fatalf("join without journal: %v", err)
	}
	if _, err := c.Drain(c.Nodes()[0].Name); err != errNeedJournal {
		t.Fatalf("drain without journal: %v", err)
	}
	if _, _, err := newReshardCluster(t, 1).Join("west"); err == nil {
		t.Fatal("joining an unknown region should fail")
	}
}
