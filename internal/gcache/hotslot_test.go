package gcache

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/persist"
	"ips/internal/query"
	"ips/internal/wire"
)

// newHotCache builds a cache with hot slots on and a journal hook that
// hands out monotonically increasing LSNs, returning the LSN counter.
func newHotCache(t testing.TB, opts Options) (*GCache, *atomic.Uint64) {
	t.Helper()
	store := kv.NewMemory()
	tbl := model.NewTable("t", model.NewSchema("like", "share"), 1000)
	g, err := New(tbl, persist.New(store, "t"), opts)
	if err != nil {
		t.Fatal(err)
	}
	var lsn atomic.Uint64
	g.OnApply = func(ctx context.Context, id model.ProfileID, entries []wire.AddEntry) (uint64, error) {
		return lsn.Add(1), nil
	}
	return g, &lsn
}

// hotRead reads id through the query path's entry point: a promoted
// profile comes back sealed, any other live.
func hotRead(g *GCache, id model.ProfileID) (p *model.Profile, s *query.Sealed) {
	s, p, _, err := g.GetReadForm(context.Background(), id)
	if err != nil {
		panic(err)
	}
	return p, s
}

// readLSN is the WalLSN a read of id observes, from the sealed form or
// from the live profile under its lock; ok is false when id exists
// nowhere.
func readLSN(g *GCache, id model.ProfileID) (lsn uint64, hot, ok bool) {
	p, s := hotRead(g, id)
	switch {
	case s != nil:
		return s.WalLSN, true, true
	case p != nil:
		p.RLock()
		defer p.RUnlock()
		return p.WalLSN, false, true
	}
	return 0, false, false
}

// TestHotSlotPromotionAndHit: a profile read past the threshold is
// promoted, and every later read is served hot from one shared sealed
// form that holds the live object's state. A write invalidates the form:
// the next read is served live and sees the write, and a re-promotion
// seals a fresh form that includes it.
func TestHotSlotPromotionAndHit(t *testing.T) {
	g, _ := newHotCache(t, Options{HotSlots: 3, HotPromoteAfter: 4})
	if err := g.Add(1, 5000, 1, 1, 7, []int64{1, 0}); err != nil {
		t.Fatal(err)
	}
	live := g.table.Get(1)
	features := func(s *query.Sealed) int {
		res, err := query.RunSealed(s, query.Request{Slot: 1, Type: 1, Range: query.AbsoluteRange(0, 10_000)}, 10_000, new(query.Scratch))
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Features)
	}

	promote := func() *query.Sealed {
		t.Helper()
		for i := 0; i < 10; i++ {
			if _, s := hotRead(g, 1); s != nil {
				return s
			}
		}
		t.Fatalf("profile never promoted after 10 reads (threshold 4); promotions=%d", g.HotPromotions.Value())
		return nil
	}
	sealed := promote()
	if g.HotPromotions.Value() != 1 {
		t.Fatalf("promotions = %d, want 1", g.HotPromotions.Value())
	}
	for i := 0; i < 9; i++ {
		p, s := hotRead(g, 1)
		if s == nil || p != nil {
			t.Fatalf("read %d fell off the hot path", i)
		}
		if s != sealed {
			t.Fatalf("read %d served %p, want the one sealed form %p", i, s, sealed)
		}
	}
	live.RLock()
	liveLSN, liveFeatures := live.WalLSN, live.NumFeatures()
	live.RUnlock()
	if sealed.WalLSN != liveLSN || features(sealed) != liveFeatures {
		t.Fatalf("sealed form (lsn %d, %d features) differs from live (lsn %d, %d features)",
			sealed.WalLSN, features(sealed), liveLSN, liveFeatures)
	}
	if st := g.Stats(); st.HotResident != 1 || st.HotHits < 10 {
		t.Fatalf("stats: %+v", st)
	}

	if err := g.Add(1, 6000, 1, 1, 8, []int64{2, 0}); err != nil {
		t.Fatal(err)
	}
	if g.hot.lookup(1) != nil || g.Stats().HotResident != 0 {
		t.Fatal("write acknowledged with the sealed form still installed")
	}
	if p, s := hotRead(g, 1); s != nil || p != live {
		t.Fatalf("first read after the write: hot=%v live=%v, want a live read", s != nil, p == live)
	}
	live.RLock()
	liveLSN, liveFeatures = live.WalLSN, live.NumFeatures()
	live.RUnlock()
	fresh := promote()
	if fresh == sealed {
		t.Fatal("re-promotion must seal a new form")
	}
	if fresh.WalLSN != liveLSN || features(fresh) != liveFeatures || liveFeatures != 2 {
		t.Fatalf("fresh form (lsn %d, %d features) misses the write (live lsn %d, %d features)",
			fresh.WalLSN, features(fresh), liveLSN, liveFeatures)
	}
}

// TestHotSlotSealedMatchesLive: a promoted profile's sealed form answers
// every request exactly as the live profile does — the same rows, counts,
// LastSeen, scores and scanned slices — and carries the live profile's
// WalLSN and MigLSN.
func TestHotSlotSealedMatchesLive(t *testing.T) {
	g, _ := newHotCache(t, Options{HotSlots: 2, HotPromoteAfter: 2})
	for i := 0; i < 400; i++ {
		err := g.Add(1, model.Millis(1000+37*i), model.SlotID(i%2), model.TypeID(i%3), model.FeatureID(i%97+1), []int64{int64(i%7 - 1), int64(i % 5)})
		if err != nil {
			t.Fatal(err)
		}
	}
	live := g.table.Get(1)
	live.Lock()
	live.MigLSN = live.WalLSN + 5
	live.Unlock()
	var s *query.Sealed
	for i := 0; i < 4 && s == nil; i++ {
		_, s = hotRead(g, 1)
	}
	if s == nil {
		t.Fatal("profile never promoted")
	}
	live.RLock()
	wal, mig := live.WalLSN, live.MigLSN
	live.RUnlock()
	if s.WalLSN != wal || s.MigLSN != mig {
		t.Fatalf("sealed watermarks (%d, %d), live (%d, %d)", s.WalLSN, s.MigLSN, wal, mig)
	}
	const now = 20_000
	for _, req := range []query.Request{
		{Slot: 1, Type: 2, Range: query.CurrentRange(10_000), SortBy: query.ByAction, Action: "like", K: 5},
		{Slot: 0, AllTypes: true, Range: query.CurrentRange(30_000), SortBy: query.ByTotal, K: 20, Decay: query.DecayExp, DecayFactor: 0.9},
		{Slot: 1, AllTypes: true, Range: query.AbsoluteRange(2000, 9000), SortBy: query.ByTimestamp},
		{Slot: 0, Type: 1, Range: query.RelativeRange(5000), SortBy: query.ByFeatureID, K: 7, Decay: query.DecayLinear, DecayFactor: 0.5},
		{Slot: 1, AllTypes: true, Range: query.CurrentRange(30_000), SortBy: query.ByUDAF, UDAF: query.WeightedSum(1, -2), K: 9},
		{Slot: 3, AllTypes: true, Range: query.CurrentRange(30_000), K: 9},
	} {
		want, err := query.RunScratch(live, g.table.Schema, req, now, new(query.Scratch))
		if err != nil {
			t.Fatal(err)
		}
		got, err := query.RunSealed(s, req, now, new(query.Scratch))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v:\n sealed %+v\n live   %+v", req, got, want)
		}
	}
}

// TestHotSlotInvalidatedByWrite: a write tears the sealed form down
// before it returns, and the next read (a) is served live and (b)
// observes the write. Re-promotion requires earning the threshold again.
func TestHotSlotInvalidatedByWrite(t *testing.T) {
	g, _ := newHotCache(t, Options{HotSlots: 2, HotPromoteAfter: 2})
	if err := g.Add(1, 5000, 1, 1, 7, []int64{1, 0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		hotRead(g, 1)
	}
	if g.hot.lookup(1) == nil {
		t.Fatal("profile should be promoted")
	}

	if err := g.Add(1, 6000, 1, 1, 7, []int64{5, 0}); err != nil {
		t.Fatal(err)
	}
	if g.hot.lookup(1) != nil {
		t.Fatal("write acknowledged with a stale sealed form still installed")
	}
	if g.HotInvalidations.Value() == 0 {
		t.Fatal("invalidation not counted")
	}

	live := g.table.Get(1)
	live.RLock()
	ackedLSN := live.WalLSN
	live.RUnlock()
	lsn, hot, _ := readLSN(g, 1)
	if hot {
		t.Fatal("first read after write must be served live")
	}
	if lsn < ackedLSN {
		t.Fatalf("read after write observed WalLSN %d < acked %d", lsn, ackedLSN)
	}
}

// TestHotSlotEntryCap: HotMaxEntries bounds simultaneous promotions.
func TestHotSlotEntryCap(t *testing.T) {
	g, _ := newHotCache(t, Options{HotSlots: 2, HotPromoteAfter: 1, HotMaxEntries: 2})
	for id := model.ProfileID(1); id <= 5; id++ {
		if err := g.Add(id, 5000, 1, 1, 7, []int64{1, 0}); err != nil {
			t.Fatal(err)
		}
		hotRead(g, id)
		hotRead(g, id)
	}
	if got := g.Stats().HotResident; got != 2 {
		t.Fatalf("hot resident = %d, want cap 2", got)
	}
}

// TestHotSlotStalenessQuick is the property test of the hot-slot
// freshness contract: across randomized interleavings of writes, reads,
// compaction-style external mutations and drops on one hot key, a read
// that starts after a write's acknowledgement always observes
// WalLSN >= that write's LSN — sealed forms may be arbitrarily replaced,
// but never stale.
func TestHotSlotStalenessQuick(t *testing.T) {
	prop := func(ops []byte) bool {
		g, _ := newHotCache(t, Options{HotSlots: 2, HotPromoteAfter: 2})
		var acked uint64 // LSN of the last acknowledged write
		for _, op := range ops {
			switch op % 5 {
			case 0, 1: // read
				lsn, _, ok := readLSN(g, 1)
				if !ok {
					continue // nothing written yet
				}
				if lsn < acked {
					t.Logf("read observed WalLSN %d < acked %d", lsn, acked)
					return false
				}
			case 2, 3: // write
				if err := g.Add(1, model.Millis(5000+int(op)), 1, 1, model.FeatureID(op%7+1), []int64{1, 0}); err != nil {
					t.Logf("add: %v", err)
					return false
				}
				p := g.table.Get(1)
				p.RLock()
				acked = p.WalLSN
				p.RUnlock()
			case 4: // compaction-style external mutation notification
				g.NoteSizeChange(1, 0)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHotSlotStalenessConcurrent races writers, readers and a
// compaction-notifier on one key under -race: every read must observe a
// WalLSN at least as high as the last write acknowledged before the read
// began. This pins the invalidate-before-ack ordering and the epoch
// fence against promotion/write races.
func TestHotSlotStalenessConcurrent(t *testing.T) {
	g, _ := newHotCache(t, Options{HotSlots: 4, HotPromoteAfter: 2})
	if err := g.Add(1, 5000, 1, 1, 7, []int64{1, 0}); err != nil {
		t.Fatal(err)
	}
	var acked atomic.Uint64
	stop := make(chan struct{})
	var background, readers sync.WaitGroup

	background.Add(1)
	go func() { // writer
		defer background.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := g.Add(1, model.Millis(5000+i), 1, 1, model.FeatureID(i%7+1), []int64{1, 0}); err != nil {
				t.Error(err)
				return
			}
			p := g.table.Get(1)
			p.RLock()
			lsn := p.WalLSN
			p.RUnlock()
			// Publish monotonically: a slow writer must not move acked back.
			for {
				cur := acked.Load()
				if lsn <= cur || acked.CompareAndSwap(cur, lsn) {
					break
				}
			}
		}
	}()
	background.Add(1)
	go func() { // compaction notifier
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
				g.NoteSizeChange(1, 0)
			}
		}
	}()
	var hotReads atomic.Int64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() { // reader
			defer readers.Done()
			for i := 0; i < 3000; i++ {
				floor := acked.Load() // write acked before this read began
				lsn, hot, _ := readLSN(g, 1)
				if hot {
					hotReads.Add(1)
				}
				if lsn < floor {
					t.Errorf("read %d observed WalLSN %d < acked %d (hot=%v)", i, lsn, floor, hot)
					return
				}
			}
		}()
	}
	// Readers run bounded loops and drive the test; the writer and the
	// notifier spin until the readers finish.
	readers.Wait()
	close(stop)
	background.Wait()
	t.Logf("hot reads: %d / 12000", hotReads.Load())
}
