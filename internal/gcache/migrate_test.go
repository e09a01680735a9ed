package gcache

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ips/internal/model"
	"ips/internal/wire"
)

func countFeature(t *testing.T, g *GCache, id model.ProfileID, fid model.FeatureID) int64 {
	t.Helper()
	p, _, err := g.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		return 0
	}
	var total int64
	p.RLock()
	defer p.RUnlock()
	for _, s := range p.Slices() {
		s.EachSlot(func(_ model.SlotID, set *model.InstanceSet) {
			set.Each(func(_ model.TypeID, fs *model.FeatureStats) {
				fs.Each(func(st model.FeatureStat) {
					if st.FID == fid {
						total += st.Counts[0]
					}
				})
			})
		})
	}
	return total
}

// TestExportInstallRoundTrip hands one profile from a source cache to a
// destination cache and checks content plus watermark bookkeeping.
func TestExportInstallRoundTrip(t *testing.T) {
	src, _, _ := newCache(t, Options{})
	dst, _, _ := newCache(t, Options{})
	ctx := context.Background()

	if err := src.Add(7, 5000, 1, 1, 42, []int64{3, 0}); err != nil {
		t.Fatal(err)
	}
	// Simulate a journaled source: the profile carries a WalLSN ack.
	p, _, _ := src.Get(7)
	p.Lock()
	p.WalLSN = 11
	p.Unlock()

	fr, ok, err := src.Export(ctx, 7, false)
	if err != nil || !ok {
		t.Fatalf("export: ok=%v err=%v", ok, err)
	}
	if fr.WalLSN != 11 || len(fr.Blob) == 0 {
		t.Fatalf("frame: %+v", fr)
	}
	// Export drains through the flush path: the source copy is clean now.
	p.RLock()
	dirty := p.Dirty
	p.RUnlock()
	if dirty {
		t.Fatal("export must flush dirty state")
	}

	installed, marked, err := dst.Install(ctx, fr, false)
	if err != nil || !installed || !marked {
		t.Fatalf("install: installed=%v marked=%v err=%v", installed, marked, err)
	}
	if got := countFeature(t, dst, 7, 42); got != 3 {
		t.Fatalf("content after install: got count %d, want 3", got)
	}
	q, _, _ := dst.Get(7)
	q.RLock()
	mig, wal := q.MigLSN, q.WalLSN
	q.RUnlock()
	if mig != 11 {
		t.Fatalf("MigLSN = %d, want 11 (the source watermark)", mig)
	}
	if wal != 0 {
		t.Fatalf("WalLSN = %d, want 0: foreign LSNs must never enter the local journal space", wal)
	}

	// Installing the same frame again is a no-op (idempotence).
	installed, marked, err = dst.Install(ctx, fr, false)
	if err != nil {
		t.Fatal(err)
	}
	if installed || marked {
		t.Fatalf("second install must be a no-op, got installed=%v marked=%v", installed, marked)
	}
	if got := countFeature(t, dst, 7, 42); got != 3 {
		t.Fatalf("content after re-install: got count %d, want 3 (no double count)", got)
	}
}

// TestInstallStaleFrameSkipped: a frame older than the resident
// migration watermark must not clobber the resident copy.
func TestInstallStaleFrameSkipped(t *testing.T) {
	dst, _, _ := newCache(t, Options{})
	ctx := context.Background()

	fresh := frameWithCount(t, 9, 20, 5)
	stale := frameWithCount(t, 9, 10, 1)

	if _, _, err := dst.Install(ctx, fresh, false); err != nil {
		t.Fatal(err)
	}
	installed, marked, err := dst.Install(ctx, stale, false)
	if err != nil {
		t.Fatal(err)
	}
	if installed || marked {
		t.Fatal("stale frame must not install or mark")
	}
	if got := countFeature(t, dst, 9, 42); got != 5 {
		t.Fatalf("resident content clobbered: count %d, want 5", got)
	}
}

// frameWithCount builds a frame for profile id at watermark wal whose
// blob has one feature 42 with count n.
func frameWithCount(t *testing.T, id model.ProfileID, wal uint64, n int64) wire.MigrateFrame {
	t.Helper()
	g, _, _ := newCache(t, Options{})
	if err := g.Add(id, 5000, 1, 1, 42, []int64{n, 0}); err != nil {
		t.Fatal(err)
	}
	p, _, _ := g.Get(id)
	p.Lock()
	p.WalLSN = wal
	p.Unlock()
	fr, ok, err := g.Export(context.Background(), id, false)
	if err != nil || !ok {
		t.Fatalf("export: %v", err)
	}
	return fr
}

// TestInstallMarkOnly: mark mode raises MigLSN without touching content
// — the release-pass semantics that keep post-cutover writes alive.
func TestInstallMarkOnly(t *testing.T) {
	dst, _, _ := newCache(t, Options{})
	ctx := context.Background()

	// The new owner took a post-cutover write the old owner never saw.
	if err := dst.Add(3, 5000, 1, 1, 42, []int64{7, 0}); err != nil {
		t.Fatal(err)
	}
	fr := frameWithCount(t, 3, 30, 1)
	installed, marked, err := dst.Install(ctx, fr, true)
	if err != nil {
		t.Fatal(err)
	}
	if installed {
		t.Fatal("mark mode must not install content")
	}
	if !marked {
		t.Fatal("mark mode must raise the watermark")
	}
	if got := countFeature(t, dst, 3, 42); got != 7 {
		t.Fatalf("post-cutover write discarded: count %d, want 7", got)
	}
	p, _, _ := dst.Get(3)
	p.RLock()
	mig := p.MigLSN
	p.RUnlock()
	if mig != 30 {
		t.Fatalf("MigLSN = %d, want 30", mig)
	}
}

// TestInstallJournalLess: with journaling off everywhere all watermarks
// are zero; a non-empty blob must still land on an empty resident.
func TestInstallJournalLess(t *testing.T) {
	src, _, _ := newCache(t, Options{})
	dst, _, _ := newCache(t, Options{})
	ctx := context.Background()
	if err := src.Add(4, 5000, 1, 1, 42, []int64{2, 0}); err != nil {
		t.Fatal(err)
	}
	fr, ok, err := src.Export(ctx, 4, false)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if fr.WalLSN != 0 {
		t.Fatalf("journal-less export has WalLSN %d", fr.WalLSN)
	}
	installed, _, err := dst.Install(ctx, fr, false)
	if err != nil || !installed {
		t.Fatalf("journal-less install: installed=%v err=%v", installed, err)
	}
	if got := countFeature(t, dst, 4, 42); got != 2 {
		t.Fatalf("count %d, want 2", got)
	}
}

// TestExportRelease: the release pass flushes, snapshots, and drops the
// profile — the next read is a storage miss and hot slots are gone.
func TestExportRelease(t *testing.T) {
	g, tbl, _ := newCache(t, Options{HotSlots: 2, HotPromoteAfter: 1, HotMaxEntries: 4})
	ctx := context.Background()
	if err := g.Add(6, 5000, 1, 1, 42, []int64{1, 0}); err != nil {
		t.Fatal(err)
	}
	// Promote into hot slots so release has a sealed form to invalidate.
	for i := 0; i < 4; i++ {
		if _, _, _, err := g.GetReadForm(ctx, 6); err != nil {
			t.Fatal(err)
		}
	}
	if g.hot.lookup(6) == nil {
		t.Fatal("test setup: profile should be promoted")
	}
	flushes := g.Flushes.Value()

	fr, ok, err := g.Export(ctx, 6, true)
	if err != nil || !ok {
		t.Fatalf("release: ok=%v err=%v", ok, err)
	}
	if len(fr.Blob) == 0 {
		t.Fatal("release frame must carry the final blob")
	}
	if g.Flushes.Value() != flushes+1 {
		t.Fatal("release must flush the dirty profile")
	}
	if tbl.Get(6) != nil {
		t.Fatal("release must detach the profile")
	}
	if g.hot.lookup(6) != nil {
		t.Fatal("release must invalidate hot slots")
	}
	// A second release finds nothing.
	if _, ok, err := g.Export(ctx, 6, true); ok || err != nil {
		t.Fatalf("second release: ok=%v err=%v", ok, err)
	}
	// But the state survives in storage: a read loads it back.
	if got := countFeature(t, g, 6, 42); got != 1 {
		t.Fatalf("post-release storage read: count %d, want 1", got)
	}
}

// TestExportAbsentProfile: exporting an unknown profile is ok=false,
// not an error.
func TestExportAbsentProfile(t *testing.T) {
	g, _, _ := newCache(t, Options{})
	if _, ok, err := g.Export(context.Background(), 12345, false); ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

// TestExportWarmShipsCompressedForm pins the warm fast path: exporting a
// demoted profile ships the already-compressed blob (Compressed flag
// set) with its demotion-time watermarks — no storage read, no re-flush
// — and the frame installs correctly on the other side.
func TestExportWarmShipsCompressedForm(t *testing.T) {
	src, _, _ := newCache(t, Options{MemLimit: 1, MemLowWater: 1, WarmLimit: 1 << 30})
	dst, _, _ := newCache(t, Options{})
	ctx := context.Background()

	if err := src.Add(8, 5000, 1, 1, 42, []int64{6, 0}); err != nil {
		t.Fatal(err)
	}
	p, _, _ := src.Get(8)
	p.Lock()
	p.WalLSN = 21
	p.Unlock()
	src.EvictToWatermark()
	if src.State(8) != StateWarm {
		t.Fatal("setup: profile not warm")
	}

	loads, flushes := src.Loads.Value(), src.Flushes.Value()
	fr, ok, err := src.Export(ctx, 8, false)
	if err != nil || !ok {
		t.Fatalf("warm export: ok=%v err=%v", ok, err)
	}
	if !fr.Compressed {
		t.Fatal("warm export must ship the compressed form")
	}
	if fr.WalLSN != 21 {
		t.Fatalf("frame WalLSN = %d, want 21 (captured at demotion)", fr.WalLSN)
	}
	if src.Loads.Value() != loads || src.Flushes.Value() != flushes {
		t.Fatal("warm export must neither read storage nor re-flush")
	}
	// A content pass peeks: the blob stays resident for later passes.
	if src.State(8) != StateWarm {
		t.Fatal("content-mode export must not consume the warm blob")
	}

	installed, marked, err := dst.Install(ctx, fr, false)
	if err != nil || !installed || !marked {
		t.Fatalf("install compressed frame: installed=%v marked=%v err=%v", installed, marked, err)
	}
	if got := countFeature(t, dst, 8, 42); got != 6 {
		t.Fatalf("content after compressed install: %d, want 6", got)
	}

	// Release mode consumes the blob: warm → evicted, the cutover step.
	fr2, ok, err := src.Export(ctx, 8, true)
	if err != nil || !ok {
		t.Fatalf("warm release: ok=%v err=%v", ok, err)
	}
	if !fr2.Compressed || fr2.WalLSN != 21 {
		t.Fatalf("release frame: %+v", fr2)
	}
	if src.State(8) != StateEvicted {
		t.Fatal("release must drop the warm blob")
	}
}

// TestExportAcrossStates pins that export works identically from every
// source state — decoded, warm, evicted — and the installed content is
// the same regardless of which tier served the frame.
func TestExportAcrossStates(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep func(t *testing.T, g *GCache)
		want EntryState
	}{
		{"decoded", func(t *testing.T, g *GCache) {}, StateDecoded},
		{"warm", func(t *testing.T, g *GCache) { g.EvictToWatermark() }, StateWarm},
		{"evicted", func(t *testing.T, g *GCache) {
			g.EvictToWatermark()
			g.warm.drop(5)
		}, StateEvicted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, _, _ := newCache(t, Options{MemLimit: 1, MemLowWater: 1, WarmLimit: 1 << 30})
			dst, _, _ := newCache(t, Options{})
			ctx := context.Background()
			if err := src.Add(5, 5000, 1, 1, 42, []int64{4, 0}); err != nil {
				t.Fatal(err)
			}
			if err := src.FlushAll(); err != nil {
				t.Fatal(err)
			}
			tc.prep(t, src)
			if got := src.State(5); got != tc.want {
				t.Fatalf("setup state = %v, want %v", got, tc.want)
			}
			fr, ok, err := src.Export(ctx, 5, false)
			if err != nil || !ok {
				t.Fatalf("export from %v: ok=%v err=%v", tc.want, ok, err)
			}
			if installed, _, err := dst.Install(ctx, fr, false); err != nil || !installed {
				t.Fatalf("install: installed=%v err=%v", installed, err)
			}
			if got := countFeature(t, dst, 5, 42); got != 4 {
				t.Fatalf("content from %v source: %d, want 4", tc.want, got)
			}
		})
	}
}

// TestMigrationRacesEviction is the satellite-4 -race stress: Export and
// Install running concurrently with demotions, evictions, drops, and
// writes of the same profile must never ship a stale blob (a frame's
// watermark is at least every write acked before the export began) and
// never lose the MigLSN watermark on the destination (monotone across
// installs). Run with -race.
func TestMigrationRacesEviction(t *testing.T) {
	src, _, _ := newCache(t, Options{MemLimit: 1 << 12, WarmLimit: 1 << 12, LRUShards: 2})
	dst, _, _ := newCache(t, Options{})
	ctx := context.Background()
	const id = model.ProfileID(99)

	// Simulated journal: OnApply assigns monotonically increasing LSNs
	// under the profile lock, exactly as the WAL does.
	var lsn atomic.Uint64
	src.OnApply = func(context.Context, model.ProfileID, []wire.AddEntry) (uint64, error) {
		return lsn.Add(1), nil
	}
	// acked tracks the highest LSN whose write has returned to its
	// caller; an export starting after that ack must ship at least it.
	var acked atomic.Uint64
	var installMu sync.Mutex // serializes dst installs for the monotone check
	var lastMig uint64

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := src.Add(id, model.Millis(5000+i), 1, 1, 42, []int64{1, 0}); err != nil {
					t.Error(err)
					return
				}
				p, _, _ := src.Get(id)
				p.RLock()
				cur := p.WalLSN
				p.RUnlock()
				for {
					old := acked.Load()
					if cur <= old || acked.CompareAndSwap(old, cur) {
						break
					}
				}
			}
		}()
	}
	// Evictor: drives decoded → warm → evicted transitions nonstop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				src.EvictToWatermark()
				src.Drop(id)
			}
		}
	}()
	// Exporter → installer: content passes, with the staleness and
	// watermark-monotonicity invariants checked on every round trip.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			lo := acked.Load()
			fr, ok, err := src.Export(ctx, id, false)
			if err != nil {
				t.Errorf("export: %v", err)
				return
			}
			if !ok {
				continue
			}
			if fr.WalLSN < lo {
				t.Errorf("stale blob shipped: frame WalLSN %d < acked %d", fr.WalLSN, lo)
				return
			}
			installMu.Lock()
			if _, _, err := dst.Install(ctx, fr, false); err != nil {
				installMu.Unlock()
				t.Errorf("install: %v", err)
				return
			}
			p, _, err := dst.Get(id)
			if err != nil || p == nil {
				installMu.Unlock()
				t.Errorf("dst get: %v", err)
				return
			}
			p.RLock()
			mig := p.MigLSN
			p.RUnlock()
			if mig < lastMig {
				installMu.Unlock()
				t.Errorf("MigLSN went backwards: %d < %d", mig, lastMig)
				return
			}
			lastMig = mig
			installMu.Unlock()
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce and converge: one final export/install must make the
	// destination's content identical to the source's.
	fr, ok, err := src.Export(ctx, id, false)
	if err != nil || !ok {
		t.Fatalf("final export: ok=%v err=%v", ok, err)
	}
	if _, _, err := dst.Install(ctx, fr, false); err != nil {
		t.Fatal(err)
	}
	srcCount := countFeature(t, src, id, 42)
	dstCount := countFeature(t, dst, id, 42)
	if srcCount == 0 || srcCount != dstCount {
		t.Fatalf("content diverged: src %d, dst %d", srcCount, dstCount)
	}
	p, _, _ := dst.Get(id)
	p.RLock()
	mig := p.MigLSN
	p.RUnlock()
	if mig < acked.Load() {
		t.Fatalf("final MigLSN %d below last acked write %d", mig, acked.Load())
	}
}
