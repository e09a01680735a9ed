package gcache

import (
	"bytes"
	"context"
	"testing"

	"ips/internal/compact"
	"ips/internal/config"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/persist"
	"ips/internal/snap"
	"ips/internal/wire"
)

// demoteOpts demotes every decoded profile on each EvictToWatermark and
// keeps every demoted blob warm.
var demoteOpts = Options{MemLimit: 1, MemLowWater: 1, WarmLimit: 1 << 30}

// newDemoteCache is newCache with the persister shaped by mode.
func newDemoteCache(t *testing.T, mode func(*persist.Persister)) *GCache {
	t.Helper()
	tbl := model.NewTable("t", model.NewSchema("like", "share"), 1000)
	ps := persist.New(kv.NewMemory(), "t")
	if mode != nil {
		mode(ps)
	}
	g, err := New(tbl, ps, demoteOpts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// loadFromKV writes profile 1, flushes it, drops it from every tier and
// reads it back, so the resident copy is decoded from its stored value.
func loadFromKV(t *testing.T, g *GCache) *model.Profile {
	t.Helper()
	if err := g.Add(1, 5000, 1, 1, 7, []int64{3, 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(1, 9000, 1, 2, 8, []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if !g.Drop(1) {
		t.Fatal("drop: profile 1 not resident")
	}
	p, hit, err := g.Get(1)
	if err != nil || p == nil || hit {
		t.Fatalf("reload: p=%v hit=%v err=%v", p, hit, err)
	}
	return p
}

// freshBlob is what demotion would encode for p now.
func freshBlob(p *model.Profile) []byte {
	p.RLock()
	defer p.RUnlock()
	return snap.Encode(nil, model.MarshalProfile(p))
}

func keptBlob(p *model.Profile) []byte {
	p.RLock()
	defer p.RUnlock()
	return p.Blob()
}

// demote evicts everything and returns id's warm blob.
func demote(t *testing.T, g *GCache, id model.ProfileID) []byte {
	t.Helper()
	g.EvictToWatermark()
	e := g.warm.peek(id)
	if e == nil {
		t.Fatalf("profile %d not warm after eviction (state %v)", id, g.State(id))
	}
	return e.blob
}

func sameBacking(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestDemoteReusesDecodedBlob pins the tentpole of eviction without
// re-encoding: a clean profile decoded from a compressed bulk value, and
// again from a warm blob, is demoted with the very blob it came from —
// byte-identical to a fresh encoding, because MarshalProfile is
// canonical — and that blob inflates to the same profile.
func TestDemoteReusesDecodedBlob(t *testing.T) {
	g := newDemoteCache(t, nil)
	p := loadFromKV(t, g)
	kept := keptBlob(p)
	want := freshBlob(p)
	if !bytes.Equal(kept, want) {
		t.Fatalf("load kept %dB, a fresh encoding is %dB", len(kept), len(want))
	}
	for round := 0; round < 3; round++ {
		blob := demote(t, g, 1)
		if !sameBacking(blob, kept) {
			t.Fatalf("round %d: demotion encoded afresh instead of reusing the decoded-from blob", round)
		}
		if !bytes.Equal(blob, want) {
			t.Fatalf("round %d: demoted blob differs from a fresh encoding", round)
		}
		// A warm hit keeps the blob it inflated from for the next round.
		q, _, err := g.Get(1)
		if err != nil || q == nil {
			t.Fatalf("round %d: warm hit: %v", round, err)
		}
		if got := freshBlob(q); !bytes.Equal(got, want) {
			t.Fatalf("round %d: inflated profile differs from the one demoted", round)
		}
		if !sameBacking(keptBlob(q), kept) {
			t.Fatalf("round %d: inflate did not keep the warm blob", round)
		}
	}
	if g.WarmHits.Value() != 3 || g.Demotions.Value() != 3 {
		t.Fatalf("warm hits %d demotions %d, want 3 and 3", g.WarmHits.Value(), g.Demotions.Value())
	}
}

// TestDemoteEncodesFreshAfterChange pins the guard: once the profile has
// changed since it was decoded — through a model mutator, or through a
// direct Generation or watermark bump such as an Install mark — or when
// it was not decoded from a snap blob at all, demotion encodes its
// current state.
func TestDemoteEncodesFreshAfterChange(t *testing.T) {
	compacted := func(g *GCache, p *model.Profile, markDirty bool) {
		p.Lock()
		if !markDirty {
			// Instance.CompactNow: journal the pass (advancing WalLSN)
			// and compact, without marking the profile dirty.
			p.WalLSN = 50
		}
		st := compact.Maintain(p, g.table.Schema, config.Default(), 7_200_000)
		if markDirty {
			p.Dirty = true
		}
		p.Unlock()
		g.NoteSizeChange(1, st.BytesAfter-st.BytesBefore)
		if markDirty {
			g.MarkDirty(1)
		}
	}
	cases := []struct {
		name   string
		mode   func(*persist.Persister)
		change func(t *testing.T, g *GCache, p *model.Profile)
	}{
		{"add", nil, func(t *testing.T, g *GCache, _ *model.Profile) {
			if err := g.Add(1, 9500, 1, 2, 9, []int64{2, 0}); err != nil {
				t.Fatal(err)
			}
		}},
		{"merge", nil, func(t *testing.T, g *GCache, p *model.Profile) {
			// The write-isolation merge: fold the write table's entries
			// in and advance MergedLSN, then notify the cache.
			p.Lock()
			before := p.MemSize()
			if err := p.Add(g.table.Schema, 9000, g.table.HeadWidth(), 1, 2, 8, []int64{4, 0}); err != nil {
				t.Fatal(err)
			}
			p.MergedLSN, p.WalLSN = 60, 60
			delta := p.MemSize() - before
			p.Unlock()
			g.NoteSizeChange(1, delta)
			g.MarkDirty(1)
		}},
		{"compaction", nil, func(_ *testing.T, g *GCache, p *model.Profile) { compacted(g, p, true) }},
		{"CompactNow", nil, func(_ *testing.T, g *GCache, p *model.Profile) { compacted(g, p, false) }},
		{"install mark", nil, func(t *testing.T, g *GCache, _ *model.Profile) {
			_, marked, err := g.Install(context.Background(), wire.MigrateFrame{ProfileID: 1, WalLSN: 500}, true)
			if err != nil || !marked {
				t.Fatalf("install mark: marked=%v err=%v", marked, err)
			}
		}},
		{"fine-grained load", func(ps *persist.Persister) { ps.Mode = persist.FineGrained }, nil},
		{"uncompressed load", func(ps *persist.Persister) { ps.Compress = false }, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := newDemoteCache(t, c.mode)
			p := loadFromKV(t, g)
			loaded := keptBlob(p)
			if (c.change == nil) != (loaded == nil) {
				t.Fatalf("load kept a %dB blob", len(loaded))
			}
			if c.change != nil {
				c.change(t, g, p)
				if b := keptBlob(p); b != nil {
					t.Fatalf("changed profile still hands out its %dB decoded-from blob", len(b))
				}
			}
			want := freshBlob(p)
			blob := demote(t, g, 1)
			if sameBacking(blob, loaded) {
				t.Fatal("demoted with the blob the profile was decoded from, though it changed since")
			}
			if !bytes.Equal(blob, want) {
				t.Fatal("demoted blob is not the encoding of the profile's current state")
			}
			checkTierAccounting(t, g, g.table)
		})
	}
}

// TestDemoteBlobChargedToDecodedTier pins the accounting: the kept blob
// is charged to the decoded tier, so MemLimit still bounds it, and the
// first write releases both the blob and its charge.
func TestDemoteBlobChargedToDecodedTier(t *testing.T) {
	g := newDemoteCache(t, nil)
	p := loadFromKV(t, g)
	p.RLock()
	blob, size, decoded := p.Blob(), p.MemSize(), p.Clone().MemSize()
	p.RUnlock()
	if len(blob) == 0 || size != decoded+int64(len(blob)) {
		t.Fatalf("MemSize %d, want decoded %d + blob %d", size, decoded, len(blob))
	}
	if g.Usage() != size {
		t.Fatalf("Usage %d, want the profile's %d", g.Usage(), size)
	}
	checkTierAccounting(t, g, g.table)

	if err := g.Add(1, 9000, 1, 2, 8, []int64{1, 0}); err != nil {
		t.Fatal(err)
	}
	p.RLock()
	blob, size, decoded = p.Blob(), p.MemSize(), p.Clone().MemSize()
	p.RUnlock()
	if blob != nil || size != decoded {
		t.Fatalf("after a write: blob %dB, MemSize %d, decoded %d; want the blob and its charge released", len(blob), size, decoded)
	}
	if g.Usage() != size {
		t.Fatalf("Usage %d after the write, want %d", g.Usage(), size)
	}
	checkTierAccounting(t, g, g.table)
}
