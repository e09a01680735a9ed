package gcache

import (
	"sync"
	"sync/atomic"

	"ips/internal/model"
)

// Hot-profile read slots (batch architecture v2, part b): the Zipf head
// of a skewed read workload funnels thousands of concurrent readers onto
// a handful of profiles, where they serialize on each profile's RWMutex
// (even read locks contend: every RLock bounces the same cache line).
// A small detector over recent gets promotes profiles that cross a read
// threshold into one immutable read replica — a deep clone taken under
// one RLock — and subsequent reads are served from it without touching
// the live profile's lock at all. The replica is never written, and the
// query kernel reads it without a lock, so every reader shares the one
// clone. Any mutation (add, merge, compaction, eviction, delete)
// invalidates the replica before the mutation is acknowledged, so a read
// that starts after a write's ack can never observe a snapshot older than
// that write. The NVIDIA GPU inference parameter server (PAPERS.md) uses
// the same replicate-the-head trick to dodge hot-embedding contention.

const (
	// hotCountSlots sizes the decayed read-counter table (a one-row
	// count-min sketch); power of two, indexed by hashed profile ID.
	// Collisions only make a cold key look slightly hotter, which costs
	// at most one unnecessary promotion.
	hotCountSlots = 4096
	// hotEpochSlots sizes the invalidation-epoch table that fences
	// promotions racing concurrent writes.
	hotEpochSlots = 1024
	// hotIndexSlots sizes the typed read index over promoted entries.
	// sync.Map.Load boxes a uint64 key into an interface — one heap
	// allocation per hot read for IDs >= 256 — so lookups go through this
	// boxing-free table instead; the sync.Map stays authoritative for
	// installs, teardown, and accounting walks. A hash collision merely
	// displaces one entry from the index (its reads fall back to the
	// live profile), never serves the wrong profile: lookups compare the
	// entry's own id.
	hotIndexSlots = 1024
	// hotDecayEvery halves every read counter after this many observed
	// reads, so the detector tracks the CURRENT Zipf head rather than
	// all-time totals. Count-based (not wall-clock) decay keeps the
	// detector deterministic for tests.
	hotDecayEvery = 1 << 14
)

// hotEntry is one promoted profile: its immutable clone plus the
// watermarks it was snapshotted at.
type hotEntry struct {
	// id is the promoted profile's key, checked by index lookups so a
	// colliding slot can never serve another profile's replica.
	id model.ProfileID
	// lsn is the profile's WalLSN at snapshot time; the staleness
	// property test asserts reads never observe an lsn below the last
	// acknowledged write's.
	lsn uint64
	// gen is the profile's Generation at snapshot time.
	gen uint64
	// bytes is the clone's footprint, charged to the hot set while the
	// entry is installed — a promoted replica is real memory and counts
	// against MemLimit like any resident profile.
	bytes   int64
	replica *model.Profile
}

// hotSet is the per-cache hot-key detector plus the promoted-entry table.
// A nil *hotSet disables the feature: every method is nil-safe.
type hotSet struct {
	promoteAfter uint32 // reads within the decay window that promote
	maxEntries   int64  // cap on simultaneously promoted profiles

	entries   sync.Map // model.ProfileID -> *hotEntry
	index     [hotIndexSlots]atomic.Pointer[hotEntry]
	size      atomic.Int64
	bytes     atomic.Int64 // summed clone footprint of installed entries
	promoting sync.Map     // model.ProfileID -> struct{}: promotion in flight

	epochs  [hotEpochSlots]atomic.Uint64
	counts  [hotCountSlots]atomic.Uint32
	reads   atomic.Uint64
	decayMu sync.Mutex
}

// newHotSet returns the hot set, or nil (promotion off) when slots is 0.
func newHotSet(slots, promoteAfter, maxEntries int) *hotSet {
	if slots <= 0 {
		return nil
	}
	if promoteAfter <= 0 {
		promoteAfter = 64
	}
	if maxEntries <= 0 {
		maxEntries = 128
	}
	return &hotSet{promoteAfter: uint32(promoteAfter), maxEntries: int64(maxEntries)}
}

//ips:hotpath
func hotHash(id model.ProfileID) uint64 {
	return uint64(id) * 0x9e3779b97f4a7c15
}

//ips:hotpath
func (h *hotSet) epoch(id model.ProfileID) *atomic.Uint64 {
	return &h.epochs[hotHash(id)>>(64-10)] // top 10 bits: hotEpochSlots
}

//ips:hotpath
func (h *hotSet) indexSlot(id model.ProfileID) *atomic.Pointer[hotEntry] {
	return &h.index[hotHash(id)>>(64-10)] // top 10 bits: hotIndexSlots
}

// clearIndex removes id's entry from the read index, if present.
func (h *hotSet) clearIndex(id model.ProfileID) {
	s := h.indexSlot(id)
	if cur := s.Load(); cur != nil && cur.id == id {
		s.CompareAndSwap(cur, nil)
	}
}

// lookup returns the promoted entry for id, nil when none.
//
//ips:hotpath
func (h *hotSet) lookup(id model.ProfileID) *hotEntry {
	if h == nil {
		return nil
	}
	if e := h.indexSlot(id).Load(); e != nil && e.id == id {
		return e
	}
	return nil
}

// note records one read of id and reports whether the decayed count has
// crossed the promotion threshold.
//
//ips:hotpath
func (h *hotSet) note(id model.ProfileID) bool {
	if h == nil {
		return false
	}
	c := &h.counts[hotHash(id)>>(64-12)] // top 12 bits: hotCountSlots
	n := c.Add(1)
	if h.reads.Add(1)%hotDecayEvery == 0 && h.decayMu.TryLock() {
		// One reader amortizes the decay sweep; TryLock keeps a
		// concurrent sweep from doubling the halving.
		for i := range h.counts {
			h.counts[i].Store(h.counts[i].Load() / 2)
		}
		h.decayMu.Unlock()
	}
	return n >= h.promoteAfter
}

// invalidate drops id's promoted entry (if any) and fences any promotion
// snapshotting concurrently: the epoch bump makes an in-flight promote's
// post-install check fail, so a snapshot taken before this mutation can
// never be served after it. The read counter is reset so a write-hot key
// must earn promoteAfter fresh reads between writes — keys written as
// often as they are read naturally stay unpromoted instead of thrashing
// a clone per write. Reports whether an entry was removed.
func (h *hotSet) invalidate(id model.ProfileID) bool {
	if h == nil {
		return false
	}
	h.epoch(id).Add(1)
	h.counts[hotHash(id)>>(64-12)].Store(0)
	h.clearIndex(id)
	if v, ok := h.entries.LoadAndDelete(id); ok {
		h.size.Add(-1)
		h.bytes.Add(-v.(*hotEntry).bytes)
		return true
	}
	return false
}

// cloneBytes returns the memory currently pinned by promoted read
// replicas, charged into the cache's Usage.
func (h *hotSet) cloneBytes() int64 {
	if h == nil {
		return 0
	}
	return h.bytes.Load()
}

// maybePromote snapshots p into one immutable read replica, unless id is
// already promoted, another goroutine is promoting it, or the entry cap
// is reached. The epoch is read BEFORE the snapshot and re-checked AFTER
// the entry is installed: a writer that mutates p in between bumps the
// epoch (invalidate runs before the write acks), so the stale entry is
// torn straight back out. Reports whether a promotion happened.
func (g *GCache) maybePromote(id model.ProfileID, p *model.Profile) bool {
	h := g.hot
	if h == nil {
		return false
	}
	if _, ok := h.entries.Load(id); ok {
		return false
	}
	if h.size.Load() >= h.maxEntries {
		return false
	}
	if _, racing := h.promoting.LoadOrStore(id, struct{}{}); racing {
		return false
	}
	defer h.promoting.Delete(id)
	if _, ok := h.entries.Load(id); ok {
		return false
	}
	e := h.epoch(id).Load()
	entry := &hotEntry{id: id}
	p.RLock()
	entry.lsn, entry.gen = p.WalLSN, p.Generation
	entry.replica = p.Clone()
	p.RUnlock()
	entry.bytes = entry.replica.MemSize()
	h.entries.Store(id, entry)
	h.indexSlot(id).Store(entry)
	h.size.Add(1)
	h.bytes.Add(entry.bytes)
	if h.epoch(id).Load() != e {
		// A write landed while we cloned; our snapshot may predate it.
		h.clearIndex(id)
		if v, ok := h.entries.LoadAndDelete(id); ok {
			h.size.Add(-1)
			h.bytes.Add(-v.(*hotEntry).bytes)
		}
		return false
	}
	g.HotPromotions.Inc()
	return true
}
