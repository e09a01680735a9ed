package gcache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ips/internal/model"
	"ips/internal/snap"
	"ips/internal/trace"
)

// Entry lifecycle state machine (DESIGN.md "Entry lifecycle"). Every
// profile the cache has ever seen is in exactly one of three states:
//
//	decoded ⇄ warm (snap-compressed blob) ⇄ evicted (KV only)
//
// The decoded tier is the model.Table: live, lockable, mutable objects.
// The warm tier holds snap-compressed MarshalProfile blobs of profiles
// eviction demoted — the blob the profile was decoded from when it is
// unchanged since, a fresh encoding otherwise — always CLEAN (flushed
// before demotion, so flush-before-drop still holds and the journal's
// truncation watermark keeps advancing), always immutable, and strictly
// exclusive with the decoded tier: a profile is never in both at once.
// A warm hit re-inflates in process for roughly the cost of a decode, an
// order of magnitude cheaper than the KV round trip an evicted profile
// pays.
//
// Tier exclusivity is enforced at every transition: installing into the
// table (load, createEmpty, inflate) purges any warm shadow, demoting
// into the warm tier deletes from the table under the profile lock, and
// every drop path (Drop, Discard, exportRelease) clears both tiers.
// markDirty purges the warm tier too, as a belt-and-braces choke point:
// a profile about to carry unflushed writes must not leave a stale
// compressed shadow behind.
//
// Lock order: warmTier.mu is a leaf — it is taken under the profile
// write lock (demoteLocked) and never the other way around.

// EntryState names a profile's position in the cache hierarchy.
type EntryState uint8

const (
	// StateDecoded: live object in the table (hot tier).
	StateDecoded EntryState = iota
	// StateWarm: snap-compressed blob in the warm tier.
	StateWarm
	// StateEvicted: present only in the KV store (or nowhere).
	StateEvicted
)

func (s EntryState) String() string {
	switch s {
	case StateDecoded:
		return "decoded"
	case StateWarm:
		return "warm"
	default:
		return "evicted"
	}
}

// State reports the tier currently holding id. Advisory: the answer can
// be stale by the time the caller acts on it.
func (g *GCache) State(id model.ProfileID) EntryState {
	if g.table.Get(id) != nil {
		return StateDecoded
	}
	if g.warm.peek(id) != nil {
		return StateWarm
	}
	return StateEvicted
}

// warmEntryBaseSize approximates a warm entry's bookkeeping overhead
// (struct, list element, map slot) on top of its blob.
const warmEntryBaseSize = 96

// warmEntry is one demoted profile: its compressed encoding plus the
// watermarks captured at demotion time, so migration can ship the blob
// without inflating it.
type warmEntry struct {
	id   model.ProfileID
	blob []byte // snap-compressed MarshalProfile encoding; immutable
	// Watermarks at demotion time (also encoded inside blob).
	walLSN    uint64
	mergedLSN uint64
	migLSN    uint64
}

func (e *warmEntry) size() int64 {
	return int64(len(e.blob)) + warmEntryBaseSize
}

// warmTier is the compressed middle tier: one LRU of immutable blobs
// with its own byte budget, independent of the decoded tier's. A nil
// *warmTier disables the tier (WarmLimit <= 0); every method is
// nil-safe.
type warmTier struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently demoted or re-warmed
	items map[model.ProfileID]*list.Element
	bytes atomic.Int64
}

func newWarmTier(limit int64) *warmTier {
	if limit <= 0 {
		return nil
	}
	return &warmTier{ll: list.New(), items: make(map[model.ProfileID]*list.Element)}
}

func (w *warmTier) usage() int64 {
	if w == nil {
		return 0
	}
	return w.bytes.Load()
}

func (w *warmTier) resident() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ll.Len()
}

// put inserts or replaces id's blob at the MRU end.
func (w *warmTier) put(e *warmEntry) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if el, ok := w.items[e.id]; ok {
		w.bytes.Add(e.size() - el.Value.(*warmEntry).size())
		el.Value = e
		w.ll.MoveToFront(el)
		return
	}
	w.items[e.id] = w.ll.PushFront(e)
	w.bytes.Add(e.size())
}

// peek returns id's entry without removing it; the blob is immutable and
// safe to share.
func (w *warmTier) peek(id model.ProfileID) *warmEntry {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	el, ok := w.items[id]
	if !ok {
		return nil
	}
	return el.Value.(*warmEntry)
}

// take removes and returns id's entry, nil when absent.
func (w *warmTier) take(id model.ProfileID) *warmEntry {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	el, ok := w.items[id]
	if !ok {
		return nil
	}
	e := el.Value.(*warmEntry)
	w.ll.Remove(el)
	delete(w.items, id)
	w.bytes.Add(-e.size())
	return e
}

// drop removes id's entry, reporting whether one was present.
func (w *warmTier) drop(id model.ProfileID) bool {
	return w.take(id) != nil
}

// popTail removes and returns the LRU entry, nil when empty.
func (w *warmTier) popTail() *warmEntry {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	el := w.ll.Back()
	if el == nil {
		return nil
	}
	e := el.Value.(*warmEntry)
	w.ll.Remove(el)
	delete(w.items, e.id)
	w.bytes.Add(-e.size())
	return e
}

// walk visits every warm entry (for accounting cross-checks).
func (w *warmTier) walk(fn func(e *warmEntry)) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for el := w.ll.Front(); el != nil; el = el.Next() {
		fn(el.Value.(*warmEntry))
	}
}

// demoteLocked moves p from decoded to warm: capture the compressed
// form, insert it into the warm tier, then detach p from the table.
// When the warm tier is disabled the transition degenerates to a plain
// drop (decoded → evicted).
//
// Caller must hold p's write lock and have flushed p (p.Dirty false) —
// the blob inserted here must be durably backed, or flush-before-drop
// breaks when the warm copy is later evicted without another flush.
// Insert-before-delete means a concurrent reader sees the profile in at
// least one tier at every instant.
//
// A profile unchanged since it was decoded from a snap blob (a compressed
// bulk load or a warm hit) is demoted with that blob; only a profile that
// was written, loaded from a fine-grained or uncompressed value, or
// created in memory is encoded here.
func (g *GCache) demoteLocked(p *model.Profile) {
	if g.warm != nil {
		blob := p.Blob()
		if blob == nil {
			blob = snap.Encode(nil, model.MarshalProfile(p))
		}
		g.warm.put(&warmEntry{
			id:        p.ID,
			blob:      blob,
			walLSN:    p.WalLSN,
			mergedLSN: p.MergedLSN,
			migLSN:    p.MigLSN,
		})
		g.Demotions.Inc()
	}
	g.table.Delete(p.ID)
}

// dropLocked moves p from decoded straight to evicted, skipping the
// warm tier (Drop, migration release: the caller wants the next read to
// pay a real storage round trip, or the profile is leaving this node).
// Caller must hold p's write lock; any warm shadow must be purged by
// the caller after unlocking.
func (g *GCache) dropLocked(p *model.Profile) {
	g.table.Delete(p.ID)
}

// inflate moves a warm entry back to decoded: decompress, decode,
// install. Called only by the single-flight leader after a table miss,
// with e already removed from the warm tier, so the profile cannot be
// served from a stale blob once resident again. On a corrupt blob the
// caller falls back to the KV read — the warm copy was captured from a
// flushed profile, so storage holds the same state.
func (g *GCache) inflate(ctx context.Context, e *warmEntry) (*model.Profile, error) {
	start := time.Now()
	sp := trace.StartLeaf(ctx, trace.StageWarmHit)
	raw, err := snap.Decode(nil, e.blob)
	var p *model.Profile
	if err == nil {
		p, err = model.UnmarshalProfile(raw)
	}
	sp.EndErr(err)
	g.Tracer.Observe(trace.StageWarmHit, time.Since(start))
	if err != nil {
		return nil, err
	}
	p.ID = e.id
	p.KeepBlob(e.blob)
	// Same install discipline as load(): a writer may have created the
	// profile concurrently; prefer the resident object so its writes are
	// not lost.
	if cur := g.table.Get(e.id); cur != nil {
		return cur, nil
	}
	g.table.Put(p)
	p.RLock()
	size := p.MemSize()
	p.RUnlock()
	g.touch(e.id, size)
	return p, nil
}

// evictWarmToWatermark drops warm-tier tail blobs until usage is back
// under WarmLimit (with WarmLowWater hysteresis). Warm entries are
// always clean and KV-backed, so dropping one needs no flush.
func (g *GCache) evictWarmToWatermark() {
	if g.warm == nil || g.opts.WarmLimit <= 0 {
		return
	}
	for g.warm.usage() > g.opts.WarmLimit {
		if g.warm.popTail() == nil {
			return
		}
		g.WarmEvictions.Inc()
		if g.warm.usage() <= g.opts.WarmLowWater {
			return
		}
	}
}

// Discard retires every cache trace of id without flushing: LRU entry
// (at its recorded byte footprint), warm blob, hot replicas. The caller
// has already detached the profile from the table under the locks that
// order the delete against concurrent writes (DeleteProfile); Discard
// reconciles the accounting the detach left behind.
func (g *GCache) Discard(id model.ProfileID) {
	g.invalidateHot(id)
	g.warm.drop(id)
	g.forget(id)
}
