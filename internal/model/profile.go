package model

import (
	"sync"
)

// Profile is one user's entire profile: a time-serial list of slices,
// ordered newest first (slices[0] covers the most recent interval). The
// head slice is the only one taking new writes for current timestamps;
// older timestamps merge into whichever historical slice contains them.
//
// A Profile carries its own RWMutex. GCache and the server layer rely on
// Lock/TryLock for swap and flush coordination (§III-C).
type Profile struct {
	mu sync.RWMutex

	// ID is the profile key within its table.
	ID ProfileID

	slices []*Slice

	// memSize caches the MemSize sum so eviction accounting is O(1).
	memSize int64

	// blob is the snap-compressed MarshalProfile encoding the profile was
	// decoded from (KeepBlob), kept so that eviction can demote an
	// unchanged profile without encoding it again; blobAt is the version
	// the blob encodes. Charged to memSize; nil once a mutator ran.
	blob   []byte
	blobAt version

	// Dirty marks profiles with unflushed changes; maintained by callers
	// holding mu (GCache's dirty list).
	Dirty bool
	// Generation counts mutations, used by the fine-grained persistence
	// mode to version slice metadata (§III-E, Fig. 14).
	Generation uint64
	// WalLSN is the journal sequence number of the most recent logged
	// mutation applied to this profile; it is persisted alongside the
	// profile so crash recovery replays only the journal suffix with
	// LSN > WalLSN. Maintained by callers holding mu; stays 0 when
	// journaling is disabled.
	WalLSN uint64
	// MergedLSN is the highest write-isolation (write-table) journal LSN
	// whose entries have been folded into this main profile by a merge.
	// Isolated adds form a second mutation stream: their data is absent
	// from the persisted profile until merged, even when a compaction has
	// advanced WalLSN past them, so recovery and journal truncation track
	// them against this watermark. Maintained by callers holding mu; stays
	// 0 when journaling or write isolation is disabled.
	MergedLSN uint64
	// MigLSN is the migration freshness watermark: the highest journal LSN
	// the profile's previous owner had acknowledged when this copy was
	// handed off during elastic resharding. It is observational — replay
	// and journal truncation never consult it, because it names a FOREIGN
	// journal's sequence space — but it travels inside the profile blob and
	// is surfaced in query responses, so the migration-storm suite can
	// assert post-cutover reads observe a watermark >= every pre-cutover
	// ack. Monotone under install; maintained by callers holding mu.
	MigLSN uint64
}

// version is the part of a profile's state a mutation must move: the
// Generation or one of the three watermarks. Every content change bumps
// Generation, including those made outside this package.
type version struct {
	gen, wal, merged, mig uint64
}

func (p *Profile) version() version {
	return version{p.Generation, p.WalLSN, p.MergedLSN, p.MigLSN}
}

// NewProfile creates an empty profile.
func NewProfile(id ProfileID) *Profile {
	return &Profile{ID: id, memSize: profileBaseSize}
}

const profileBaseSize = 96

// Lock acquires the profile's exclusive lock.
func (p *Profile) Lock() { p.mu.Lock() }

// Unlock releases the exclusive lock.
func (p *Profile) Unlock() { p.mu.Unlock() }

// TryLock attempts the exclusive lock without blocking, as the paper's swap
// threads do (§III-C, Fig. 8).
func (p *Profile) TryLock() bool { return p.mu.TryLock() }

// RLock acquires the shared lock.
//
//ips:hotpath
func (p *Profile) RLock() { p.mu.RLock() }

// RUnlock releases the shared lock.
//
//ips:hotpath
func (p *Profile) RUnlock() { p.mu.RUnlock() }

// NumSlices returns the slice-list length. Caller must hold at least RLock.
//
//ips:hotpath
func (p *Profile) NumSlices() int { return len(p.slices) }

// Slices returns the internal slice list, newest first. Caller must hold at
// least RLock and must not mutate the returned list.
//
//ips:hotpath
func (p *Profile) Slices() []*Slice { return p.slices }

// SnapshotSlices returns a copy of the slice-list headers (the same *Slice
// pointers) so a query can release the profile lock before computing.
// Caller must hold at least RLock during the call.
func (p *Profile) SnapshotSlices() []*Slice {
	return append([]*Slice(nil), p.slices...)
}

// MemSize returns the cached memory footprint estimate in bytes.
//
//ips:hotpath
func (p *Profile) MemSize() int64 { return p.memSize }

// RecomputeMemSize recalculates the cached footprint after bulk mutations
// (compaction, shrink). Caller must hold Lock.
func (p *Profile) RecomputeMemSize() int64 {
	n := int64(profileBaseSize + len(p.blob))
	for _, s := range p.slices {
		n += s.MemSize()
	}
	p.memSize = n
	return n
}

// KeepBlob records blob, the snap-compressed MarshalProfile encoding p
// was just decoded from, so that Blob can hand it back while p is
// unchanged. The blob is charged to MemSize until a mutator releases it.
// blob must not be modified afterwards. Caller must hold Lock or own p
// exclusively.
func (p *Profile) KeepBlob(blob []byte) {
	p.memSize += int64(len(blob) - len(p.blob))
	p.blob, p.blobAt = blob, p.version()
}

// Blob returns the kept encoding when p is unchanged since KeepBlob (same
// Generation and watermarks), else nil. The encoding is immutable and
// safe to share. Caller must hold at least RLock.
func (p *Profile) Blob() []byte {
	if p.blobAt != p.version() {
		return nil
	}
	return p.blob
}

// releaseBlob drops the kept encoding and its charge: a mutated profile
// never hands it out again, so it need not hold its memory either.
func (p *Profile) releaseBlob() {
	p.memSize -= int64(len(p.blob))
	p.blob = nil
}

// Latest returns the newest event timestamp across the profile, or 0 when
// empty. Caller must hold at least RLock.
//
//ips:hotpath
func (p *Profile) Latest() Millis {
	if len(p.slices) == 0 {
		return 0
	}
	return p.slices[0].Latest
}

// Add merges one feature observation into the profile, creating or locating
// the slice for ts. headWidth is the width of newly created head slices
// (the finest granularity of the table's time-dimension config). Caller
// must hold Lock.
//
// Placement follows §II-B1: a timestamp newer than the head slice's window
// starts a new head slice; a timestamp inside an existing slice's window
// merges into that slice; a timestamp older than everything appends a new
// slice at the tail.
func (p *Profile) Add(schema *Schema, ts Millis, headWidth Millis, slot SlotID, typ TypeID, fid FeatureID, counts []int64) error {
	if ts <= 0 {
		return ErrBadTimestamp
	}
	if len(counts) != schema.NumActions() {
		return ErrBadCounts
	}
	p.releaseBlob()
	s := p.sliceFor(ts, headWidth)
	before := s.MemSize()
	s.Add(schema, ts, slot, typ, fid, counts)
	p.memSize += s.MemSize() - before
	p.Generation++
	p.Dirty = true
	return nil
}

// sliceFor locates or creates the slice containing ts.
func (p *Profile) sliceFor(ts Millis, headWidth Millis) *Slice {
	if headWidth <= 0 {
		headWidth = 1000 // 1s default granularity
	}
	if len(p.slices) == 0 {
		s := p.newAligned(ts, headWidth)
		p.slices = []*Slice{s}
		return s
	}
	head := p.slices[0]
	if ts >= head.End {
		// Newer than the head window: seal head, place a fresh slice at
		// the beginning of the list.
		s := p.newAligned(ts, headWidth)
		p.slices = append([]*Slice{s}, p.slices...)
		return s
	}
	// Find the slice whose interval contains ts (list is newest first).
	for _, s := range p.slices {
		if s.Contains(ts) {
			return s
		}
		if ts >= s.End {
			// ts falls in a gap between slices: create a slice for it.
			return p.insertAligned(ts, headWidth)
		}
	}
	// Older than everything: append at the tail.
	return p.insertAligned(ts, headWidth)
}

// newAligned creates a slice aligned down to headWidth, accounting its
// memory.
func (p *Profile) newAligned(ts Millis, headWidth Millis) *Slice {
	start := ts - ts%headWidth
	s := NewSlice(start, start+headWidth)
	p.memSize += s.MemSize()
	return s
}

// insertAligned creates an aligned slice for ts and inserts it in time
// order (newest first), clamping against neighbours so intervals never
// overlap.
func (p *Profile) insertAligned(ts Millis, headWidth Millis) *Slice {
	start := ts - ts%headWidth
	end := start + headWidth
	// Find insertion point: first index whose End <= ts (older slice).
	i := 0
	for i < len(p.slices) && p.slices[i].Start > ts {
		i++
	}
	// Clamp against newer neighbour.
	if i > 0 && end > p.slices[i-1].Start {
		end = p.slices[i-1].Start
	}
	// Clamp against older neighbour.
	if i < len(p.slices) && start < p.slices[i].End {
		start = p.slices[i].End
	}
	if start >= end {
		// Degenerate after clamping (dense neighbours): fall back to the
		// nearest containing-capable neighbour, merging into the older one.
		if i < len(p.slices) {
			return p.slices[i]
		}
		return p.slices[len(p.slices)-1]
	}
	s := NewSlice(start, end)
	p.memSize += s.MemSize()
	p.slices = append(p.slices, nil)
	copy(p.slices[i+1:], p.slices[i:])
	p.slices[i] = s
	return s
}

// ReplaceSlices swaps the slice list wholesale (compaction, truncation,
// load-from-storage). Caller must hold Lock.
func (p *Profile) ReplaceSlices(slices []*Slice) {
	p.blob = nil
	p.slices = slices
	p.Generation++
	p.RecomputeMemSize()
}

// SlicesInRange returns the slices overlapping [from, to), newest first.
// Caller must hold at least RLock.
func (p *Profile) SlicesInRange(from, to Millis) []*Slice {
	var out []*Slice
	for _, s := range p.slices {
		if s.Overlaps(from, to) {
			out = append(out, s)
		}
	}
	return out
}

// NumFeatures returns the total feature stat count across all slices.
// Caller must hold at least RLock.
func (p *Profile) NumFeatures() int {
	var n int
	for _, s := range p.slices {
		n += s.NumFeatures()
	}
	return n
}

// Clone returns a deep copy of the profile (without lock state). Caller
// must hold at least RLock.
func (p *Profile) Clone() *Profile {
	c := NewProfile(p.ID)
	c.slices = make([]*Slice, len(p.slices))
	for i, s := range p.slices {
		c.slices[i] = s.Clone()
	}
	c.Generation = p.Generation
	c.WalLSN = p.WalLSN
	c.MergedLSN = p.MergedLSN
	c.MigLSN = p.MigLSN
	c.RecomputeMemSize()
	return c
}

// CheckInvariants verifies the profile's structural invariants: slices are
// newest-first, non-overlapping, and the cached mem size is fresh. Used by
// property tests.
func (p *Profile) CheckInvariants() error {
	for i := 1; i < len(p.slices); i++ {
		if p.slices[i-1].Start < p.slices[i].End {
			return errInvariant("slices overlap or are misordered", p.slices[i-1], p.slices[i])
		}
	}
	return nil
}

func errInvariant(msg string, newer, older *Slice) error {
	return &InvariantError{Msg: msg, NewerStart: newer.Start, NewerEnd: newer.End, OlderStart: older.Start, OlderEnd: older.End}
}

// InvariantError describes a violated structural invariant.
type InvariantError struct {
	Msg                  string
	NewerStart, NewerEnd Millis
	OlderStart, OlderEnd Millis
}

func (e *InvariantError) Error() string {
	return "model: invariant violated: " + e.Msg
}
