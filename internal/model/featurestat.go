package model

// FeatureStat is one feature's statistics inside a slice: the feature ID and
// its vector of action counts. This is the leaf of the profile hierarchy —
// the paper's "Indexed Feature Stat" entry, stored either as an int64 pair
// (one action) or a list (several actions).
type FeatureStat struct {
	FID    FeatureID
	Counts []int64
}

// Clone returns a deep copy.
func (f FeatureStat) Clone() FeatureStat {
	return FeatureStat{FID: f.FID, Counts: append([]int64(nil), f.Counts...)}
}

// FeatureStats holds every feature stat for one (slot, type) inside a slice.
// It keeps the stats in a flat slice plus the paper's fid_index: a map from
// FID to position, which makes write-time aggregation and multi-way merge
// O(1) per feature. Most sets hold a few features (one day of one type),
// where a map would cost more than the stats it indexes, so the index is
// built only once a set grows past indexAt stats; below that a lookup
// scans the stats.
type FeatureStats struct {
	stats    []FeatureStat
	fidIndex map[FeatureID]int // nil until len(stats) > indexAt
}

// indexAt is the largest set that is searched by a scan instead of a map.
const indexAt = 8

// NewFeatureStats returns an empty FeatureStats.
func NewFeatureStats() *FeatureStats { return &FeatureStats{} }

// find returns fid's position. Without an index it scans from the newest
// stat, so a decoded set that repeats a fid resolves to its last copy, as
// the index does.
//
//ips:hotpath
func (fs *FeatureStats) find(fid FeatureID) (int, bool) {
	if fs.fidIndex != nil {
		i, ok := fs.fidIndex[fid]
		return i, ok
	}
	for i := len(fs.stats) - 1; i >= 0; i-- {
		if fs.stats[i].FID == fid {
			return i, true
		}
	}
	return 0, false
}

// push appends a stat for a fid the set does not hold yet.
func (fs *FeatureStats) push(st FeatureStat) {
	fs.stats = append(fs.stats, st)
	if fs.fidIndex != nil {
		fs.fidIndex[st.FID] = len(fs.stats) - 1
	} else if len(fs.stats) > indexAt {
		fs.reindex()
	}
}

// reindex rebuilds the index from the stats, or drops it when the set is
// small enough to scan.
func (fs *FeatureStats) reindex() {
	if len(fs.stats) <= indexAt {
		fs.fidIndex = nil
		return
	}
	fs.fidIndex = make(map[FeatureID]int, len(fs.stats))
	for i, st := range fs.stats {
		fs.fidIndex[st.FID] = i
	}
}

// Len returns the number of distinct features.
//
//ips:hotpath
func (fs *FeatureStats) Len() int { return len(fs.stats) }

// Get returns the counts for fid, or nil when absent. The returned slice is
// live; callers must not mutate it.
//
//ips:hotpath
func (fs *FeatureStats) Get(fid FeatureID) []int64 {
	if i, ok := fs.find(fid); ok {
		return fs.stats[i].Counts
	}
	return nil
}

// Merge folds counts for fid into the set under the schema's per-action
// reduce functions. The incoming counts are treated as the newer value.
func (fs *FeatureStats) Merge(schema *Schema, fid FeatureID, counts []int64) {
	if i, ok := fs.find(fid); ok {
		dst := fs.stats[i].Counts
		for j := range dst {
			if j < len(counts) {
				dst[j] = schema.reducer(j).apply(dst[j], counts[j])
			}
		}
		return
	}
	fs.push(FeatureStat{FID: fid, Counts: append([]int64(nil), counts...)})
}

// MergeAll folds every stat from other into the set.
func (fs *FeatureStats) MergeAll(schema *Schema, other *FeatureStats) {
	for _, st := range other.stats {
		fs.Merge(schema, st.FID, st.Counts)
	}
}

// Each calls fn for every feature stat. The FeatureStat passed to fn aliases
// internal storage; fn must not retain or mutate it.
func (fs *FeatureStats) Each(fn func(FeatureStat)) {
	for _, st := range fs.stats {
		fn(st)
	}
}

// View returns the live stats slice without copying — the zero-allocation
// iteration surface for the read path. The slice and every Counts vector
// alias internal storage: callers must hold the owning profile's read lock
// (or operate on sealed copies) and must not mutate or retain them.
//
//ips:hotpath
func (fs *FeatureStats) View() []FeatureStat { return fs.stats }

// Stats returns a deep copy of all stats, for callers that need a snapshot.
func (fs *FeatureStats) Stats() []FeatureStat {
	out := make([]FeatureStat, len(fs.stats))
	for i, st := range fs.stats {
		out[i] = st.Clone()
	}
	return out
}

// Delete removes fid from the set, reporting whether it was present.
func (fs *FeatureStats) Delete(fid FeatureID) bool {
	i, ok := fs.find(fid)
	if !ok {
		return false
	}
	last := len(fs.stats) - 1
	if i != last {
		fs.stats[i] = fs.stats[last]
		if fs.fidIndex != nil {
			fs.fidIndex[fs.stats[i].FID] = i
		}
	}
	fs.stats[last] = FeatureStat{}
	fs.stats = fs.stats[:last]
	if fs.fidIndex != nil {
		delete(fs.fidIndex, fid)
	}
	return true
}

// Retain keeps only the stats for which keep returns true, used by the
// Shrink process to drop long-tail features.
func (fs *FeatureStats) Retain(keep func(FeatureStat) bool) {
	out := fs.stats[:0]
	for _, st := range fs.stats {
		if keep(st) {
			out = append(out, st)
		}
	}
	clear(fs.stats[len(out):])
	fs.stats = out
	fs.reindex()
}

// Clone returns a deep copy.
func (fs *FeatureStats) Clone() *FeatureStats {
	c := &FeatureStats{stats: make([]FeatureStat, len(fs.stats))}
	for i, st := range fs.stats {
		c.stats[i] = st.Clone()
	}
	c.reindex()
	return c
}

// MemSize returns a deterministic estimate of the in-memory footprint in
// bytes, used by GCache for eviction accounting. It charges every stat an
// index entry, built or not, on the scale InstanceSet.MemSize keeps.
func (fs *FeatureStats) MemSize() int64 {
	var n int64
	for _, st := range fs.stats {
		// FID + slice header + counts payload.
		n += 8 + 24 + int64(8*len(st.Counts))
	}
	// fid_index map entries: key + value + bucket overhead estimate.
	n += int64(len(fs.stats)) * 32
	return n + 48 // struct + index header
}
