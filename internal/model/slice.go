package model

import "slices"

// InstanceSet maps a Type to its feature stats inside one slice — the
// middle level of the paper's multi-layer hash map (§III-B). A slot holds a
// handful of types, so the set is an array kept in ascending TypeID order
// rather than a hash map: a lookup is a binary search over a few entries,
// iteration is ordered, and a set costs no map.
type InstanceSet struct {
	types []typeStats
}

// typeStats is one entry of an InstanceSet.
type typeStats struct {
	typ TypeID
	fs  *FeatureStats
}

// NewInstanceSet returns an empty InstanceSet.
func NewInstanceSet() *InstanceSet { return &InstanceSet{} }

// find returns typ's position, or the position it would be inserted at.
//
//ips:hotpath
func (is *InstanceSet) find(typ TypeID) (int, bool) {
	lo, hi := 0, len(is.types)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if is.types[m].typ < typ {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(is.types) && is.types[lo].typ == typ
}

// Get returns the FeatureStats for typ, or nil when absent.
//
//ips:hotpath
func (is *InstanceSet) Get(typ TypeID) *FeatureStats {
	if i, ok := is.find(typ); ok {
		return is.types[i].fs
	}
	return nil
}

// GetOrCreate returns the FeatureStats for typ, creating it when absent.
func (is *InstanceSet) GetOrCreate(typ TypeID) *FeatureStats {
	i, ok := is.find(typ)
	if !ok {
		is.types = slices.Insert(is.types, i, typeStats{typ, NewFeatureStats()})
	}
	return is.types[i].fs
}

// Len returns the number of types present.
//
//ips:hotpath
func (is *InstanceSet) Len() int { return len(is.types) }

// At returns the set's i-th type and its stats, 0 <= i < Len(), in
// ascending TypeID order. Readers that merge a slice's types walk them in
// this order, so a reducer whose answer depends on merge order (LAST)
// answers the same on every read.
//
//ips:hotpath
func (is *InstanceSet) At(i int) (TypeID, *FeatureStats) {
	return is.types[i].typ, is.types[i].fs
}

// Each calls fn for every (type, stats) pair, in ascending TypeID order.
// fn must not add or delete types.
func (is *InstanceSet) Each(fn func(TypeID, *FeatureStats)) {
	for _, e := range is.types {
		fn(e.typ, e.fs)
	}
}

// Delete removes typ.
func (is *InstanceSet) Delete(typ TypeID) {
	if i, ok := is.find(typ); ok {
		is.types = slices.Delete(is.types, i, i+1)
	}
}

// Clone returns a deep copy.
func (is *InstanceSet) Clone() *InstanceSet {
	c := &InstanceSet{types: make([]typeStats, len(is.types))}
	for i, e := range is.types {
		c.types[i] = typeStats{e.typ, e.fs.Clone()}
	}
	return c
}

// MemSize estimates the in-memory footprint in bytes. It prices every
// level as a map, more than the sorted arrays cost: GCache budgets in this
// unit, and a fixed unit keeps which profiles a MemLimit admits.
func (is *InstanceSet) MemSize() int64 {
	var n int64 = 48
	for _, e := range is.types {
		n += 16 + e.fs.MemSize()
	}
	return n
}

// Slice is a snapshot of a profile's behaviour over one time interval
// [Start, End). A profile is a time-serial list of slices, newest first.
// Write traffic lands in the head slice; background compaction merges
// consecutive sealed slices into coarser ones (§III-D).
type Slice struct {
	// Start and End bound the interval covered by this slice, in Unix
	// milliseconds; Start is inclusive, End exclusive.
	Start, End Millis
	// Latest is the newest event timestamp actually recorded in the slice,
	// used by RELATIVE time-range queries.
	Latest Millis

	// slots is kept in ascending SlotID order, like InstanceSet's types.
	slots []slotSet
}

// slotSet is one entry of a Slice's slots.
type slotSet struct {
	slot SlotID
	set  *InstanceSet
}

// NewSlice creates an empty slice covering [start, end).
func NewSlice(start, end Millis) *Slice {
	return &Slice{Start: start, End: end}
}

// findSlot returns slot's position, or the position it would be inserted at.
//
//ips:hotpath
func (s *Slice) findSlot(slot SlotID) (int, bool) {
	lo, hi := 0, len(s.slots)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.slots[m].slot < slot {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.slots) && s.slots[lo].slot == slot
}

// slotOrCreate returns the InstanceSet for slot, creating it when absent.
func (s *Slice) slotOrCreate(slot SlotID) *InstanceSet {
	i, ok := s.findSlot(slot)
	if !ok {
		s.slots = slices.Insert(s.slots, i, slotSet{slot, NewInstanceSet()})
	}
	return s.slots[i].set
}

// putSlot stores set under slot, replacing any set held there.
func (s *Slice) putSlot(slot SlotID, set *InstanceSet) {
	if i, ok := s.findSlot(slot); ok {
		s.slots[i].set = set
	} else {
		s.slots = slices.Insert(s.slots, i, slotSet{slot, set})
	}
}

// Contains reports whether ts falls inside the slice interval.
//
//ips:hotpath
func (s *Slice) Contains(ts Millis) bool { return ts >= s.Start && ts < s.End }

// Overlaps reports whether the slice interval intersects [from, to).
//
//ips:hotpath
func (s *Slice) Overlaps(from, to Millis) bool { return s.Start < to && s.End > from }

// Width returns the interval length in milliseconds.
//
//ips:hotpath
func (s *Slice) Width() Millis { return s.End - s.Start }

// Slot returns the InstanceSet for slot, or nil when absent.
//
//ips:hotpath
func (s *Slice) Slot(slot SlotID) *InstanceSet {
	if i, ok := s.findSlot(slot); ok {
		return s.slots[i].set
	}
	return nil
}

// NumSlots returns the number of slots present.
func (s *Slice) NumSlots() int { return len(s.slots) }

// EachSlot calls fn for every (slot, set) pair, in ascending SlotID order.
// fn must not add slots.
func (s *Slice) EachSlot(fn func(SlotID, *InstanceSet)) {
	for _, e := range s.slots {
		fn(e.slot, e.set)
	}
}

// Add merges one feature observation into the slice.
func (s *Slice) Add(schema *Schema, ts Millis, slot SlotID, typ TypeID, fid FeatureID, counts []int64) {
	s.slotOrCreate(slot).GetOrCreate(typ).Merge(schema, fid, counts)
	if ts > s.Latest {
		s.Latest = ts
	}
}

// MergeFrom folds every slot of other into s and widens s's interval to
// cover other's. Used by compaction.
func (s *Slice) MergeFrom(schema *Schema, other *Slice) {
	for _, e := range other.slots {
		dst := s.slotOrCreate(e.slot)
		for _, te := range e.set.types {
			dst.GetOrCreate(te.typ).MergeAll(schema, te.fs)
		}
	}
	if other.Start < s.Start {
		s.Start = other.Start
	}
	if other.End > s.End {
		s.End = other.End
	}
	if other.Latest > s.Latest {
		s.Latest = other.Latest
	}
}

// NumFeatures returns the total feature count across all slots and types.
func (s *Slice) NumFeatures() int {
	var n int
	for _, e := range s.slots {
		for _, te := range e.set.types {
			n += te.fs.Len()
		}
	}
	return n
}

// Clone returns a deep copy.
func (s *Slice) Clone() *Slice {
	c := &Slice{Start: s.Start, End: s.End, Latest: s.Latest, slots: make([]slotSet, len(s.slots))}
	for i, e := range s.slots {
		c.slots[i] = slotSet{e.slot, e.set.Clone()}
	}
	return c
}

// MemSize estimates the in-memory footprint in bytes, on the same fixed
// scale as InstanceSet.MemSize.
func (s *Slice) MemSize() int64 {
	var n int64 = 72 // fixed per-slice charge
	for _, e := range s.slots {
		n += 16 + e.set.MemSize()
	}
	return n
}
