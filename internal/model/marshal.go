package model

import (
	"fmt"
	"slices"

	"ips/internal/codec"
)

// Wire field numbers for the profile hierarchy (§III-E, Fig. 12). The
// hierarchy mirrors the in-memory structure: a profile is a list of slices,
// a slice is a list of slot entries, a slot entry is a list of type
// entries, a type entry is a list of feature stats.
const (
	fProfileID     = 1
	fProfileSlice  = 2
	fProfileGen    = 3
	fProfileWal    = 4
	fProfileMerged = 5
	fProfileMig    = 6

	fSliceStart  = 1
	fSliceEnd    = 2
	fSliceLatest = 3
	fSliceSlot   = 4

	fSlotID   = 1
	fSlotType = 2

	fTypeID    = 1
	fTypeStats = 2

	fStatFID    = 1
	fStatCounts = 2
)

// MarshalProfile serializes the profile hierarchy into the wire format.
// Caller must hold at least RLock on p.
func MarshalProfile(p *Profile) []byte {
	var e codec.Buffer
	e.Uint64(fProfileID, p.ID)
	e.Uint64(fProfileGen, p.Generation)
	if p.WalLSN != 0 {
		e.Uint64(fProfileWal, p.WalLSN)
	}
	if p.MergedLSN != 0 {
		e.Uint64(fProfileMerged, p.MergedLSN)
	}
	if p.MigLSN != 0 {
		e.Uint64(fProfileMig, p.MigLSN)
	}
	for _, s := range p.slices {
		e.Message(fProfileSlice, func(se *codec.Buffer) {
			encodeSlice(se, s)
		})
	}
	return append([]byte(nil), e.Bytes()...)
}

// MarshalSlice serializes one slice, used by the fine-grained (slice-split)
// persistence mode (§III-E, Fig. 13).
func MarshalSlice(s *Slice) []byte {
	var e codec.Buffer
	encodeSlice(&e, s)
	return append([]byte(nil), e.Bytes()...)
}

// encodeSlice writes a canonical encoding: slots and types are emitted in
// ascending ID order, the order a Slice keeps them in, so identical content
// always marshals to identical bytes. The incremental persistence mode
// depends on this to fingerprint unchanged slices.
func encodeSlice(e *codec.Buffer, s *Slice) {
	e.Int64(fSliceStart, s.Start)
	e.Int64(fSliceEnd, s.End)
	e.Int64(fSliceLatest, s.Latest)

	for _, se := range s.slots {
		e.Message(fSliceSlot, func(sl *codec.Buffer) {
			sl.Uint32(fSlotID, se.slot)
			for _, te := range se.set.types {
				sl.Message(fSlotType, func(tb *codec.Buffer) {
					tb.Uint32(fTypeID, te.typ)
					for _, st := range te.fs.stats {
						tb.Message(fTypeStats, func(fe *codec.Buffer) {
							fe.Uint64(fStatFID, st.FID)
							fe.PackedI64(fStatCounts, st.Counts)
						})
					}
				})
			}
		})
	}
}

// UnmarshalProfile reconstructs a profile from its wire encoding. The
// profile's parts are carved from one arena sized by a counting pass over
// data (see arena).
func UnmarshalProfile(data []byte) (*Profile, error) {
	var a arena
	a.size(data, 0)
	var r codec.Reader
	r.Reset(data)
	p := NewProfile(0)
	p.slices = make([]*Slice, 0, len(a.slices))
	for !r.Done() {
		field, wt, err := r.Next()
		if err != nil {
			return nil, fmt.Errorf("model: profile header: %w", err)
		}
		switch field {
		case fProfileID:
			id, err := r.Uint64()
			if err != nil {
				return nil, err
			}
			p.ID = id
		case fProfileGen:
			g, err := r.Uint64()
			if err != nil {
				return nil, err
			}
			p.Generation = g
		case fProfileWal:
			l, err := r.Uint64()
			if err != nil {
				return nil, err
			}
			p.WalLSN = l
		case fProfileMerged:
			l, err := r.Uint64()
			if err != nil {
				return nil, err
			}
			p.MergedLSN = l
		case fProfileMig:
			l, err := r.Uint64()
			if err != nil {
				return nil, err
			}
			p.MigLSN = l
		case fProfileSlice:
			var sub codec.Reader
			if err := r.Sub(&sub); err != nil {
				return nil, err
			}
			s, err := a.decodeSlice(&sub)
			if err != nil {
				return nil, err
			}
			p.slices = append(p.slices, s)
		default:
			if err := r.Skip(wt); err != nil {
				return nil, err
			}
		}
	}
	p.RecomputeMemSize()
	return p, nil
}

// UnmarshalSlice reconstructs one slice from its wire encoding, carving
// its parts from one arena as UnmarshalProfile does.
func UnmarshalSlice(data []byte) (*Slice, error) {
	var a arena
	a.size(data, 1)
	var r codec.Reader
	r.Reset(data)
	return a.decodeSlice(&r)
}

// arena is the storage one decode carves a profile's parts from: one
// array per level, sized by a counting pass over the input. A part that
// holds a list opens a window at the start of what is left of its level
// and, once finished, is capped to exactly its length (claim), so a later
// append to it reallocates instead of overwriting the next part. Only one
// window per level is open at a time, because a part is finished before
// its next sibling starts. The counts are not trusted: a window that
// outgrows the rest of its level is moved to the heap by append, and a
// part taken from a used-up level is allocated on its own.
type arena struct {
	slices []Slice
	slots  []slotSet
	sets   []InstanceSet
	types  []typeStats
	fss    []FeatureStats
	stats  []FeatureStat
	counts []int64
}

// carry names, per level from the profile down, the field that holds the
// next level: slices, slot entries, type entries, stats and count words.
var carry = [...]uint32{fProfileSlice, fSliceSlot, fSlotType, fTypeStats, fStatCounts}

// size counts the parts of data, an encoding at level depth of carry (0
// for a profile, 1 for a slice), and allocates one array per level.
func (a *arena) size(data []byte, depth int) {
	var n [len(carry)]int
	if depth == 1 {
		n[0] = 1 // the slice itself
	}
	count(data, depth, &n)
	a.slices = make([]Slice, n[0])
	a.slots = make([]slotSet, n[1])
	a.sets = make([]InstanceSet, n[1])
	a.types = make([]typeStats, n[2])
	a.fss = make([]FeatureStats, n[2])
	a.stats = make([]FeatureStat, n[3])
	a.counts = make([]int64, n[4])
}

// count adds to n the parts below level depth that data holds, walking
// it as the decoder will with one stack reader per level; codec.PackedLen
// counts the words of a stat's counts. The walk stops at a malformed
// field: the decoder reports it, and a short count only sends the rest of
// the decode to the heap.
//
//ips:hotpath
func count(data []byte, depth int, n *[len(carry)]int) {
	var rs [len(carry)]codec.Reader
	rs[depth].Reset(data)
	for d := depth; d >= depth; {
		r := &rs[d]
		if r.Done() {
			d--
			continue
		}
		field, wt, err := r.Next()
		if err != nil {
			return
		}
		switch {
		case field != carry[d]:
			if r.Skip(wt) != nil {
				return
			}
		case d == len(carry)-1:
			b, err := r.Bytes()
			if err != nil {
				return
			}
			n[d] += codec.PackedLen(b)
		default:
			if r.Sub(&rs[d+1]) != nil {
				return
			}
			n[d]++
			d++
		}
	}
}

// claim caps w, a window opened at rest[:0], once its part is finished,
// and returns it with what is left of the level. A window that outgrew
// rest was moved to the heap and takes none of it.
//
//ips:hotpath
func claim[T any](rest, w []T) ([]T, []T) {
	if n := len(w); n <= len(rest) {
		return w[:n:n], rest[n:]
	}
	return w, rest
}

// take returns the next part of a level, or a new one when it is used up.
func take[T any](rest *[]T) *T {
	if len(*rest) == 0 {
		return new(T)
	}
	p := &(*rest)[0]
	*rest = (*rest)[1:]
	return p
}

func (a *arena) decodeSlice(r *codec.Reader) (*Slice, error) {
	s := take(&a.slices)
	s.slots = a.slots[:0]
	for !r.Done() {
		field, wt, err := r.Next()
		if err != nil {
			return nil, fmt.Errorf("model: slice: %w", err)
		}
		switch field {
		case fSliceStart:
			if s.Start, err = r.Int64(); err != nil {
				return nil, err
			}
		case fSliceEnd:
			if s.End, err = r.Int64(); err != nil {
				return nil, err
			}
		case fSliceLatest:
			if s.Latest, err = r.Int64(); err != nil {
				return nil, err
			}
		case fSliceSlot:
			var sub codec.Reader
			if err := r.Sub(&sub); err != nil {
				return nil, err
			}
			if err := a.decodeSlot(&sub, s); err != nil {
				return nil, err
			}
		default:
			if err := r.Skip(wt); err != nil {
				return nil, err
			}
		}
	}
	s.slots, a.slots = claim(a.slots, s.slots)
	return s, nil
}

func (a *arena) decodeSlot(r *codec.Reader, s *Slice) error {
	var slot SlotID
	var set *InstanceSet
	for !r.Done() {
		field, wt, err := r.Next()
		if err != nil {
			return fmt.Errorf("model: slot: %w", err)
		}
		switch field {
		case fSlotID:
			if slot, err = r.Uint32(); err != nil {
				return err
			}
		case fSlotType:
			var sub codec.Reader
			if err := r.Sub(&sub); err != nil {
				return err
			}
			if set == nil {
				set = take(&a.sets)
				set.types = a.types[:0]
			}
			if err := a.decodeType(&sub, set); err != nil {
				return err
			}
		default:
			if err := r.Skip(wt); err != nil {
				return err
			}
		}
	}
	if set != nil {
		set.types, a.types = claim(a.types, set.types)
		s.putSlot(slot, set)
	}
	return nil
}

// decodeType decodes one type entry into set. A type the set already
// holds (a repeated entry) gets the new stats appended, which moves its
// capped stats to the heap.
func (a *arena) decodeType(r *codec.Reader, set *InstanceSet) error {
	var typ TypeID
	stats := a.stats[:0]
	for !r.Done() {
		field, wt, err := r.Next()
		if err != nil {
			return fmt.Errorf("model: type: %w", err)
		}
		switch field {
		case fTypeID:
			if typ, err = r.Uint32(); err != nil {
				return err
			}
		case fTypeStats:
			var sub codec.Reader
			if err := r.Sub(&sub); err != nil {
				return err
			}
			st, err := a.decodeStat(&sub)
			if err != nil {
				return err
			}
			stats = append(stats, st)
		default:
			if err := r.Skip(wt); err != nil {
				return err
			}
		}
	}
	stats, a.stats = claim(a.stats, stats)
	i, ok := set.find(typ)
	if !ok {
		fs := take(&a.fss)
		fs.stats = stats
		set.types = slices.Insert(set.types, i, typeStats{typ, fs})
	} else {
		set.types[i].fs.stats = append(set.types[i].fs.stats, stats...)
	}
	set.types[i].fs.reindex()
	return nil
}

func (a *arena) decodeStat(r *codec.Reader) (FeatureStat, error) {
	var st FeatureStat
	for !r.Done() {
		field, wt, err := r.Next()
		if err != nil {
			return st, fmt.Errorf("model: stat: %w", err)
		}
		switch field {
		case fStatFID:
			if st.FID, err = r.Uint64(); err != nil {
				return st, err
			}
		case fStatCounts:
			c, err := r.PackedI64Into(a.counts[:0])
			if err != nil {
				return st, err
			}
			st.Counts, a.counts = claim(a.counts, c)
		default:
			if err := r.Skip(wt); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}
