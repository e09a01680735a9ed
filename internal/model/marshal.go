package model

import (
	"fmt"

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

// UnmarshalProfile reconstructs a profile from its wire encoding.
func UnmarshalProfile(data []byte) (*Profile, error) {
	r := codec.NewReader(data)
	p := NewProfile(0)
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
			sub, err := r.Message()
			if err != nil {
				return nil, err
			}
			s, err := decodeSlice(sub)
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

// UnmarshalSlice reconstructs one slice from its wire encoding.
func UnmarshalSlice(data []byte) (*Slice, error) {
	return decodeSlice(codec.NewReader(data))
}

func decodeSlice(r *codec.Reader) (*Slice, error) {
	s := NewSlice(0, 0)
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
			sub, err := r.Message()
			if err != nil {
				return nil, err
			}
			if err := decodeSlot(sub, s); err != nil {
				return nil, err
			}
		default:
			if err := r.Skip(wt); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func decodeSlot(r *codec.Reader, s *Slice) error {
	var slot SlotID
	var set *InstanceSet
	ensure := func() *InstanceSet {
		if set == nil {
			set = NewInstanceSet()
		}
		return set
	}
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
			sub, err := r.Message()
			if err != nil {
				return err
			}
			if err := decodeType(sub, ensure()); err != nil {
				return err
			}
		default:
			if err := r.Skip(wt); err != nil {
				return err
			}
		}
	}
	if set != nil {
		s.putSlot(slot, set)
	}
	return nil
}

func decodeType(r *codec.Reader, set *InstanceSet) error {
	var typ TypeID
	var stats []FeatureStat
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
			sub, err := r.Message()
			if err != nil {
				return err
			}
			st, err := decodeStat(sub)
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
	fs := set.GetOrCreate(typ)
	fs.stats = append(fs.stats, stats...)
	fs.reindex()
	return nil
}

func decodeStat(r *codec.Reader) (FeatureStat, error) {
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
			if st.Counts, err = r.PackedI64(); err != nil {
				return st, err
			}
		default:
			if err := r.Skip(wt); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}
