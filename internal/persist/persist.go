// Package persist implements the two profile-persistence modes of §III-E
// on top of the kv substrate:
//
//   - Bulk mode (Fig. 12): the whole profile is serialized (codec),
//     compressed (snap) and stored as one value keyed by profile ID.
//   - Fine-grained mode (Figs 13–14): a profile is split into a versioned
//     meta value plus one value per slice, so large profiles flush and
//     reload at slice granularity. Meta and slice updates are not atomic;
//     consistency comes from the version protocol: slice values are
//     written first, the meta value last with a compare-and-set on its
//     generation, and a stale version forces a reload.
package persist

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"

	"ips/internal/codec"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/snap"
)

// intervalKey renders a slice interval as a map key.
func intervalKey(start, end model.Millis) string {
	return strconv.FormatInt(start, 16) + "-" + strconv.FormatInt(end, 16)
}

// fingerprint hashes a marshaled slice for change detection.
func fingerprint(raw []byte) uint64 {
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

// Mode selects the persistence strategy.
type Mode uint8

// Persistence modes.
const (
	// Bulk stores the whole profile as one value (Fig. 12).
	Bulk Mode = iota
	// FineGrained splits the profile into meta + per-slice values
	// (Fig. 13), used when profile values grow large.
	FineGrained
)

// Persister saves and loads profiles for one table.
type Persister struct {
	store kv.Store
	table string
	// Mode picks the strategy; Auto splitting happens above this layer.
	Mode Mode
	// SplitThreshold: in Bulk mode, profiles whose encoded size exceeds
	// this are stored fine-grained anyway (the §III-E remedy for very
	// large values). 0 disables the automatic switch. A fine-grained save
	// deletes the profile's bulk value, which Load would otherwise prefer;
	// a bulk save after the profile shrank leaves the fine-grained values
	// in place, unread behind the bulk value.
	SplitThreshold int
	// Compress toggles snap compression of stored values.
	Compress bool
	// Incremental, in fine-grained mode, skips rewriting slices whose
	// content is unchanged since the last Save — this is where splitting
	// the profile pays off: a head-slice update flushes one small value
	// instead of the whole profile (§III-E).
	Incremental bool

	mu sync.Mutex
	// saved fingerprints the last-written slice values per profile:
	// interval key -> FNV-1a of the marshaled slice.
	saved map[model.ProfileID]map[string]uint64
}

// New creates a Persister writing under the given table namespace.
func New(store kv.Store, table string) *Persister {
	return &Persister{
		store: store, table: table, Mode: Bulk,
		SplitThreshold: 256 << 10, Compress: true, Incremental: true,
		saved: make(map[model.ProfileID]map[string]uint64),
	}
}

func (ps *Persister) profileKey(id model.ProfileID) string {
	return ps.table + "/p/" + strconv.FormatUint(id, 16)
}

func (ps *Persister) metaKey(id model.ProfileID) string {
	return ps.table + "/m/" + strconv.FormatUint(id, 16)
}

func (ps *Persister) sliceKey(id model.ProfileID, start, end model.Millis) string {
	return fmt.Sprintf("%s/s/%x/%x-%x", ps.table, id, start, end)
}

// encode serializes and optionally compresses.
func (ps *Persister) encode(raw []byte) []byte {
	if !ps.Compress {
		return append([]byte{0}, raw...)
	}
	return snap.Encode([]byte{1}, raw)
}

// decode reverses encode.
func (ps *Persister) decode(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, errors.New("persist: empty value")
	}
	switch data[0] {
	case 0:
		return data[1:], nil
	case 1:
		return snap.Decode(nil, data[1:])
	default:
		return nil, fmt.Errorf("persist: unknown value encoding %d", data[0])
	}
}

// Save persists the profile. Caller must hold at least RLock on p. The
// returned size is the stored byte count (post compression), a metric the
// harness reports against the paper's ~40KB/profile figure.
func (ps *Persister) Save(p *model.Profile) (int, error) {
	switch ps.Mode {
	case FineGrained:
		return ps.saveFine(p)
	default:
		raw := model.MarshalProfile(p)
		if ps.SplitThreshold > 0 && len(raw) > ps.SplitThreshold {
			return ps.saveFine(p)
		}
		val := ps.encode(raw)
		if err := ps.store.Set(ps.profileKey(p.ID), val); err != nil {
			return 0, err
		}
		return len(val), nil
	}
}

// Load fetches the profile for id, trying bulk first, then fine-grained.
// It returns kv.ErrNotFound when the profile has never been persisted.
func (ps *Persister) Load(id model.ProfileID) (*model.Profile, error) {
	val, err := ps.store.Get(ps.profileKey(id))
	if err == nil {
		raw, err := ps.decode(val)
		if err != nil {
			return nil, err
		}
		p, err := model.UnmarshalProfile(raw)
		if err != nil {
			return nil, err
		}
		p.ID = id
		if val[0] == 1 {
			// A compressed bulk value past its tag byte is exactly the
			// warm tier's blob: keep it so an unchanged profile is
			// demoted without encoding it again.
			p.KeepBlob(val[1:])
		}
		return p, nil
	}
	if !errors.Is(err, kv.ErrNotFound) {
		return nil, err
	}
	return ps.loadFine(id)
}

// Delete removes all stored values for id (bulk value, meta, slices) and
// forgets the fingerprints of its saved slices, so that the next Save of
// the same content writes every slice again.
func (ps *Persister) Delete(id model.ProfileID) error {
	ps.mu.Lock()
	delete(ps.saved, id)
	ps.mu.Unlock()
	if err := ps.store.Delete(ps.profileKey(id)); err != nil {
		return err
	}
	meta, _, err := ps.loadMeta(id)
	if errors.Is(err, kv.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, sm := range meta.Slices {
		if err := ps.store.Delete(ps.sliceKey(id, sm.Start, sm.End)); err != nil {
			return err
		}
	}
	return ps.store.Delete(ps.metaKey(id))
}

// sliceMeta is one row of the slice-meta structure (Fig. 13).
type sliceMeta struct {
	Start, End model.Millis
}

// meta is the versioned profile metadata value.
type meta struct {
	Generation uint64
	// WalLSN is the crash-recovery watermark the profile carried when its
	// meta was written; recovery replays only journal records above it.
	WalLSN uint64
	// MergedLSN is the write-isolation merge watermark (the highest
	// isolated-add LSN folded into this profile when the meta was written);
	// recovery replays isolated journal records above it.
	MergedLSN uint64
	Slices    []sliceMeta
}

const (
	fMetaGen    = 1
	fMetaSlice  = 2
	fMetaWal    = 3
	fMetaMerged = 4
	fSMStart    = 1
	fSMEnd      = 2
)

func encodeMeta(m meta) []byte {
	var e codec.Buffer
	e.Uint64(fMetaGen, m.Generation)
	if m.WalLSN != 0 {
		e.Uint64(fMetaWal, m.WalLSN)
	}
	if m.MergedLSN != 0 {
		e.Uint64(fMetaMerged, m.MergedLSN)
	}
	for _, sm := range m.Slices {
		e.Message(fMetaSlice, func(se *codec.Buffer) {
			se.Int64(fSMStart, sm.Start)
			se.Int64(fSMEnd, sm.End)
		})
	}
	return append([]byte(nil), e.Bytes()...)
}

func decodeMeta(data []byte) (meta, error) {
	var m meta
	r := codec.NewReader(data)
	for !r.Done() {
		field, wt, err := r.Next()
		if err != nil {
			return m, err
		}
		switch field {
		case fMetaGen:
			if m.Generation, err = r.Uint64(); err != nil {
				return m, err
			}
		case fMetaWal:
			if m.WalLSN, err = r.Uint64(); err != nil {
				return m, err
			}
		case fMetaMerged:
			if m.MergedLSN, err = r.Uint64(); err != nil {
				return m, err
			}
		case fMetaSlice:
			var sub codec.Reader
			if err := r.Sub(&sub); err != nil {
				return m, err
			}
			var sm sliceMeta
			for !sub.Done() {
				f2, wt2, err := sub.Next()
				if err != nil {
					return m, err
				}
				switch f2 {
				case fSMStart:
					if sm.Start, err = sub.Int64(); err != nil {
						return m, err
					}
				case fSMEnd:
					if sm.End, err = sub.Int64(); err != nil {
						return m, err
					}
				default:
					if err := sub.Skip(wt2); err != nil {
						return m, err
					}
				}
			}
			m.Slices = append(m.Slices, sm)
		default:
			if err := r.Skip(wt); err != nil {
				return m, err
			}
		}
	}
	return m, nil
}

// saveFine implements the fine-grained protocol (Fig. 14): write every
// slice value first, then compare-and-set the meta. A concurrent writer
// that advanced the meta version causes ErrStaleVersion; the caller
// (GCache's flush path) reloads and retries.
func (ps *Persister) saveFine(p *model.Profile) (int, error) {
	var total int
	slices := p.Slices()
	m := meta{Generation: p.Generation, WalLSN: p.WalLSN, MergedLSN: p.MergedLSN, Slices: make([]sliceMeta, len(slices))}

	var prints map[string]uint64
	if ps.Incremental {
		ps.mu.Lock()
		prints = ps.saved[p.ID]
		if prints == nil {
			prints = make(map[string]uint64, len(slices))
			ps.saved[p.ID] = prints
		}
		ps.mu.Unlock()
	}
	seen := make(map[string]bool, len(slices))
	for i, s := range slices {
		m.Slices[i] = sliceMeta{Start: s.Start, End: s.End}
		raw := model.MarshalSlice(s)
		ik := intervalKey(s.Start, s.End)
		seen[ik] = true
		if prints != nil {
			fp := fingerprint(raw)
			ps.mu.Lock()
			unchanged := prints[ik] == fp
			prints[ik] = fp
			ps.mu.Unlock()
			if unchanged {
				continue // slice content identical to the stored value
			}
		}
		val := ps.encode(raw)
		if err := ps.store.Set(ps.sliceKey(p.ID, s.Start, s.End), val); err != nil {
			return total, err
		}
		total += len(val)
	}
	// Remove fingerprints (and stored values) of slices that no longer
	// exist (compaction/truncation replaced them).
	if prints != nil {
		ps.mu.Lock()
		for ik := range prints {
			if !seen[ik] {
				delete(prints, ik)
			}
		}
		ps.mu.Unlock()
	}
	// Meta is updated last, unconditionally versioned by the store: we use
	// XSet with expected=current to detect racing flushers of the same
	// profile; first writer wins, later ones retry.
	_, cur, err := ps.store.XGet(ps.metaKey(p.ID))
	var expected kv.Version
	switch {
	case err == nil:
		expected = cur
	case errors.Is(err, kv.ErrNotFound):
		expected = 0
	default:
		return total, err
	}
	mv := encodeMeta(m)
	if _, err := ps.store.XSet(ps.metaKey(p.ID), mv, expected); err != nil {
		return total, err
	}
	// Load reads the bulk key first, so a bulk value left from before
	// the profile grew past SplitThreshold would shadow this save. The
	// journal retires the save's records only after Save returns, so a
	// crash before this delete still replays them over the stale value.
	if err := ps.store.Delete(ps.profileKey(p.ID)); err != nil {
		return total, err
	}
	return total + len(mv), nil
}

func (ps *Persister) loadMeta(id model.ProfileID) (meta, kv.Version, error) {
	val, ver, err := ps.store.XGet(ps.metaKey(id))
	if err != nil {
		return meta{}, 0, err
	}
	m, err := decodeMeta(val)
	return m, ver, err
}

// loadFine reconstructs a profile from meta + slice values. Missing slice
// values (a torn write that never completed) are skipped: IPS prefers
// availability over completeness (§III-G).
func (ps *Persister) loadFine(id model.ProfileID) (*model.Profile, error) {
	m, _, err := ps.loadMeta(id)
	if err != nil {
		return nil, err
	}
	p := model.NewProfile(id)
	var slices []*model.Slice
	for _, sm := range m.Slices {
		val, err := ps.store.Get(ps.sliceKey(id, sm.Start, sm.End))
		if errors.Is(err, kv.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		raw, err := ps.decode(val)
		if err != nil {
			return nil, err
		}
		s, err := model.UnmarshalSlice(raw)
		if err != nil {
			return nil, err
		}
		slices = append(slices, s)
	}
	p.Lock()
	p.ReplaceSlices(slices)
	p.Generation = m.Generation
	p.WalLSN = m.WalLSN
	p.MergedLSN = m.MergedLSN
	p.Dirty = false
	p.Unlock()
	return p, nil
}

// SavedSize reports the stored footprint of id in bytes across both modes,
// for the harness.
func (ps *Persister) SavedSize(id model.ProfileID) (int, error) {
	if v, err := ps.store.Get(ps.profileKey(id)); err == nil {
		return len(v), nil
	}
	m, _, err := ps.loadMeta(id)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, sm := range m.Slices {
		if v, err := ps.store.Get(ps.sliceKey(id, sm.Start, sm.End)); err == nil {
			total += len(v)
		}
	}
	return total, nil
}

// KeyIsFineGrained reports whether the given store key belongs to the
// fine-grained namespace, a helper for tests inspecting flush granularity.
func (ps *Persister) KeyIsFineGrained(key string) bool {
	return strings.HasPrefix(key, ps.table+"/s/") || strings.HasPrefix(key, ps.table+"/m/")
}
