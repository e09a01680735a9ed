// Package wire defines the request/response messages of the IPS RPC API
// (§II-B) and their binary encoding, shared by the server and the unified
// client. Method names:
//
//	ips.add              — add_profile
//	ips.add_batch        — add_profiles
//	ips.topk             — get_profile_topK
//	ips.filter           — get_profile_filter
//	ips.decay            — get_profile_decay
//	ips.query_batch2     — coalesced multi-profile reads with a
//	                       shared-structure response (batch.go,
//	                       batchv2.go)
//	ips.sub.watch        — continuous-query stream (sub.go); the one
//	                       stream-kind method: updates are pushed, not
//	                       polled, over the rpc package's stream frames
//	ips.stats            — instance statistics (management)
//	ips.ping             — liveness probe
//	ips.mgmt.*           — delete_profile, set_quota, set_isolation,
//	                       register_udaf, tables, udafs (mgmt.go)
//	ips.migrate.*        — snapshot, install (migrate.go, resharding)
//
// Every method except ips.sub.watch is request/response; the watch
// stream's open payload is a SubscribeRequest and each pushed frame is
// one SubUpdate.
package wire

import (
	"errors"
	"fmt"
	"sync"

	"ips/internal/codec"
	"ips/internal/model"
	"ips/internal/query"
)

// Method names served by an IPS instance.
const (
	MethodAdd      = "ips.add"
	MethodAddBatch = "ips.add_batch"
	MethodTopK     = "ips.topk"
	MethodFilter   = "ips.filter"
	MethodDecay    = "ips.decay"
	MethodStats    = "ips.stats"
	MethodPing     = "ips.ping"
)

// AddRequest is one add_profile write (§II-B1). A batched request carries
// multiple entries for one profile.
type AddRequest struct {
	Caller    string
	Table     string
	ProfileID model.ProfileID
	Entries   []AddEntry
}

// AddEntry is one (timestamp, slot, type, fid, counts) observation.
type AddEntry struct {
	Timestamp model.Millis
	Slot      model.SlotID
	Type      model.TypeID
	FID       model.FeatureID
	Counts    []int64
}

// QueryRequest covers topK, filter and decay reads (§II-B2); the method
// name selects which semantics the server applies.
type QueryRequest struct {
	Caller    string
	Table     string
	ProfileID model.ProfileID
	Slot      model.SlotID
	Type      model.TypeID
	AllTypes  bool

	RangeKind query.RangeKind
	Span      model.Millis
	From, To  model.Millis

	SortBy query.SortBy
	Action string
	K      int

	Decay       query.DecayFunc
	DecayFactor float64

	MinCount int64
	FIDs     []model.FeatureID

	// UDAFName selects a server-registered user-defined aggregate
	// function; with SortBy == ByUDAF results order by its score.
	UDAFName string
	// MinScore drops features scoring below the bound (requires
	// UDAFName).
	MinScore float64
}

// ToQuery converts the wire request into the engine's Request.
//
//ips:hotpath
func (q *QueryRequest) ToQuery() query.Request {
	req := query.Request{
		Slot:        q.Slot,
		Type:        q.Type,
		AllTypes:    q.AllTypes,
		Range:       query.TimeRange{Kind: q.RangeKind, Span: q.Span, From: q.From, To: q.To},
		SortBy:      q.SortBy,
		Action:      q.Action,
		K:           q.K,
		Decay:       q.Decay,
		DecayFactor: q.DecayFactor,
	}
	if q.MinCount > 0 || len(q.FIDs) > 0 {
		//ipslint:ignore hotpathalloc filtered queries leave the steady-state topK path
		f := &query.Filter{MinCount: q.MinCount}
		if len(q.FIDs) > 0 {
			//ipslint:ignore hotpathalloc filtered queries leave the steady-state topK path
			f.FIDs = make(map[model.FeatureID]bool, len(q.FIDs))
			for _, fid := range q.FIDs {
				f.FIDs[fid] = true
			}
		}
		req.Filter = f
	}
	req.MinScore = q.MinScore
	// The UDAF itself is resolved by the server from UDAFName.
	return req
}

// Interner dedupes the small vocabulary of wire strings — caller names,
// table names, actions, UDAF names — so a steady-state decode returns a
// resident string with zero allocations: the read-path map lookup keyed
// by string(b) is the compiler-recognized no-copy form. The table is
// bounded; beyond maxInterned distinct strings, first sights are copied
// but not retained (an abusive caller vocabulary cannot grow the map
// without bound).
type Interner struct {
	mu sync.RWMutex
	m  map[string]string
}

const maxInterned = 4096

// Intern returns a resident string equal to b. A nil *Interner degrades
// to a plain copying conversion.
//
//ips:hotpath-trust first-sight strings copy once; steady state is the RLock map hit
func (in *Interner) Intern(b []byte) string {
	if in == nil {
		return string(b)
	}
	in.mu.RLock()
	s, ok := in.m[string(b)]
	in.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	in.mu.Lock()
	if in.m == nil {
		in.m = make(map[string]string, 64)
	}
	if len(in.m) < maxInterned {
		in.m[s] = s
	}
	in.mu.Unlock()
	return s
}

// QueryResponse carries the aggregated features back to the caller.
type QueryResponse struct {
	Features      []query.Feature
	SlicesScanned int
	// CacheHit reports whether the profile was resident (Table II).
	CacheHit bool
	// ServerNanos is the server-side processing time, letting clients
	// split network from compute cost as Table II does.
	ServerNanos int64
	// WalLSN is the profile's freshness watermark at read time: the max of
	// its own journal watermark and the migration watermark carried over
	// from a previous owner (elastic resharding). During a dual-read
	// window the client prefers the fresher of two answers by this field,
	// and the migration-storm suite asserts post-cutover reads report a
	// value >= every pre-cutover ack. 0 when journaling is disabled and
	// the profile never migrated.
	WalLSN uint64
}

// StatsResponse summarises one instance's health for dashboards.
type StatsResponse struct {
	Name        string
	Region      string
	Profiles    int64
	MemUsage    int64
	HitRatioPct float64 // 0..100
	Queries     int64
	Writes      int64
	Rejected    int64
	FlushErrors int64
}

// --- encoding ---

// Field numbers per message.
const (
	fAddCaller  = 1
	fAddTable   = 2
	fAddProfile = 3
	fAddEntry   = 4

	fEntryTS     = 1
	fEntrySlot   = 2
	fEntryType   = 3
	fEntryFID    = 4
	fEntryCounts = 5

	fQCaller    = 1
	fQTable     = 2
	fQProfile   = 3
	fQSlot      = 4
	fQType      = 5
	fQAllTypes  = 6
	fQRangeKind = 7
	fQSpan      = 8
	fQFrom      = 9
	fQTo        = 10
	fQSortBy    = 11
	fQAction    = 12
	fQK         = 13
	fQDecay     = 14
	fQDecayF    = 15
	fQMinCount  = 16
	fQFIDs      = 17
	fQUDAFName  = 18
	fQMinScore  = 19

	fRFeature = 1
	fRScanned = 2
	fRHit     = 3
	fRNanos   = 4
	fRWal     = 5

	fFeatFID      = 1
	fFeatCounts   = 2
	fFeatLastSeen = 3
	fFeatScore    = 4

	fStName     = 1
	fStRegion   = 2
	fStProfiles = 3
	fStMem      = 4
	fStHit      = 5
	fStQueries  = 6
	fStWrites   = 7
	fStRejected = 8
	fStFlushErr = 9
)

// ErrDecode wraps malformed message errors.
var ErrDecode = errors.New("wire: malformed message")

//ips:hotpath-trust malformed-input error construction never runs on the steady-state path
func decodeErr(what string, err error) error {
	return fmt.Errorf("%w: %s: %v", ErrDecode, what, err)
}

// EncodeAdd serializes an AddRequest.
func EncodeAdd(r *AddRequest) []byte {
	return AppendAdd(nil, r)
}

// AppendAdd serializes an AddRequest into dst's storage and returns the
// extended slice — allocation-free when dst has capacity, which is how
// the client's pooled call scratch encodes writes.
//
//ips:hotpath
func AppendAdd(dst []byte, r *AddRequest) []byte {
	var e codec.Buffer
	e.Attach(dst)
	e.String(fAddCaller, r.Caller)
	e.String(fAddTable, r.Table)
	e.Uint64(fAddProfile, r.ProfileID)
	for i := range r.Entries {
		en := &r.Entries[i]
		start := e.BeginMessage(fAddEntry)
		e.Int64(fEntryTS, en.Timestamp)
		e.Uint32(fEntrySlot, en.Slot)
		e.Uint32(fEntryType, en.Type)
		e.Uint64(fEntryFID, en.FID)
		e.PackedI64(fEntryCounts, en.Counts)
		e.EndMessage(start)
	}
	return e.Detach()
}

// DecodeAdd parses an AddRequest.
func DecodeAdd(data []byte) (*AddRequest, error) {
	r := &AddRequest{}
	rd := codec.NewReader(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return nil, decodeErr("add", err)
		}
		switch f {
		case fAddCaller:
			if r.Caller, err = rd.String(); err != nil {
				return nil, decodeErr("caller", err)
			}
		case fAddTable:
			if r.Table, err = rd.String(); err != nil {
				return nil, decodeErr("table", err)
			}
		case fAddProfile:
			if r.ProfileID, err = rd.Uint64(); err != nil {
				return nil, decodeErr("profile", err)
			}
		case fAddEntry:
			sub, err := rd.Message()
			if err != nil {
				return nil, decodeErr("entry", err)
			}
			en, err := decodeEntry(sub)
			if err != nil {
				return nil, err
			}
			r.Entries = append(r.Entries, en)
		default:
			if err := rd.Skip(wt); err != nil {
				return nil, decodeErr("skip", err)
			}
		}
	}
	return r, nil
}

func decodeEntry(rd *codec.Reader) (AddEntry, error) {
	var en AddEntry
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return en, decodeErr("entry field", err)
		}
		switch f {
		case fEntryTS:
			if en.Timestamp, err = rd.Int64(); err != nil {
				return en, decodeErr("ts", err)
			}
		case fEntrySlot:
			if en.Slot, err = rd.Uint32(); err != nil {
				return en, decodeErr("slot", err)
			}
		case fEntryType:
			if en.Type, err = rd.Uint32(); err != nil {
				return en, decodeErr("type", err)
			}
		case fEntryFID:
			if en.FID, err = rd.Uint64(); err != nil {
				return en, decodeErr("fid", err)
			}
		case fEntryCounts:
			if en.Counts, err = rd.PackedI64(); err != nil {
				return en, decodeErr("counts", err)
			}
		default:
			if err := rd.Skip(wt); err != nil {
				return en, decodeErr("skip", err)
			}
		}
	}
	return en, nil
}

// EncodeQuery serializes a QueryRequest.
func EncodeQuery(q *QueryRequest) []byte {
	return AppendQuery(nil, q)
}

// AppendQuery serializes a QueryRequest into dst's storage and returns
// the extended slice — allocation-free when dst has capacity, which is
// how the client's pooled call scratch encodes requests.
//
//ips:hotpath
func AppendQuery(dst []byte, q *QueryRequest) []byte {
	var e codec.Buffer
	e.Attach(dst)
	e.String(fQCaller, q.Caller)
	e.String(fQTable, q.Table)
	e.Uint64(fQProfile, q.ProfileID)
	e.Uint32(fQSlot, q.Slot)
	e.Uint32(fQType, q.Type)
	e.Bool(fQAllTypes, q.AllTypes)
	e.Uint32(fQRangeKind, uint32(q.RangeKind))
	e.Int64(fQSpan, q.Span)
	e.Int64(fQFrom, q.From)
	e.Int64(fQTo, q.To)
	e.Uint32(fQSortBy, uint32(q.SortBy))
	e.String(fQAction, q.Action)
	e.Int64(fQK, int64(q.K))
	e.Uint32(fQDecay, uint32(q.Decay))
	e.Float64(fQDecayF, q.DecayFactor)
	e.Int64(fQMinCount, q.MinCount)
	if len(q.FIDs) > 0 {
		e.Packed64(fQFIDs, q.FIDs)
	}
	e.String(fQUDAFName, q.UDAFName)
	e.Float64(fQMinScore, q.MinScore)
	return e.Detach()
}

// DecodeQuery parses a QueryRequest.
func DecodeQuery(data []byte) (*QueryRequest, error) {
	q := &QueryRequest{}
	if err := DecodeQueryInto(data, q, nil); err != nil {
		return nil, err
	}
	return q, nil
}

// DecodeQueryInto parses a QueryRequest into a caller-owned (typically
// pooled) struct, reusing its FIDs storage. String fields go through
// the Interner so the steady-state vocabulary decodes without copies;
// a nil interner falls back to plain copying conversions.
//
//ips:hotpath
func DecodeQueryInto(data []byte, q *QueryRequest, in *Interner) error {
	fids := q.FIDs[:0]
	*q = QueryRequest{}
	q.FIDs = fids
	var rd codec.Reader
	rd.Reset(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return decodeErr("query", err)
		}
		switch f {
		case fQCaller:
			var b []byte
			if b, err = rd.Bytes(); err == nil {
				q.Caller = in.Intern(b)
			}
		case fQTable:
			var b []byte
			if b, err = rd.Bytes(); err == nil {
				q.Table = in.Intern(b)
			}
		case fQProfile:
			q.ProfileID, err = rd.Uint64()
		case fQSlot:
			q.Slot, err = rd.Uint32()
		case fQType:
			q.Type, err = rd.Uint32()
		case fQAllTypes:
			q.AllTypes, err = rd.Bool()
		case fQRangeKind:
			var v uint32
			v, err = rd.Uint32()
			q.RangeKind = query.RangeKind(v)
		case fQSpan:
			q.Span, err = rd.Int64()
		case fQFrom:
			q.From, err = rd.Int64()
		case fQTo:
			q.To, err = rd.Int64()
		case fQSortBy:
			var v uint32
			v, err = rd.Uint32()
			q.SortBy = query.SortBy(v)
		case fQAction:
			var b []byte
			if b, err = rd.Bytes(); err == nil {
				q.Action = in.Intern(b)
			}
		case fQK:
			var v int64
			v, err = rd.Int64()
			q.K = int(v)
		case fQDecay:
			var v uint32
			v, err = rd.Uint32()
			q.Decay = query.DecayFunc(v)
		case fQDecayF:
			q.DecayFactor, err = rd.Float64()
		case fQMinCount:
			q.MinCount, err = rd.Int64()
		case fQFIDs:
			q.FIDs, err = rd.Packed64Into(q.FIDs)
		case fQUDAFName:
			var b []byte
			if b, err = rd.Bytes(); err == nil {
				q.UDAFName = in.Intern(b)
			}
		case fQMinScore:
			q.MinScore, err = rd.Float64()
		default:
			err = rd.Skip(wt)
		}
		if err != nil {
			return decodeErr("query field", err)
		}
	}
	return nil
}

// EncodeQueryResponse serializes a QueryResponse.
func EncodeQueryResponse(r *QueryResponse) []byte {
	return AppendQueryResponse(nil, r)
}

// AppendQueryResponse serializes a QueryResponse into dst's storage and
// returns the extended slice. Nested feature messages go through the
// closure-free BeginMessage/EndMessage pair, so a warmed response
// encode performs zero allocations.
//
//ips:hotpath
func AppendQueryResponse(dst []byte, r *QueryResponse) []byte {
	var e codec.Buffer
	e.Attach(dst)
	appendQueryResponseFields(&e, r)
	return e.Detach()
}

// appendQueryResponseFields writes r's fields into an attached buffer;
// shared by the top-level response encode and the nested result message
// inside a SubUpdate (sub.go).
//
//ips:hotpath
func appendQueryResponseFields(e *codec.Buffer, r *QueryResponse) {
	for i := range r.Features {
		feat := &r.Features[i]
		start := e.BeginMessage(fRFeature)
		e.Uint64(fFeatFID, feat.FID)
		e.PackedI64(fFeatCounts, feat.Counts)
		e.Int64(fFeatLastSeen, feat.LastSeen)
		e.Float64(fFeatScore, feat.Score)
		e.EndMessage(start)
	}
	e.Int64(fRScanned, int64(r.SlicesScanned))
	e.Bool(fRHit, r.CacheHit)
	e.Int64(fRNanos, r.ServerNanos)
	if r.WalLSN != 0 {
		e.Uint64(fRWal, r.WalLSN)
	}
}

// DecodeQueryResponse parses a QueryResponse into freshly owned storage:
// three allocations whatever K is — the response, its Features, and one
// flat array every feature's Counts is carved from. The array is sized
// from the number of feature messages and the first one's count vector
// (every feature of one answer counts the same actions); a frame that
// breaks that pattern still decodes correctly, its extra vectors simply
// get storage of their own. The array never has more elements than the
// frame has bytes — a packed value is at least one byte, so no honest
// frame needs more, and a hostile one (one feature packing n counts, then
// n empty features: n² from 3n bytes) cannot ask for more than a small
// multiple of what it carries.
func DecodeQueryResponse(data []byte) (*QueryResponse, error) {
	r := &QueryResponse{}
	features, perFeature := responseShape(data)
	if features > 0 {
		r.Features = make([]query.Feature, 0, features)
	}
	counts := len(data)
	if perFeature == 0 || features <= counts/perFeature {
		counts = features * perFeature
	}
	flat := make([]int64, 0, counts)
	if err := decodeQueryResponse(data, r, &flat); err != nil {
		return nil, err
	}
	return r, nil
}

// responseShape returns how many feature messages data carries and how
// many values the first one's Counts field packs. It validates nothing:
// on malformed input it stops early and the decode proper reports the
// error.
func responseShape(data []byte) (features, perFeature int) {
	var rd codec.Reader
	for rd.Reset(data); !rd.Done(); {
		f, wt, err := rd.Next()
		if err != nil {
			break
		}
		if f != fRFeature {
			if rd.Skip(wt) != nil {
				break
			}
			continue
		}
		msg, err := rd.Bytes()
		if err != nil {
			break
		}
		if features++; features == 1 {
			perFeature = packedCounts(msg)
		}
	}
	return features, perFeature
}

// packedCounts returns how many values the Counts field of one encoded
// feature message packs (0 if the message is malformed or has none): in
// a packed varint run, every value ends with a byte whose high bit is
// clear.
func packedCounts(msg []byte) int {
	var rd codec.Reader
	rd.Reset(msg)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return 0
		}
		if f != fFeatCounts {
			if rd.Skip(wt) != nil {
				return 0
			}
			continue
		}
		packed, err := rd.Bytes()
		if err != nil {
			return 0
		}
		n := 0
		for _, b := range packed {
			if b < 0x80 {
				n++
			}
		}
		return n
	}
	return 0
}

// DecodeQueryResponseInto parses a QueryResponse into a caller-owned
// (typically pooled) struct, reusing the Features slice AND each
// element's Counts storage from previous decodes — a warmed client
// decode of a steady-state topK answer performs zero allocations.
//
//ips:hotpath
func DecodeQueryResponseInto(data []byte, r *QueryResponse) error {
	return decodeQueryResponse(data, r, nil)
}

// decodeQueryResponse is the one response decoder. With flat nil each
// feature's Counts reuses the storage the element held before; with flat
// set, each is carved from *flat's spare capacity instead (and
// capacity-limited, so appending to one cannot run into its neighbour).
//
//ips:hotpath
func decodeQueryResponse(data []byte, r *QueryResponse, flat *[]int64) error {
	feats := r.Features[:0]
	n := 0
	*r = QueryResponse{}
	var rd codec.Reader
	rd.Reset(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return decodeErr("resp", err)
		}
		switch f {
		case fRFeature:
			var sub codec.Reader
			if err := rd.Sub(&sub); err != nil {
				return decodeErr("feature", err)
			}
			// Reuse the element (and its Counts backing) when one is
			// resident from an earlier decode.
			if n < cap(feats) {
				feats = feats[:n+1]
				feats[n] = query.Feature{Counts: feats[n].Counts[:0]}
			} else {
				feats = append(feats, query.Feature{})
			}
			feat := &feats[n]
			n++
			for !sub.Done() {
				f2, wt2, err := sub.Next()
				if err != nil {
					return decodeErr("feature field", err)
				}
				switch f2 {
				case fFeatFID:
					feat.FID, err = sub.Uint64()
				case fFeatCounts:
					if flat == nil {
						feat.Counts, err = sub.PackedI64Into(feat.Counts)
						break
					}
					used := len(*flat)
					var vals []int64
					vals, err = sub.PackedI64Into((*flat)[used:])
					if len(vals) <= cap(*flat)-used {
						*flat = (*flat)[:used+len(vals)] // decoded in place: the window is taken
					}
					feat.Counts = vals[:len(vals):len(vals)]
				case fFeatLastSeen:
					feat.LastSeen, err = sub.Int64()
				case fFeatScore:
					feat.Score, err = sub.Float64()
				default:
					err = sub.Skip(wt2)
				}
				if err != nil {
					return decodeErr("feature field", err)
				}
			}
		case fRScanned:
			v, err := rd.Int64()
			if err != nil {
				return decodeErr("scanned", err)
			}
			r.SlicesScanned = int(v)
		case fRHit:
			var err error
			if r.CacheHit, err = rd.Bool(); err != nil {
				return decodeErr("hit", err)
			}
		case fRNanos:
			var err error
			if r.ServerNanos, err = rd.Int64(); err != nil {
				return decodeErr("nanos", err)
			}
		case fRWal:
			var err error
			if r.WalLSN, err = rd.Uint64(); err != nil {
				return decodeErr("wal", err)
			}
		default:
			if err := rd.Skip(wt); err != nil {
				return decodeErr("skip", err)
			}
		}
	}
	r.Features = feats
	return nil
}

// EncodeStats serializes a StatsResponse.
func EncodeStats(s *StatsResponse) []byte {
	var e codec.Buffer
	e.String(fStName, s.Name)
	e.String(fStRegion, s.Region)
	e.Int64(fStProfiles, s.Profiles)
	e.Int64(fStMem, s.MemUsage)
	e.Float64(fStHit, s.HitRatioPct)
	e.Int64(fStQueries, s.Queries)
	e.Int64(fStWrites, s.Writes)
	e.Int64(fStRejected, s.Rejected)
	e.Int64(fStFlushErr, s.FlushErrors)
	return append([]byte(nil), e.Bytes()...)
}

// DecodeStats parses a StatsResponse.
func DecodeStats(data []byte) (*StatsResponse, error) {
	s := &StatsResponse{}
	rd := codec.NewReader(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return nil, decodeErr("stats", err)
		}
		switch f {
		case fStName:
			s.Name, err = rd.String()
		case fStRegion:
			s.Region, err = rd.String()
		case fStProfiles:
			s.Profiles, err = rd.Int64()
		case fStMem:
			s.MemUsage, err = rd.Int64()
		case fStHit:
			s.HitRatioPct, err = rd.Float64()
		case fStQueries:
			s.Queries, err = rd.Int64()
		case fStWrites:
			s.Writes, err = rd.Int64()
		case fStRejected:
			s.Rejected, err = rd.Int64()
		case fStFlushErr:
			s.FlushErrors, err = rd.Int64()
		default:
			err = rd.Skip(wt)
		}
		if err != nil {
			return nil, decodeErr("stats field", err)
		}
	}
	return s, nil
}
