// Package query implements the IPS read path (§II-B2): locating the slices
// that fall into a requested time range, multi-way merging and aggregating
// feature counts, applying optional time-decay, filtering, and final
// sorting / top-K selection.
//
// A read runs against one of two forms. Run reads a live profile under
// its read lock. RunSealed reads a Sealed form: an immutable, row-major
// copy of a profile built once by Seal, read without a lock, whose per-row
// bounds let top-K stop before it has seen every feature.
package query

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"ips/internal/model"
)

// RangeKind selects how a query's time window is interpreted (§II-B2).
type RangeKind uint8

// Supported time-range kinds.
const (
	// Current windows end at the query's "now": [now-Span, now).
	Current RangeKind = iota
	// Relative windows end at the profile's most recent action:
	// [latest-Span, latest].
	Relative
	// Absolute windows are given explicitly: [From, To).
	Absolute
)

// String names the range kind as the paper does.
func (k RangeKind) String() string {
	switch k {
	case Current:
		return "CURRENT"
	case Relative:
		return "RELATIVE"
	case Absolute:
		return "ABSOLUTE"
	default:
		return fmt.Sprintf("RangeKind(%d)", uint8(k))
	}
}

// TimeRange specifies the queried window.
type TimeRange struct {
	Kind RangeKind
	// Span is the window length in milliseconds for Current and Relative
	// ranges.
	Span model.Millis
	// From and To bound Absolute ranges: [From, To).
	From, To model.Millis
}

// CurrentRange returns a CURRENT range covering the last span milliseconds.
func CurrentRange(span model.Millis) TimeRange {
	return TimeRange{Kind: Current, Span: span}
}

// RelativeRange returns a RELATIVE range covering span milliseconds back
// from the profile's most recent action.
func RelativeRange(span model.Millis) TimeRange {
	return TimeRange{Kind: Relative, Span: span}
}

// AbsoluteRange returns an ABSOLUTE range [from, to).
func AbsoluteRange(from, to model.Millis) TimeRange {
	return TimeRange{Kind: Absolute, From: from, To: to}
}

// Resolve converts the range to absolute bounds given the query time and
// the profile's latest event timestamp.
//
//ips:hotpath-trust error construction only runs on invalid ranges, off the steady state
func (r TimeRange) Resolve(now, latest model.Millis) (from, to model.Millis, err error) {
	switch r.Kind {
	case Current:
		if r.Span <= 0 {
			return 0, 0, errors.New("query: CURRENT range needs positive span")
		}
		// Inclusive of "the current moment": an event stamped exactly now
		// is part of the window.
		return now - r.Span, now + 1, nil
	case Relative:
		if r.Span <= 0 {
			return 0, 0, errors.New("query: RELATIVE range needs positive span")
		}
		// Inclusive of the latest event itself.
		return latest - r.Span, latest + 1, nil
	case Absolute:
		if r.From >= r.To {
			return 0, 0, fmt.Errorf("query: ABSOLUTE range [%d,%d) is empty", r.From, r.To)
		}
		return r.From, r.To, nil
	default:
		return 0, 0, fmt.Errorf("query: unknown range kind %d", r.Kind)
	}
}

// SortBy selects the final ordering of aggregated features (§II-B2: sort by
// a certain attribute count, timestamp, or feature id).
type SortBy uint8

// Supported sort types.
const (
	// ByAction sorts by one action-count attribute, descending.
	ByAction SortBy = iota
	// ByTimestamp sorts by the most recent slice a feature appeared in,
	// descending (most recent first).
	ByTimestamp
	// ByFeatureID sorts by FID ascending, giving a deterministic order.
	ByFeatureID
	// ByTotal sorts by the sum of all action counts, descending.
	ByTotal
	// ByUDAF sorts by a user-defined aggregate function's score,
	// descending; the Request carries the function (or its registered
	// name, resolved by the server).
	ByUDAF
)

// DecayFunc identifies the decay function applied to older slices
// (§II-B2, get_profile_decay).
type DecayFunc uint8

// Supported decay functions.
const (
	// DecayNone applies no decay.
	DecayNone DecayFunc = iota
	// DecayExp multiplies counts by factor^age, where age is the slice's
	// distance from the window end in units of the slice's own width.
	DecayExp
	// DecayLinear multiplies counts by max(0, 1 - factor*ageFraction)
	// where ageFraction is the slice age divided by the window length.
	DecayLinear
	// DecayStep zeroes counts older than factor fraction of the window.
	DecayStep
)

// Filter restricts which features survive aggregation.
type Filter struct {
	// MinCount drops features whose sort attribute is below the bound.
	MinCount int64
	// FIDs, when non-nil, keeps only the listed feature IDs.
	FIDs map[model.FeatureID]bool
	// Predicate, when non-nil, is applied last to each aggregated feature.
	Predicate func(Feature) bool
}

// Request describes one feature query against a single profile.
type Request struct {
	Slot model.SlotID
	Type model.TypeID
	// AllTypes aggregates across every type in the slot, ignoring Type.
	AllTypes bool
	Range    TimeRange
	// SortBy picks the ordering; Action names the attribute for ByAction.
	SortBy SortBy
	Action string
	// K limits the result count; K <= 0 returns everything.
	K int
	// Decay and DecayFactor configure optional time decay.
	Decay       DecayFunc
	DecayFactor float64
	// Filter restricts the result set.
	Filter *Filter
	// UDAF scores each aggregated feature when SortBy is ByUDAF; it also
	// populates Feature.Score. Remote callers name a registered function
	// instead (resolved to this field by the server).
	UDAF UDAF
	// MinScore drops features whose UDAF score is below the bound
	// (requires UDAF).
	MinScore float64
}

// Feature is one aggregated feature in a query result.
type Feature struct {
	FID model.FeatureID
	// Counts is the aggregated (possibly decayed) count vector.
	Counts []int64
	// LastSeen is the newest slice-end the feature appeared in, a proxy
	// for recency used by ByTimestamp sorting.
	LastSeen model.Millis
	// Score is the UDAF result when the query used one.
	Score float64
}

// Result is a query response.
type Result struct {
	Features []Feature
	// SlicesScanned counts the slices that overlapped the window, a cost
	// metric surfaced to the benchmark harness.
	SlicesScanned int
}

// errUDAFRequired is preallocated so the invalid-request check stays off
// the allocation profile of the hot path that performs it.
var errUDAFRequired = errors.New("query: ByUDAF requires a UDAF")

// maxPresize caps the rows the fid table is presized for: slices that
// repeat the same fids report many more stats than there are rows, and
// the table is cleared on every run. Past the cap it grows by rehash.
const maxPresize = 1 << 14

// Scratch is the query kernel's reusable working storage: an
// open-addressing fid table over flat per-row columns, the part weights
// of a sealed read, and the top-K heap of row indices. A warmed Scratch
// runs the whole read path without heap allocation.
//
// A Result produced through a Scratch aliases its storage: it is valid
// only until the next run with the same Scratch. Callers that retain
// results must copy them out first. A Scratch is not safe for concurrent
// use.
type Scratch struct {
	parts []part // the stats to merge: step 1's output

	// table maps a fid to its row: each slot holds row+1, 0 when empty.
	// Its length is a power of two, at least twice the row count; a fid
	// hashes to its top log2(len) bits of fid*φ and probes linearly.
	table []int32
	shift uint

	// Row r aggregates fid fids[r]: counts cnt[r*width:(r+1)*width], the
	// newest slice end last[r], the sort key key[r] and, in a run whose
	// request carries a UDAF, the score score[r].
	fids  []model.FeatureID
	cnt   []int64
	last  []model.Millis
	score []float64
	key   []int64
	width int

	// pw is a sealed read's weight per part of the read slot; 0 leaves
	// the part out.
	pw []float64

	rows []int32 // the top-K heap
	out  []Feature
}

// part is one FeatureStats to merge, weighted by its slice's decay.
type part struct {
	fs  *model.FeatureStats
	w   float64
	end model.Millis
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a pooled Scratch.
//
//ips:hotpath
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch recycles sc. The caller must be done with every Result
// produced through it — their Features alias the scratch storage.
//
//ips:hotpath
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// RunScratch is Run under the profile's read lock: the head slice is
// mutable, so reading its feature maps without the lock would race with
// writers. Keeping writers out of large profiles during queries is
// exactly the contention the paper's read-write isolation (§III-F)
// relieves — with isolation on, online writes land in the small write
// table instead of these locked main-table profiles.
//
//ips:hotpath
func RunScratch(p *model.Profile, schema *model.Schema, req Request, now model.Millis, sc *Scratch) (Result, error) {
	p.RLock()
	defer p.RUnlock()
	return Run(p, schema, req, now, sc)
}

// Run executes the request against a live profile at the given query
// time. The caller holds p's read lock (a batch group holds it once for
// all its sub-queries). The Result aliases sc's storage and is valid
// until sc's next run.
//
//ips:hotpath
func Run(p *model.Profile, schema *model.Schema, req Request, now model.Millis, sc *Scratch) (Result, error) {
	return sc.run(p.Slices(), schema, req, now, p.Latest())
}

// RunSealedScratch is Run under its former name.
//
// Deprecated: use Run, or RunSealed for a sealed form. It is kept only
// because the benchmark module (benchmark/trace.go) calls it and is
// versioned separately from the program.
//
//ips:hotpath
func RunSealedScratch(p *model.Profile, schema *model.Schema, req Request, now model.Millis, sc *Scratch) (Result, error) {
	return Run(p, schema, req, now, sc)
}

// run is the live kernel: the four steps of §II-B2 over one slice list.
//
//ips:hotpath
func (sc *Scratch) run(slices []*model.Slice, schema *model.Schema, req Request, now, latest model.Millis) (Result, error) {
	from, to, actionIdx, err := prepare(schema, req, now, latest)
	if err != nil {
		return Result{}, err
	}
	// Step 1: locate the slices in range. Step 2: multi-way merge and
	// aggregate through the fid table. Step 3: decay (already in the part
	// weights) and filters. Step 4: top K, sorted.
	scanned, stats := sc.locate(slices, req, from, to)
	sc.reset(schema.NumActions())
	sc.resize(min(stats, maxPresize))
	sc.merge(schema)
	sc.admit(&req, actionIdx)
	return sc.result(req, scanned), nil
}

// prepare resolves the request's window and its sort action, and rejects
// a request the kernel cannot answer.
//
//ips:hotpath
func prepare(schema *model.Schema, req Request, now, latest model.Millis) (from, to model.Millis, actionIdx int, err error) {
	if from, to, err = req.Range.Resolve(now, latest); err != nil {
		return 0, 0, 0, err
	}
	if req.SortBy == ByAction && req.Action != "" {
		if actionIdx, err = schema.ActionIndex(req.Action); err != nil {
			return 0, 0, 0, err
		}
	}
	if req.SortBy == ByUDAF && req.UDAF == nil {
		return 0, 0, 0, errUDAFRequired
	}
	return from, to, actionIdx, nil
}

// reset empties the row columns and the heap for a run over width
// actions, keeping their capacity.
//
//ips:hotpath
func (sc *Scratch) reset(width int) {
	sc.width = width
	sc.fids, sc.cnt, sc.last = sc.fids[:0], sc.cnt[:0], sc.last[:0]
	sc.key, sc.score, sc.rows = sc.key[:0], sc.score[:0], sc.rows[:0]
}

// locate collects the requested slot's stats from every slice that
// overlaps [from, to) and carries a nonzero decay weight, a slice's types
// in ascending order. It returns the number of overlapping slices and the
// summed stat count of the parts.
//
//ips:hotpath
func (sc *Scratch) locate(slices []*model.Slice, req Request, from, to model.Millis) (scanned, stats int) {
	sc.parts = sc.parts[:0]
	for _, s := range slices {
		if !s.Overlaps(from, to) {
			continue
		}
		scanned++
		set := s.Slot(req.Slot)
		if set == nil {
			continue
		}
		w := decayWeight(req, s.Start, s.End, from, to)
		if w == 0 {
			continue
		}
		if !req.AllTypes {
			if fs := set.Get(req.Type); fs != nil {
				sc.parts = append(sc.parts, part{fs, w, s.End})
			}
			continue
		}
		for i := 0; i < set.Len(); i++ {
			_, fs := set.At(i)
			sc.parts = append(sc.parts, part{fs, w, s.End})
		}
	}
	for _, pt := range sc.parts {
		stats += pt.fs.Len()
	}
	return scanned, stats
}

// resize sets the fid table to the smallest power of two that holds rows
// at load ≤ ½, re-indexes the rows already present, and reserves column
// capacity up to that load so inserts never reallocate.
//
//ips:hotpath-trust table and column growth amortize away under scratch reuse
func (sc *Scratch) resize(rows int) {
	size := 16
	for size < 2*rows {
		size <<= 1
	}
	if cap(sc.table) < size {
		sc.table = make([]int32, size)
	} else {
		sc.table = sc.table[:size]
		clear(sc.table)
	}
	sc.shift = uint(64 - bits.TrailingZeros(uint(size)))
	limit := size / 2
	if cap(sc.fids) < limit || cap(sc.cnt) < limit*sc.width {
		sc.fids = append(make([]model.FeatureID, 0, limit), sc.fids...)
		sc.last = append(make([]model.Millis, 0, limit), sc.last...)
		sc.cnt = append(make([]int64, 0, limit*sc.width), sc.cnt...)
		sc.key, sc.score = make([]int64, 0, limit), make([]float64, 0, limit)
	}
	for r, fid := range sc.fids {
		sc.table[sc.probe(fid)] = int32(r + 1)
	}
}

// probe returns fid's table slot, or the empty slot where it belongs.
//
//ips:hotpath
func (sc *Scratch) probe(fid model.FeatureID) int {
	for i := int((fid * 0x9e3779b97f4a7c15) >> sc.shift); ; i = (i + 1) & (len(sc.table) - 1) {
		if e := sc.table[i]; e == 0 || sc.fids[e-1] == fid {
			return i
		}
	}
}

// row returns fid's row, adding a zeroed one on first sight, and stamps
// it with end if that is newer than its last sighting. The table grows
// before it would pass load ½.
//
//ips:hotpath
func (sc *Scratch) row(fid model.FeatureID, end model.Millis) int {
	if 2*len(sc.fids) >= len(sc.table) {
		sc.resize(len(sc.fids) + 1)
	}
	i := sc.probe(fid)
	if sc.table[i] == 0 {
		sc.table[i] = int32(len(sc.fids) + 1)
		sc.fids = append(sc.fids, fid)
		sc.last = append(sc.last, 0)
		n := len(sc.cnt)
		sc.cnt = sc.cnt[:n+sc.width]
		clear(sc.cnt[n:])
	}
	r := int(sc.table[i] - 1)
	if end > sc.last[r] {
		sc.last[r] = end
	}
	return r
}

// merge aggregates every located part into the row columns, through
// accumulate's loops written out: a call per stat costs the live kernel
// about a tenth of its time.
//
//ips:hotpath
func (sc *Scratch) merge(schema *model.Schema) {
	sum := allSum(schema, sc.width)
	for _, pt := range sc.parts {
		for _, st := range pt.fs.View() {
			r, src := sc.row(st.FID, pt.end), st.Counts
			dst := sc.cnt[r*sc.width : (r+1)*sc.width : (r+1)*sc.width]
			if len(src) > len(dst) {
				src = src[:len(dst)]
			}
			switch {
			case !sum:
				reduceInto(dst, src, pt.w, schema)
			case pt.w == 1:
				for i, c := range src {
					dst[i] += c
				}
			default:
				for i, c := range src {
					dst[i] += weighted(c, pt.w)
				}
			}
		}
	}
}

// allSum reports whether every one of the width actions reduces by SUM.
//
//ips:hotpath
func allSum(schema *model.Schema, width int) bool {
	for i := 0; i < width; i++ {
		if reducerOf(schema, i) != model.ReduceSum {
			return false
		}
	}
	return true
}

// accumulate folds one part's counts src, scaled by its decay weight w,
// into the row dst. When every reducer is SUM (sum) the counts merge in a
// plain add loop, small enough to inline into both kernels' row loops;
// other schemas merge through reduceInto. Counts past the schema's width
// are ignored.
//
//ips:hotpath
func accumulate(dst, src []int64, w float64, sum bool, schema *model.Schema) {
	if len(src) > len(dst) {
		src = src[:len(dst)]
	}
	if !sum {
		reduceInto(dst, src, w, schema)
		return
	}
	for i, c := range src {
		dst[i] += weighted(c, w)
	}
}

// reduceInto is accumulate's merge under the schema's reducers.
//
//ips:hotpath
func reduceInto(dst, src []int64, w float64, schema *model.Schema) {
	for i, c := range src {
		dst[i] = schemaReduceMerge(schema, i, dst[i], weighted(c, w))
	}
}

// admit is the per-row step both kernels share: it admits every row not
// yet admitted (from len(key) up to the row count), each with complete
// counts — the live kernel all its rows at once, the sealed kernel each
// row as it is gathered. admit gives a row its sort key — a larger key
// sorts first, equal keys by ascending FID — and, when the request
// carries a UDAF, its score (the score column is filled only then). It
// drops the row if MinScore or the request's filter rejects it, and
// offers it to the top-K heap, which keeps its lowest-ranked row at the
// root. With K <= 0 every kept row joins.
//
//ips:hotpath
func (sc *Scratch) admit(req *Request, actionIdx int) {
	udaf, f := req.UDAF != nil, req.Filter
	for r := len(sc.key); r < len(sc.fids); r++ {
		c := sc.cnt[r*sc.width : (r+1)*sc.width : (r+1)*sc.width]
		var k int64
		switch req.SortBy {
		case ByTimestamp:
			k = sc.last[r]
		case ByTotal:
			for _, x := range c {
				k += x
			}
		case ByFeatureID, ByUDAF: // ByUDAF's key is set with the score below
		default: // ByAction
			if actionIdx < len(c) {
				k = c[actionIdx]
			}
		}
		if udaf {
			//ipslint:ignore hotpathalloc UDAF scoring is a dynamic call by design, off the default topK shape
			score := req.UDAF(c)
			if req.SortBy == ByUDAF {
				k = scoreKey(score)
			}
			sc.score, sc.key = append(sc.score, score), append(sc.key, k)
			if score < req.MinScore {
				continue
			}
		} else {
			sc.key = append(sc.key, k)
		}
		if f != nil {
			if f.MinCount > 0 && (actionIdx >= len(c) || c[actionIdx] < f.MinCount) {
				continue
			}
			if f.FIDs != nil && !f.FIDs[sc.fids[r]] {
				continue
			}
			//ipslint:ignore hotpathalloc user predicates are a dynamic call by design, off the default topK shape
			if f.Predicate != nil && !f.Predicate(sc.feature(r, udaf)) {
				continue
			}
		}
		if req.K > 0 && len(sc.rows) == req.K {
			if sc.below(sc.rows[0], int32(r)) {
				sc.rows[0] = int32(r)
				sc.sift(sc.rows, 0)
			}
			continue
		}
		sc.rows = append(sc.rows, int32(r))
		if len(sc.rows) == req.K {
			sc.heapify(sc.rows)
		}
	}
}

// result sorts the admitted rows best first and returns them as Features
// whose Counts alias the scratch.
//
//ips:hotpath
func (sc *Scratch) result(req Request, scanned int) Result {
	heap := sc.rows
	if len(heap) != req.K {
		sc.heapify(heap)
	}
	for n := len(heap) - 1; n > 0; n-- {
		heap[0], heap[n] = heap[n], heap[0]
		sc.sift(heap[:n], 0)
	}
	out := sc.out[:0]
	for _, r := range heap {
		out = append(out, sc.feature(int(r), req.UDAF != nil))
	}
	sc.out = out
	return Result{Features: out, SlicesScanned: scanned}
}

// scoreKey maps a score onto an int64 with the same order. Adding +0 maps
// -0 to +0, so equal scores still tie.
//
//ips:hotpath
func scoreKey(f float64) int64 {
	k := int64(math.Float64bits(f + 0))
	if k < 0 {
		k ^= math.MaxInt64
	}
	return k
}

// below reports whether row a sorts after row b.
//
//ips:hotpath
func (sc *Scratch) below(a, b int32) bool {
	if ka, kb := sc.key[a], sc.key[b]; ka != kb {
		return ka < kb
	}
	return sc.fids[a] > sc.fids[b]
}

// heapify orders heap so that its root is its lowest-ranked row.
//
//ips:hotpath
func (sc *Scratch) heapify(heap []int32) {
	for i := len(heap)/2 - 1; i >= 0; i-- {
		sc.sift(heap, i)
	}
}

// sift restores the heap below i; the heap keeps its lowest-ranked row at
// the root.
//
//ips:hotpath
func (sc *Scratch) sift(heap []int32, i int) {
	for l := 2*i + 1; l < len(heap); l = 2*i + 1 {
		if l+1 < len(heap) && sc.below(heap[l+1], heap[l]) {
			l++
		}
		if !sc.below(heap[l], heap[i]) {
			return
		}
		heap[i], heap[l] = heap[l], heap[i]
		i = l
	}
}

// feature returns row r as a Feature whose Counts alias the scratch.
//
//ips:hotpath
func (sc *Scratch) feature(r int, udaf bool) Feature {
	f := Feature{FID: sc.fids[r], Counts: sc.cnt[r*sc.width : (r+1)*sc.width : (r+1)*sc.width], LastSeen: sc.last[r]}
	if udaf {
		f.Score = sc.score[r]
	}
	return f
}

// schemaReduceMerge merges one attribute across slices. Window aggregation
// honours the schema's reducer so LAST/MAX semantics survive the merge: the
// slice list is iterated newest-first, so for ReduceLast the first value
// seen wins.
//
//ips:hotpath
func schemaReduceMerge(schema *model.Schema, i int, have, incoming int64) int64 {
	switch r := reducerOf(schema, i); r {
	case model.ReduceSum:
		return have + incoming
	case model.ReduceMax:
		if incoming > have {
			return incoming
		}
		return have
	case model.ReduceMin:
		if incoming < have {
			return incoming
		}
		return have
	case model.ReduceLast:
		if have == 0 {
			return incoming
		}
		return have
	default:
		return have + incoming
	}
}

//ips:hotpath
func reducerOf(s *model.Schema, i int) model.Reduce {
	if s.Reducers == nil || i >= len(s.Reducers) {
		return model.ReduceSum
	}
	return s.Reducers[i]
}

// weighted scales c by a decay weight w in [0, 1] and rounds half away
// from zero, as math.Round does, without a branch: the fraction x - t is
// exact, so 2(x - t) truncates to the -1, 0 or 1 that rounding adds.
//
//ips:hotpath
func weighted(c int64, w float64) int64 {
	if w == 1 {
		return c
	}
	x := float64(c) * w
	t := int64(x)
	return t + int64(2*(x-float64(t)))
}

// decayWeight computes the decay multiplier for the slice [start, end)
// inside the window: a weight in [0, 1], or NaN for a NaN DecayFactor.
//
//ips:hotpath
func decayWeight(req Request, start, end, from, to model.Millis) float64 {
	if req.Decay == DecayNone {
		return 1
	}
	window := float64(to - from)
	if window <= 0 {
		return 1
	}
	// Age of the slice's midpoint relative to the window end.
	mid := float64(start+end) / 2
	age := float64(to) - mid
	if age < 0 {
		age = 0
	}
	frac := age / window
	switch req.Decay {
	case DecayExp:
		// factor in (0,1]; weight = factor^(age in slice-widths), with a
		// floor of one width so head slices are not over-weighted.
		width := float64(end - start)
		if width <= 0 {
			width = 1
		}
		f := req.DecayFactor
		if f <= 0 || f > 1 {
			f = 0.5
		}
		return math.Pow(f, age/width)
	case DecayLinear:
		f := req.DecayFactor
		if f <= 0 {
			f = 1
		}
		w := 1 - f*frac
		if w < 0 {
			return 0
		}
		return w
	case DecayStep:
		f := req.DecayFactor
		if f <= 0 || f > 1 {
			f = 0.5
		}
		if frac > f {
			return 0
		}
		return 1
	default:
		return 1
	}
}
