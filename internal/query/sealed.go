package query

import (
	"math"
	"slices"

	"ips/internal/model"
)

// Sealed is a profile's read form: the profile copied once, by Seal, into
// row-major arrays the kernel reads with no hashing and no pointer chase.
// It is never written after Seal returns, so any number of readers share
// it without a lock.
//
// Per slot it holds the slot's distinct fids as rows in ascending order;
// each row's occurrences — one per (slice, type) part that holds the fid,
// newest slice first and types ascending, the order the live kernel
// merges in — with their counts flat at the schema's width; and, per sort
// attribute (each action, then the total), the rows ordered by their
// bound U descending, fid ascending. A row's U for an attribute is the
// sum of max(c, 0) over its occurrences' counts.
type Sealed struct {
	// WalLSN and MigLSN are the profile's watermarks when it was sealed.
	WalLSN, MigLSN uint64

	schema *model.Schema
	width  int
	latest model.Millis
	spans  []span // every slice's bounds, in the profile's order
	slots  map[model.SlotID]*sealedSlot
	bytes  int64
}

// span is one slice's interval [start, end).
type span struct{ start, end model.Millis }

// sealedSlot is one slot of a Sealed form. Row r is fid fids[r]; its
// occurrences are first[r] to first[r+1]-1; occurrence j belongs to part
// parts[part[j]] and counts cnt[j*width:(j+1)*width]. order holds, for
// attribute a, the rows order[a*n:(a+1)*n] by (U desc, fid asc); it is
// nil when the slot's counts are too large for U to bound their scores.
type sealedSlot struct {
	parts []sealedPart
	fids  []model.FeatureID
	first []int32
	part  []int32
	cnt   []int64
	order []int32
}

// sealedPart is one (slice, type) part of a slot.
type sealedPart struct {
	slice int32
	typ   model.TypeID
}

// exactLimit bounds the counts a bounded slot may hold: below it every
// count converts to float64 exactly, so a decayed count never rounds past
// the count itself.
const exactLimit = 1 << 53

// Seal builds p's read form under schema. The caller holds p's read lock,
// or p is out of every writer's reach; the form shares no memory with p.
func Seal(p *model.Profile, schema *model.Schema) *Sealed {
	src := p.Slices()
	s := &Sealed{
		WalLSN: p.WalLSN, MigLSN: p.MigLSN,
		schema: schema, width: schema.NumActions(), latest: p.Latest(),
		spans: make([]span, len(src)),
		slots: make(map[model.SlotID]*sealedSlot),
	}
	for i, sl := range src {
		s.spans[i] = span{sl.Start, sl.End}
		sl.EachSlot(func(id model.SlotID, _ *model.InstanceSet) { s.slots[id] = nil })
	}
	s.bytes = 96 + 16*int64(len(s.spans))
	var b sealer
	for id := range s.slots {
		sl := b.seal(src, id, s.width)
		s.slots[id] = sl
		s.bytes += sl.memSize()
	}
	return s
}

// MemSize returns the bytes the form holds, the figure GCache charges
// for it.
func (s *Sealed) MemSize() int64 { return s.bytes }

// sealer holds the working storage Seal reuses from slot to slot.
type sealer struct {
	keys     []uint64
	idx, tmp []int32
	part     []int32
}

// seal builds slot id's rows from the slices. It walks the slot's stats
// twice in merge order — slices as listed, types ascending, stats as
// stored — first for their fids and parts, then for their counts.
func (b *sealer) seal(src []*model.Slice, id model.SlotID, width int) *sealedSlot {
	sl := &sealedSlot{}
	m := 0
	for i, s := range src {
		if set := s.Slot(id); set != nil {
			for k := 0; k < set.Len(); k++ {
				t, fs := set.At(k)
				sl.parts = append(sl.parts, sealedPart{int32(i), t})
				m += fs.Len()
			}
		}
	}
	keys := b.grow(m)
	j := 0
	for pt, p := range sl.parts {
		for _, st := range src[p.slice].Slot(id).Get(p.typ).View() {
			keys[j], b.part[j] = st.FID, int32(pt)
			j++
		}
	}
	// Sort by fid. The sort is stable, so equal fids keep their merge
	// order, duplicates within one part included.
	idx := b.sort(keys)
	rows := 0
	for i, o := range idx {
		if i == 0 || keys[o] != keys[idx[i-1]] {
			rows++
		}
	}
	sl.fids = make([]model.FeatureID, 0, rows)
	sl.first = make([]int32, 0, rows+1)
	sl.part = make([]int32, m)
	sl.cnt = make([]int64, m*width)
	pos := b.tmp
	for i, o := range idx {
		if len(sl.fids) == 0 || keys[o] != sl.fids[len(sl.fids)-1] {
			sl.fids = append(sl.fids, keys[o])
			sl.first = append(sl.first, int32(i))
		}
		sl.part[i] = b.part[o]
		pos[o] = int32(i)
	}
	sl.first = append(sl.first, int32(m))
	j = 0
	for _, p := range sl.parts {
		for _, st := range src[p.slice].Slot(id).Get(p.typ).View() {
			i := int(pos[j])
			copy(sl.cnt[i*width:(i+1)*width], st.Counts)
			j++
		}
	}
	if sl.exact(width) {
		sl.order = b.orders(sl, width)
	}
	return sl
}

// grow sizes the sealer's key and index storage for n elements and
// returns the keys.
func (b *sealer) grow(n int) []uint64 {
	b.keys = slices.Grow(b.keys[:0], n)[:n]
	b.idx = slices.Grow(b.idx[:0], n)[:n]
	b.tmp = slices.Grow(b.tmp[:0], n)[:n]
	b.part = slices.Grow(b.part[:0], n)[:n]
	return b.keys
}

// sort returns the indices of keys ordered by key, equal keys in index
// order: an LSD radix sort, a byte a pass, that skips every byte all keys
// share. keys is b.keys; the result is b.idx, and b.tmp is left free.
func (b *sealer) sort(keys []uint64) []int32 {
	idx, tmp := b.idx, b.tmp
	or, and := uint64(0), ^uint64(0)
	for i, k := range keys {
		idx[i] = int32(i)
		or, and = or|k, and&k
	}
	for shift := 0; shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		var at [256]int
		for _, k := range keys {
			at[k>>shift&0xff]++
		}
		sum := 0
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for _, i := range idx {
			d := keys[i] >> shift & 0xff
			tmp[at[d]] = i
			at[d]++
		}
		idx, tmp = tmp, idx
	}
	copy(b.idx, idx)
	return b.idx
}

// exact reports whether U bounds every score a request can give the
// slot's rows: every count is below exactLimit in magnitude, so a count
// times a weight in [0, 1] rounds to at most max(c, 0), and no row's
// absolute counts sum past MaxInt64, so neither a row's score nor its U
// wraps.
func (sl *sealedSlot) exact(width int) bool {
	for r := range sl.fids {
		var t int64
		for _, c := range sl.cnt[int(sl.first[r])*width : int(sl.first[r+1])*width] {
			if c <= -exactLimit || c >= exactLimit {
				return false
			}
			if c < 0 {
				c = -c
			}
			if t > math.MaxInt64-c {
				return false
			}
			t += c
		}
	}
	return true
}

// orders returns, for each sort attribute, the slot's rows by (U desc,
// fid asc): a stable sort of the rows, which are in fid order, by
// MaxInt64 - U.
func (b *sealer) orders(sl *sealedSlot, width int) []int32 {
	n, attrs := len(sl.fids), width+1
	order := make([]int32, n*attrs)
	for a := 0; a < attrs; a++ {
		keys := b.grow(n)
		for r := range keys {
			keys[r] = uint64(math.MaxInt64 - sl.bound(r, a, width))
		}
		copy(order[a*n:(a+1)*n], b.sort(keys))
	}
	return order
}

// bound returns row r's U for attribute a — an action, or width for the
// total of all actions: the sum of max(c, 0) over the row's occurrences.
//
//ips:hotpath
func (sl *sealedSlot) bound(r, a, width int) int64 {
	cnt := sl.cnt[int(sl.first[r])*width : int(sl.first[r+1])*width]
	var u int64
	if a < width {
		for j := a; j < len(cnt); j += width {
			u += max(cnt[j], 0)
		}
		return u
	}
	for _, c := range cnt {
		u += max(c, 0)
	}
	return u
}

// memSize returns the slot's bytes: its arrays and their headers.
func (sl *sealedSlot) memSize() int64 {
	return 160 + 8*int64(len(sl.parts)+len(sl.fids)+len(sl.cnt)) +
		4*int64(len(sl.first)+len(sl.part)+len(sl.order))
}

// RunSealed executes the request against a sealed form at the given query
// time. It takes no lock. The Result aliases sc's storage and is valid
// until sc's next run, like Run's.
//
// A ByAction or ByTotal request with K > 0 walks the slot's rows in the
// sort attribute's (U desc, fid asc) order and stops once the heap is full
// and its root beats the next row's bound: a root key above U, or equal
// to U with a smaller fid. That is exact: every decay weight lies in
// [0, 1], so no row scores above its U, and every later row has a U no
// larger (and, at the same U, a larger fid). Every other request — and a
// slot whose counts are too large for the bound, or a NaN weight — walks
// every row in fid order.
//
//ips:hotpath
func RunSealed(s *Sealed, req Request, now model.Millis, sc *Scratch) (Result, error) {
	from, to, actionIdx, err := prepare(s.schema, req, now, s.latest)
	if err != nil {
		return Result{}, err
	}
	scanned := 0
	for _, sp := range s.spans {
		if sp.start < to && sp.end > from {
			scanned++
		}
	}
	sc.reset(s.width)
	sl := s.slots[req.Slot]
	if sl == nil {
		return sc.result(req, scanned), nil
	}
	n := len(sl.fids)
	attr := actionIdx
	if req.SortBy == ByTotal {
		attr = s.width
	}
	var order []int32
	if sc.weigh(sl, s.spans, req, from, to) && sl.order != nil && req.K > 0 && req.UDAF == nil &&
		(req.SortBy == ByAction || req.SortBy == ByTotal) {
		order = sl.order[attr*n : (attr+1)*n]
	}
	sum := allSum(s.schema, s.width)
	for i := 0; i < n; i++ {
		r := i
		if order != nil {
			r = int(order[i])
			if len(sc.rows) == req.K && sc.beats(sc.rows[0], sl.bound(r, attr, s.width), sl.fids[r]) {
				break
			}
		}
		if sc.gather(sl, s.spans, r, s.schema, sum) {
			sc.admit(&req, actionIdx)
		}
	}
	return sc.result(req, scanned), nil
}

// weigh sets the weight of each of the slot's parts for the request: its
// slice's decay weight, or 0 for a part outside the window, the type or
// the decay. It reports whether every weight lies in [0, 1].
//
//ips:hotpath
func (sc *Scratch) weigh(sl *sealedSlot, spans []span, req Request, from, to model.Millis) bool {
	pw, in := sc.pw[:0], true
	slice, w := int32(-1), 0.0
	for _, pt := range sl.parts {
		if pt.slice != slice {
			slice, w = pt.slice, 0
			if sp := spans[slice]; sp.start < to && sp.end > from {
				w = decayWeight(req, sp.start, sp.end, from, to)
			}
		}
		x := w
		if !req.AllTypes && pt.typ != req.Type {
			x = 0
		}
		in = in && x >= 0 && x <= 1
		pw = append(pw, x)
	}
	sc.pw = pw
	return in
}

// beats reports whether heap row root outranks every row whose bound is
// u at fid or later in the walk order.
//
//ips:hotpath
func (sc *Scratch) beats(root int32, u int64, fid model.FeatureID) bool {
	k := sc.key[root]
	return k > u || k == u && sc.fids[root] < fid
}

// gather aggregates sealed row r into a new scratch row under the part
// weights and reports whether any of its occurrences is in the request;
// a row with none is taken back out.
//
//ips:hotpath
func (sc *Scratch) gather(sl *sealedSlot, spans []span, r int, schema *model.Schema, sum bool) bool {
	w, n := sc.width, len(sc.cnt)
	for range w {
		sc.cnt = append(sc.cnt, 0)
	}
	dst := sc.cnt[n : n+w : n+w]
	var last model.Millis
	in := false
	for j := int(sl.first[r]); j < int(sl.first[r+1]); j++ {
		p := sl.part[j]
		pw := sc.pw[p]
		if pw == 0 {
			continue
		}
		in = true
		last = max(last, spans[sl.parts[p].slice].end)
		accumulate(dst, sl.cnt[j*w:(j+1)*w], pw, sum, schema)
	}
	if !in {
		sc.cnt = sc.cnt[:n]
		return false
	}
	sc.fids, sc.last = append(sc.fids, sl.fids[r]), append(sc.last, last)
	return true
}
