// Package load is the benchmark's seeded request generator: its own Zipf
// sampler, window and operator mix, and prefill history. It imports
// nothing from the program under test, so a change there cannot move the
// request stream; the same (Spec, seed, stream) always yields the same
// operations.
package load

import (
	"math"
	"sort"
)

// DayMs is one day in milliseconds; prefilled history spans HistoryDays.
const (
	DayMs       = int64(24 * 3600 * 1000)
	HistoryDays = 30
	// MaxLagMs bounds how far behind "now" an ingested event is stamped.
	MaxLagMs = 30_000
	// NumActions is the width of every count vector (like, comment, share).
	NumActions = 3
	// MaxAddEntries is the most events one generated write carries.
	MaxAddEntries = 4
)

// windowsMs are the read windows a point query draws from uniformly.
var windowsMs = [...]int64{10 * 60_000, 3600_000, DayMs, 7 * DayMs, 30 * DayMs}

// Spec describes one workload's inputs. It is plain data: the benchmark
// fixes one Spec per workload name.
type Spec struct {
	// Profiles is the ID space: IDs are 1..Profiles.
	Profiles int
	// ZipfS skews which profile an operation touches (rank r drawn with
	// weight r^-s, rank 1 = ID 1); 0 means uniform.
	ZipfS float64
	// AddShare and BatchShare are the fractions of operations that are
	// writes and batched reads; the rest are single reads.
	AddShare, BatchShare float64
	// BatchSize is the number of sub-queries in one batched read.
	BatchSize int
	// Scan makes every read the full-profile form: all types, 30-day
	// window, exponential decay, K=50. Otherwise reads are the point
	// form: K=20 over a random window, 20% decayed, 10% filtered, 10%
	// all-types.
	Scan bool
	// PrefillEntries is the number of history entries per profile.
	PrefillEntries int
	// Slots, Types and FIDs size the feature space entries draw from
	// uniformly. A FIDs much larger than PrefillEntries makes nearly every
	// entry a distinct feature.
	Slots, Types uint32
	FIDs         uint64
}

// Kind is an operation's type.
type Kind uint8

// The three client calls the workloads issue.
const (
	TopK Kind = iota
	Add
	Batch
)

// Query is one read, in the benchmark's own terms.
type Query struct {
	Profile  uint64
	Slot     uint32
	Type     uint32
	AllTypes bool
	SpanMs   int64
	Action   uint8 // index of the action sorted by
	K        int
	ExpDecay bool
	MinCount int64
}

// Entry is one observed event. AgeMs is how long before the moment of
// sending it happened, so a stream does not depend on the wall clock.
type Entry struct {
	AgeMs  int64
	Slot   uint32
	Type   uint32
	FID    uint64
	Counts [NumActions]int64
}

// Op is one generated operation. Exactly the fields of its Kind are set:
// Query for TopK; Profile and Entries for Add; Subs for Batch.
type Op struct {
	Kind    Kind
	Query   Query
	Profile uint64
	Entries []Entry
	Subs    []Query
}

// rng is splitmix64: tiny, seedable, and identical on every Go version.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// below returns a uniform value in [0, n).
func (r *rng) below(n uint64) uint64 { return r.next() % n }

// mix derives an independent seed from a seed and a stream number.
func mix(seed int64, stream uint64) rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1342543de82ef95)
	r.next()
	return r
}

// Zipf samples ranks 0..n-1 with weight (rank+1)^-s by inverting a
// precomputed cumulative table.
type Zipf struct {
	cdf []float64
}

// NewZipf builds the table for n ranks and exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Share returns the probability mass of the first k ranks.
func (z *Zipf) Share(k int) float64 { return z.cdf[k-1] }

func (z *Zipf) rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// Generator yields one workload's operation stream.
type Generator struct {
	spec Spec
	r    rng
	zipf *Zipf
}

// New returns the generator of (spec, seed, stream). Streams of one seed
// are independent: each closed-loop caller and the pacer own one.
func New(spec Spec, seed int64, stream uint64) *Generator {
	g := &Generator{spec: spec, r: mix(seed, stream+1)}
	if spec.ZipfS > 0 {
		g.zipf = NewZipf(spec.Profiles, spec.ZipfS)
	}
	return g
}

// Gap draws the next exponential inter-arrival gap, in seconds, of an
// open-loop stream at the given rate.
func (g *Generator) Gap(perSecond float64) float64 {
	return -math.Log(1-g.r.float()) / perSecond
}

func (g *Generator) profile() uint64 {
	if g.zipf == nil {
		return 1 + g.r.below(uint64(g.spec.Profiles))
	}
	return 1 + uint64(g.zipf.rank(g.r.float()))
}

// Next fills op with the stream's next operation, reusing op's slices.
func (g *Generator) Next(op *Op) {
	u := g.r.float()
	switch {
	case u < g.spec.AddShare:
		op.Kind = Add
		op.Profile = g.profile()
		n := 1 + int(g.r.below(MaxAddEntries))
		op.Entries = op.Entries[:0]
		for i := 0; i < n; i++ {
			op.Entries = append(op.Entries, g.spec.entry(&g.r, int64(g.r.below(MaxLagMs))))
		}
	case u < g.spec.AddShare+g.spec.BatchShare:
		op.Kind = Batch
		op.Subs = op.Subs[:0]
		for i := 0; i < g.spec.BatchSize; i++ {
			op.Subs = append(op.Subs, g.query())
		}
	default:
		op.Kind = TopK
		op.Query = g.query()
	}
}

func (g *Generator) query() Query {
	q := Query{
		Profile: g.profile(),
		Slot:    uint32(g.r.below(uint64(g.spec.Slots))),
		Type:    uint32(g.r.below(uint64(g.spec.Types))),
		Action:  uint8(g.r.below(NumActions)),
	}
	if g.spec.Scan {
		q.AllTypes, q.ExpDecay, q.SpanMs, q.K = true, true, HistoryDays*DayMs, 50
		return q
	}
	q.SpanMs = windowsMs[g.r.below(uint64(len(windowsMs)))]
	q.K = 20
	switch v := g.r.float(); {
	case v < 0.2:
		q.ExpDecay = true
	case v < 0.3:
		q.MinCount = 2
	case v < 0.4:
		q.AllTypes = true
	}
	return q
}

func (s *Spec) entry(r *rng, ageMs int64) Entry {
	v := r.next()
	return Entry{
		AgeMs:  ageMs,
		Slot:   uint32(r.below(uint64(s.Slots))),
		Type:   uint32(r.below(uint64(s.Types))),
		FID:    1 + r.below(s.FIDs),
		Counts: [NumActions]int64{1 + int64(v%3), int64(v >> 8 % 2), int64(v >> 16 % 8 / 7)},
	}
}

// Prefill returns profile id's history: PrefillEntries events spread
// uniformly over the last HistoryDays days, oldest first. It depends only
// on (spec, seed, id), so any profile's history can be regenerated
// without storing it.
func Prefill(spec Spec, seed int64, id uint64) []Entry {
	r := mix(seed, id<<1|1<<63)
	out := make([]Entry, spec.PrefillEntries)
	for i := range out {
		// Keep history older than the ingestion lag so live and prefilled
		// events never share a head slice.
		age := 2*MaxLagMs + int64(r.below(uint64(HistoryDays*DayMs-2*MaxLagMs)))
		out[i] = spec.entry(&r, age)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].AgeMs > out[j].AgeMs })
	return out
}
