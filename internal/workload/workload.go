// Package workload generates the synthetic traffic the benchmark harness
// drives IPS with, shaped after the production loads behind the paper's
// evaluation (§IV): Zipf-distributed profile popularity (a few very hot
// users, a long cold tail), a diurnal traffic curve with the sharp peaks
// of the 2020 Spring Festival (Fig. 16), and the ~10:1 read:write mix the
// paper reports (§IV-C).
package workload

import (
	"math"
	"math/rand"

	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/wire"
)

// Options shapes a generator.
type Options struct {
	// Seed makes the workload reproducible.
	Seed int64
	// Profiles is the corpus size (distinct profile IDs).
	Profiles uint64
	// ZipfS is the popularity skew (>1); default 1.2.
	ZipfS float64
	// Features is the feature vocabulary size per slot.
	Features uint64
	// Slots and Types bound the category space.
	Slots, Types uint32
	// Actions is the schema's action count (count-vector width).
	Actions int
	// ReadFraction is the probability a request is a query; default 10:1
	// reads:writes (0.909...).
	ReadFraction float64
	// Windows are the CURRENT spans queries pick from, in milliseconds;
	// default {10m, 1h, 24h, 7d, 30d}.
	Windows []model.Millis
	// TopK is the K used by generated queries; default 20.
	TopK int
}

func (o *Options) fill() {
	if o.Profiles == 0 {
		o.Profiles = 10_000
	}
	if o.ZipfS <= 1 {
		o.ZipfS = 1.2
	}
	if o.Features == 0 {
		o.Features = 10_000
	}
	if o.Slots == 0 {
		o.Slots = 8
	}
	if o.Types == 0 {
		o.Types = 4
	}
	if o.Actions == 0 {
		o.Actions = 3
	}
	if o.ReadFraction == 0 {
		o.ReadFraction = 10.0 / 11.0
	}
	if len(o.Windows) == 0 {
		o.Windows = []model.Millis{
			10 * 60 * 1000, 3_600_000, 24 * 3_600_000,
			7 * 24 * 3_600_000, 30 * 24 * 3_600_000,
		}
	}
	if o.TopK == 0 {
		o.TopK = 20
	}
}

// Generator produces requests.
type Generator struct {
	opts  Options
	rng   *rand.Rand
	zipfP *rand.Zipf // profile popularity
	zipfF *rand.Zipf // feature popularity
}

// New creates a generator.
func New(opts Options) *Generator {
	opts.fill()
	rng := rand.New(rand.NewSource(opts.Seed))
	return &Generator{
		opts:  opts,
		rng:   rng,
		zipfP: rand.NewZipf(rng, opts.ZipfS, 1, opts.Profiles-1),
		zipfF: rand.NewZipf(rng, opts.ZipfS, 1, opts.Features-1),
	}
}

// ProfileID draws a Zipf-popular profile. Draws are rank-ordered —
// profile 1 is the hottest — so "the top P% of the keyspace" is simply
// IDs 1..Profiles*P/100. At the default skew (ZipfS 1.2, 10k profiles)
// the top 1% of profiles absorbs ≈75% of draws; the Zipf-head regression
// test pins that share so a distribution change can't silently reshape
// every contention experiment built on this generator.
func (g *Generator) ProfileID() model.ProfileID {
	return g.zipfP.Uint64() + 1
}

// FeatureID draws a Zipf-popular feature.
func (g *Generator) FeatureID() model.FeatureID {
	return g.zipfF.Uint64() + 1
}

// IsRead draws the read/write coin at the configured mix.
func (g *Generator) IsRead() bool {
	return g.rng.Float64() < g.opts.ReadFraction
}

// WriteEntry builds one add entry stamped at now.
func (g *Generator) WriteEntry(now model.Millis) wire.AddEntry {
	counts := make([]int64, g.opts.Actions)
	// One primary action per event, occasionally more (a like plus a
	// share), matching instance-data shape.
	counts[g.rng.Intn(g.opts.Actions)] = 1
	if g.rng.Float64() < 0.15 {
		counts[g.rng.Intn(g.opts.Actions)] += 1
	}
	return wire.AddEntry{
		Timestamp: now - model.Millis(g.rng.Int63n(30_000)), // ingestion lag ≤30s
		Slot:      g.rng.Uint32() % g.opts.Slots,
		Type:      g.rng.Uint32() % g.opts.Types,
		FID:       g.FeatureID(),
		Counts:    counts,
	}
}

// Query builds one read request mixing windows, sorts and decay the way
// upstream rankers do ("different combinations of filtering, sorting and
// decaying", §II-B2).
func (g *Generator) Query(table string) *wire.QueryRequest {
	req := &wire.QueryRequest{
		Table:     table,
		ProfileID: g.ProfileID(),
		Slot:      g.rng.Uint32() % g.opts.Slots,
		Type:      g.rng.Uint32() % g.opts.Types,
		RangeKind: query.Current,
		Span:      g.opts.Windows[g.rng.Intn(len(g.opts.Windows))],
		SortBy:    query.ByAction,
		K:         g.opts.TopK,
	}
	switch g.rng.Intn(10) {
	case 0, 1: // 20% decay queries
		req.Decay = query.DecayExp
		req.DecayFactor = 0.8
	case 2: // 10% filter queries
		req.MinCount = 2
	case 3: // 10% whole-slot aggregations
		req.AllTypes = true
	}
	return req
}

// Diurnal is a 24-hour traffic curve normalized to [base, 1]: a deep
// trough in the early morning, a morning ramp, and evening peak hours —
// the shape of the Fig. 16/19 load lines.
type Diurnal struct {
	// Base is the trough fraction of peak; default 0.3 (the paper's
	// throughput floor is roughly 30 of the 40M peak... i.e. ~0.75 of
	// 40M; production floors differ per figure, so Base is settable).
	Base float64
	// FestivalBoost multiplies the curve during "festival" days to model
	// the Spring Festival surge; default 1 (off).
	FestivalBoost float64
}

// Intensity returns the relative load in (0, Boost] at a time of day given
// in milliseconds since midnight.
func (d Diurnal) Intensity(msOfDay model.Millis) float64 {
	base := d.Base
	if base <= 0 || base >= 1 {
		base = 0.3
	}
	h := float64(msOfDay%86_400_000) / 3_600_000.0
	// Two-humped curve: lunchtime bump and a taller evening peak at 21h,
	// trough around 4-5am.
	lunch := math.Exp(-sq(h-12.5) / 8)
	evening := math.Exp(-sq(h-21) / 6)
	morningTrough := 1 - 0.9*math.Exp(-sq(h-4.5)/4)
	v := base + (1-base)*clamp01(0.55*lunch+0.95*evening)
	v *= morningTrough
	if v < base*0.1 {
		v = base * 0.1
	}
	boost := d.FestivalBoost
	if boost > 1 {
		v *= boost
	}
	return clampTo(v, 0.01, math.Max(1, boost))
}

func sq(x float64) float64 { return x * x }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func clampTo(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
