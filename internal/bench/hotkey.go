// Hot-key contention experiment (batch architecture v2): quantifies two
// server-side defenses against Zipf-headed read storms — single-flight
// cache fills and replicated hot-profile read slots.
package bench

import (
	"context"
	"io"
	"sort"
	"sync"
	"time"

	"ips/internal/config"
	"ips/internal/gcache"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/persist"
	"ips/internal/query"
	"ips/internal/wire"
)

// HotkeyOptions scales the hot-key experiment.
type HotkeyOptions struct {
	// ColdKeys is the distinct cold profiles the single-flight phase
	// storms; default 32.
	ColdKeys int
	// ReadersPerKey is the concurrent readers aimed at each cold key;
	// default 8.
	ReadersPerKey int
	// Readers is the concurrent reader goroutines in the hot-slot phase;
	// default 8.
	Readers int
	// ReadsPerReader is each reader's operation count; default 2000.
	ReadsPerReader int
	// Profiles is the keyspace of the hot-slot phase; default 256.
	Profiles int
	// WritesPerProfile seeds history; default 48 (rich profiles so
	// responses carry a realistic feature count).
	WritesPerProfile int
	// HotSlots / HotPromoteAfter configure the treatment cache; defaults
	// 8 and 16.
	HotSlots, HotPromoteAfter int
}

func (o *HotkeyOptions) fill() {
	if o.ColdKeys <= 0 {
		o.ColdKeys = 32
	}
	if o.ReadersPerKey <= 0 {
		o.ReadersPerKey = 8
	}
	if o.Readers <= 0 {
		o.Readers = 8
	}
	if o.ReadsPerReader <= 0 {
		o.ReadsPerReader = 2000
	}
	if o.Profiles <= 0 {
		o.Profiles = 256
	}
	if o.WritesPerProfile <= 0 {
		o.WritesPerProfile = 48
	}
	if o.HotSlots <= 0 {
		o.HotSlots = 8
	}
	if o.HotPromoteAfter <= 0 {
		// Above the per-key read count of the storm's uniform tail, so
		// only the Zipf head promotes and promotion stays off the
		// common path.
		o.HotPromoteAfter = 32
	}
}

// HotkeyReport is the measured result of both phases.
type HotkeyReport struct {
	// Phase A: single-flight.
	ColdKeys          int
	KVReadsPerColdKey float64 // the claim: exactly 1
	LoadWaits         int64   // requests that shared another's load

	// Phase B: hot-slot p99 under a Zipf-headed read storm with
	// interleaved writes.
	BaseAvg, BaseP99 time.Duration // HotSlots = 0
	HotAvg, HotP99   time.Duration // HotSlots on
	HotHits          int64
	HotPromotions    int64
}

// RunHotkey measures the hot-key defenses end to end. Phase A storms
// cold keys through a deliberately slow store and counts KV reads per
// key — single-flight makes it exactly one however many readers collide.
// Phase B aims a Zipf-headed read storm with interleaved writes at one
// instance twice — hot slots off, then on — and compares read p99.
func RunHotkey(opts HotkeyOptions, w io.Writer) (*HotkeyReport, error) {
	opts.fill()
	rep := &HotkeyReport{ColdKeys: opts.ColdKeys}

	if err := runHotkeySingleFlight(opts, rep); err != nil {
		return nil, err
	}
	if err := runHotkeySlots(opts, rep); err != nil {
		return nil, err
	}

	fprintf(w, "Hot-key contention — batch architecture v2\n\n")
	fprintf(w, "single-flight: %d cold keys x %d concurrent readers -> %.2f KV reads/key (%d loads shared)\n",
		rep.ColdKeys, opts.ReadersPerKey, rep.KVReadsPerColdKey, rep.LoadWaits)
	fprintf(w, "\nhot slots (%d readers x %d reads, Zipf head, writer interleaved):\n", opts.Readers, opts.ReadsPerReader)
	fprintf(w, "%-22s %-12s %-12s\n", "mode", "avg", "p99")
	fprintf(w, "%-22s %-12s %-12s\n", "baseline (0 slots)", ms(rep.BaseAvg), ms(rep.BaseP99))
	fprintf(w, "%-22s %-12s %-12s  hits=%d promotions=%d\n", "hot slots", ms(rep.HotAvg), ms(rep.HotP99), rep.HotHits, rep.HotPromotions)
	fprintf(w, "\nshape: one KV read per cold key regardless of reader count; hot-slot p99 at or\n")
	fprintf(w, "below baseline under contention\n")
	return rep, nil
}

// runHotkeySingleFlight is phase A: all readers of a cold key released at
// once against a slow store; single-flight must collapse them to one
// storage read per key.
func runHotkeySingleFlight(opts HotkeyOptions, rep *HotkeyReport) error {
	store := kv.NewMemory()
	schema := model.NewSchema("like", "comment", "share")
	ps := persist.New(store, TableName)

	seed, err := gcache.New(model.NewTable(TableName, schema, 1000), ps, gcache.Options{})
	if err != nil {
		return err
	}
	for id := model.ProfileID(1); id <= model.ProfileID(opts.ColdKeys); id++ {
		if err := seed.Add(id, 5000, 1, 1, model.FeatureID(id%50+1), []int64{1, 0, 0}); err != nil {
			return err
		}
	}
	if err := seed.FlushAll(); err != nil {
		return err
	}

	g, err := gcache.New(model.NewTable(TableName, schema, 1000), ps, gcache.Options{})
	if err != nil {
		return err
	}
	// A slow store widens the window misses must collide in, modelling
	// the 2-4ms KV round trip of Table II.
	store.BeforeOp = func(op, key string) {
		if op == "get" {
			time.Sleep(2 * time.Millisecond)
		}
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, opts.ColdKeys*opts.ReadersPerKey)
	for id := model.ProfileID(1); id <= model.ProfileID(opts.ColdKeys); id++ {
		for r := 0; r < opts.ReadersPerKey; r++ {
			wg.Add(1)
			go func(id model.ProfileID) {
				defer wg.Done()
				<-start
				if _, _, _, err := g.GetForRead(context.Background(), id); err != nil {
					errCh <- err
				}
			}(id)
		}
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	st := g.Stats()
	rep.KVReadsPerColdKey = float64(g.Loads.Value()) / float64(opts.ColdKeys)
	rep.LoadWaits = st.LoadWaits
	return nil
}

// hotkeyQuery is the fixed read the hot-slot storm issues.
func hotkeyQuery(id model.ProfileID) *wire.QueryRequest {
	return &wire.QueryRequest{
		Caller: "bench", Table: TableName, ProfileID: id, Slot: 1, Type: 1,
		RangeKind: query.Current, Span: 24 * 3_600_000,
		SortBy: query.ByAction, Action: "like", K: 50,
	}
}

// runHotkeySlots is phase B: the same Zipf-headed read storm with an
// interleaved writer, served twice — without and with hot slots.
func runHotkeySlots(opts HotkeyOptions, rep *HotkeyReport) error {
	// Write isolation off: writes journal and apply under the profile's
	// exclusive lock, the §III-F contention hot slots exist to shield
	// readers from. Baseline readers of a head key stall behind every
	// write's lock hold; hot-slot readers keep serving the pre-write
	// replica until the write acks (invalidation is the last step before
	// ack), so the same storm misses the stall entirely.
	cfg := config.Default()
	cfg.WriteIsolation = false
	run := func(cache gcache.Options) ([]time.Duration, gcache.Stats, error) {
		env, err := NewEnv(EnvOptions{Cache: cache, Config: &cfg})
		if err != nil {
			return nil, gcache.Stats{}, err
		}
		defer env.Close()
		if err := env.Prefill(opts.Profiles, opts.WritesPerProfile, 24*3_600_000); err != nil {
			return nil, gcache.Stats{}, err
		}

		stop := make(chan struct{})
		var writerWg sync.WaitGroup
		writerWg.Add(1)
		go func() { // writer hammering the Zipf head: exclusive-lock pressure
			defer writerWg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := model.ProfileID(i%4 + 1)
				// A batched add lengthens the exclusive-lock section —
				// the contention baseline readers feel and hot-slot
				// readers dodge.
				entries := make([]wire.AddEntry, 64)
				for j := range entries {
					entries[j] = wire.AddEntry{
						Timestamp: env.Clock.Now() - 1000, Slot: 1, Type: 1,
						FID: model.FeatureID((i*64+j)%50 + 1), Counts: []int64{1, 0, 0},
					}
				}
				_ = env.Instance.Add("bench", TableName, id, entries)
				i++
				time.Sleep(2 * time.Millisecond)
			}
		}()

		// Exact samples, not the log-bucketed metrics.Histogram: the
		// tail difference under test is finer than a bucket.
		var mu sync.Mutex
		lat := make([]time.Duration, 0, opts.Readers*opts.ReadsPerReader)
		var readerWg sync.WaitGroup
		errCh := make(chan error, opts.Readers)
		for r := 0; r < opts.Readers; r++ {
			readerWg.Add(1)
			go func(r int) {
				defer readerWg.Done()
				for i := 0; i < opts.ReadsPerReader; i++ {
					// Zipf-ish head focus without a shared generator:
					// 3 of 4 reads hit the 4-key head, the rest spread.
					id := model.ProfileID(i%4 + 1)
					if i%4 == 3 {
						id = model.ProfileID((i*7+r)%opts.Profiles + 1)
					}
					t0 := time.Now()
					if _, err := env.Instance.Query(hotkeyQuery(id)); err != nil {
						errCh <- err
						return
					}
					d := time.Since(t0)
					mu.Lock()
					lat = append(lat, d)
					mu.Unlock()
				}
			}(r)
		}
		readerWg.Wait()
		close(stop)
		writerWg.Wait()
		close(errCh)
		for err := range errCh {
			return nil, gcache.Stats{}, err
		}
		cs, err := env.Instance.CacheStats(TableName)
		if err != nil {
			return nil, gcache.Stats{}, err
		}
		return lat, cs, nil
	}

	// Three interleaved trials per mode, medians reported: a single
	// trial on a busy box is hostage to scheduler drift, and
	// interleaving keeps slow minutes from charging one mode only.
	const trials = 3
	var baseAvg, baseP99, hotAvg, hotP99 []time.Duration
	var cs gcache.Stats
	for i := 0; i < trials; i++ {
		base, _, err := run(gcache.Options{})
		if err != nil {
			return err
		}
		a, p := exactMeanP99(base)
		baseAvg, baseP99 = append(baseAvg, a), append(baseP99, p)

		hot, s, err := run(gcache.Options{HotSlots: opts.HotSlots, HotPromoteAfter: opts.HotPromoteAfter})
		if err != nil {
			return err
		}
		a, p = exactMeanP99(hot)
		hotAvg, hotP99 = append(hotAvg, a), append(hotP99, p)
		cs.HotHits += s.HotHits
		cs.HotPromotions += s.HotPromotions
	}
	rep.BaseAvg, rep.BaseP99 = median(baseAvg), median(baseP99)
	rep.HotAvg, rep.HotP99 = median(hotAvg), median(hotP99)
	rep.HotHits, rep.HotPromotions = cs.HotHits, cs.HotPromotions
	return nil
}

// median returns the middle value of an odd-length sample set.
func median(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// exactMeanP99 computes the mean and the exact (sorted-sample) p99.
func exactMeanP99(samples []time.Duration) (mean, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return sum / time.Duration(len(sorted)), sorted[len(sorted)*99/100]
}
