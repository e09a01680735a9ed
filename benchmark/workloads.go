package main

import "ips/benchmark/load"

// workload is one fixed set of inputs. Every size below is a constant of
// the yardstick: changing one re-bases every number measured with it.
type workload struct {
	name string
	spec load.Spec
	// warmOps closed-loop operations run before anything is timed; they
	// are part of set-up, so their cost shows in setup_s.
	warmOps int
	// pacedRate is the open loop's fixed arrival rate in calls per second,
	// about a tenth of the seed tree's saturated ops_per_s (README.md has
	// the figures it was derived from, and why not more).
	pacedRate float64
}

// The feature space shared by the point-read workloads: entries spread
// over 2 slots x 2 types, so a point read touches about a quarter of a
// profile and an all-types read about half.
const (
	pointSlots = 2
	pointTypes = 2
	pointFIDs  = 2000
)

var workloads = []workload{
	{
		// 2,048 x ~17 KB decoded is ~34 MiB, half of MemLimit: everything
		// stays resident and the Zipf head is promoted to hot slots.
		name: "hot_read",
		spec: load.Spec{
			Profiles: 2048, ZipfS: 1.2, PrefillEntries: 100,
			Slots: pointSlots, Types: pointTypes, FIDs: pointFIDs,
		},
		warmOps:   40_000,
		pacedRate: 6_000,
	},
	{
		// 8 x 10,000 distinct features (~0.9 MB decoded each; with the four
		// hot-slot clones of each, ~35 MiB) stay resident with room to spare:
		// at 12 the cache ran within a fifth of MemLimit, and a prefill whose
		// merge and compaction copies crossed it started evicting the very
		// profiles being read. One slot, so an all-types read walks every
		// feature of the profile.
		name: "scan_read",
		spec: load.Spec{
			Profiles: 8, Scan: true, PrefillEntries: 10_000,
			Slots: 1, Types: 2, FIDs: 1 << 40,
		},
		warmOps:   2_000,
		pacedRate: 300,
	},
	{
		// 16,384 x ~31 KB decoded is 8x MemLimit and, compressed, 4x
		// WarmLimit; read uniformly, so most reads inflate a warm blob or
		// load from the store.
		name: "cold_read",
		spec: load.Spec{
			Profiles: 16384, PrefillEntries: 200,
			Slots: pointSlots, Types: pointTypes, FIDs: pointFIDs,
		},
		warmOps:   10_000,
		pacedRate: 650,
	},
	{
		// 4,096 x ~6 KB stays resident while the writes grow it; the Zipf
		// head takes most adds and most of each batch's sub-queries.
		name: "ingest",
		spec: load.Spec{
			Profiles: 4096, ZipfS: 1.2, AddShare: 0.8, BatchShare: 0.2, BatchSize: 16,
			PrefillEntries: 24,
			Slots:          pointSlots, Types: pointTypes, FIDs: pointFIDs,
		},
		warmOps:   5_000,
		pacedRate: 300,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
