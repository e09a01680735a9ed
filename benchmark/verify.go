package main

import (
	"fmt"

	"ips/benchmark/load"
	"ips/internal/query"
	"ips/internal/server"
	"ips/internal/wire"
)

// verifySamples is how many profiles verify reads back.
const verifySamples = 256

// sampleProfiles picks the profiles the ledger tracks: the lowest IDs
// (the Zipf head, where writes and hot slots concentrate) and an even
// spread over the rest of the ID space.
func sampleProfiles(profiles int) map[uint64]map[featureKey][load.NumActions]int64 {
	n := min(verifySamples, profiles)
	out := make(map[uint64]map[featureKey][load.NumActions]int64, n)
	for i := 0; i < n/2; i++ {
		out[uint64(i+1)] = map[featureKey][load.NumActions]int64{}
	}
	for i := 0; len(out) < n; i++ {
		id := uint64(n/2 + 1 + i*(profiles-n/2)/(n-n/2))
		out[id] = map[featureKey][load.NumActions]int64{}
	}
	return out
}

// verify reads every sampled profile back, undecayed and untruncated over
// a window wider than all history, and compares each feature's action
// sums with the ledger of acknowledged entries. Compaction may move
// counts between slices but must never change a sum.
func verify(inst *server.Instance, spec load.Spec, led *ledger) error {
	inst.MergeAll()
	led.mu.Lock()
	defer led.mu.Unlock()
	for id, want := range led.sample {
		got := make(map[featureKey][load.NumActions]int64, len(want))
		for slot := uint32(0); slot < spec.Slots; slot++ {
			resp, err := inst.Query(&wire.QueryRequest{
				Caller: callerName, Table: tableName, ProfileID: id,
				Slot: slot, AllTypes: true,
				RangeKind: query.Current, Span: 2 * load.HistoryDays * load.DayMs,
				SortBy: query.ByFeatureID,
			})
			if err != nil {
				return fmt.Errorf("verify: profile %d slot %d: %w", id, slot, err)
			}
			for _, f := range resp.Features {
				var c [load.NumActions]int64
				copy(c[:], f.Counts)
				got[featureKey{slot, f.FID}] = c
			}
		}
		if len(got) != len(want) {
			return fmt.Errorf("verify: profile %d has %d features, ledger has %d", id, len(got), len(want))
		}
		for k, w := range want {
			if g := got[k]; g != w {
				return fmt.Errorf("verify: profile %d slot %d fid %d: counts %v, ledger %v", id, k.slot, k.fid, g, w)
			}
		}
	}
	return nil
}
