package main

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"ips/benchmark/load"
)

// streamHash digests the first operations of a workload's request stream
// and two profiles' prefilled history. The generator's types are the
// benchmark's own, so the digest moves only when the stream does.
func streamHash(spec load.Spec, seed int64) string {
	h := sha256.New()
	g := load.New(spec, seed, 0)
	var op load.Op
	for i := 0; i < 5000; i++ {
		g.Next(&op)
		fmt.Fprintf(h, "%d %+v %d %+v %+v %.9f\n", op.Kind, op.Query, op.Profile, op.Entries, op.Subs, g.Gap(1000))
	}
	spec.PrefillEntries = min(spec.PrefillEntries, 300)
	for _, id := range []uint64{1, uint64(spec.Profiles)} {
		fmt.Fprintf(h, "%+v\n", load.Prefill(spec, seed, id))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestRequestStreamsArePinned fails when a change moves any workload's
// inputs: the same seed must give the same bytes, on every machine and
// after every later PR. If the change is deliberate it re-bases every
// number measured so far; say so and update the digests.
func TestRequestStreamsArePinned(t *testing.T) {
	want := map[string]string{
		"hot_read":  "c2be7f7382d9206e",
		"scan_read": "5efd44394acbcb20",
		"cold_read": "e7e9f50aad803411",
		"ingest":    "4234a66d81dd5b6c",
	}
	for _, w := range workloads {
		got := streamHash(w.spec, 1)
		if again := streamHash(w.spec, 1); again != got {
			t.Errorf("%s: same seed gave %s then %s", w.name, got, again)
		}
		if other := streamHash(w.spec, 2); other == got {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
		if got != want[w.name] {
			t.Errorf("%s: stream digest %s, pinned %s", w.name, got, want[w.name])
		}
	}
}
