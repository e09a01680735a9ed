package main

import (
	"math"
	"testing"
)

// TestSmoke runs every workload end to end at 1/50 scale, untraced and
// traced, with verify and (on ingest) the crash check on, and holds the
// output to BENCHMARK.json: every end-to-end metric in the untraced
// result, every per-layer metric in the traced one, no others, each with
// its unit and a finite value.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight scaled-down benchmark runs")
	}
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	endToEnd := make(map[string]string)
	for _, e := range m.EndToEnd {
		endToEnd[e.Name] = e.Unit
	}
	perLayer := make(map[string]string)
	for _, e := range m.PerLayer {
		perLayer[e.Name] = e.Unit
	}
	for _, mw := range m.Workloads {
		w := findWorkload(mw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", mw.Name)
		}
		for _, traced := range []bool{false, true} {
			want, kind := endToEnd, "end-to-end"
			if traced {
				want, kind = perLayer, "per-layer"
			}
			res, err := run(options{workload: w.scaled(50), seed: 1, seconds: 2, trace: traced, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d calls failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s: %s metric %s is in BENCHMARK.json but was not reported", w.name, kind, name)
				case got.Unit != unit:
					t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", w.name, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.name, name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, got.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s: %s metric %s was reported but is not in BENCHMARK.json", w.name, kind, name)
				}
			}
		}
	}
}

// scaled shrinks a workload for the smoke test: fewer profiles and
// warm-up operations, the same shape.
func (w workload) scaled(div int) workload {
	w.spec.Profiles = max(w.spec.Profiles/div, 8)
	w.warmOps = max(w.warmOps/div, 100)
	w.pacedRate = max(w.pacedRate/float64(div), 50)
	return w
}
