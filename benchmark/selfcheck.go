package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is how
// the driver measures spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// selfcheck runs two back-to-back sets of untraced runs of this build,
// set A with seeds 1..runs and set B with the next runs seeds, and
// compares them metric by metric with the bounds in BENCHMARK.json, as
// the driver does for a change against its parent. It prints one row per
// workload and metric and returns the process exit code.
func selfcheck(runs int, seconds float64) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck:", err)
		return 1
	}
	if runs < 2 {
		return fail(fmt.Errorf("-runs %d: quartiles need at least 2 runs", runs))
	}
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	// values[set][workload][metric] lists one value per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, w := range m.Workloads {
			values[set][w.Name] = make(map[string][]float64)
			for i := 0; i < runs; i++ {
				seed := set*runs + i + 1
				out, err := exec.Command(self, "-workload", w.Name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0").Output()
				if err != nil {
					return fail(fmt.Errorf("%s seed %d: %w", w.Name, seed, err))
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fail(fmt.Errorf("%s seed %d: result line: %w", w.Name, seed, err))
				}
				if !res.Correct || res.Failed > 0 {
					return fail(fmt.Errorf("%s seed %d: correct=%v, %d of %d calls failed", w.Name, seed, res.Correct, res.Failed, res.Attempted))
				}
				for name, v := range res.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %c %s seed %d done\n", 'A'+set, w.Name, seed)
			}
		}
	}

	code := 0
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tmedian B\tchange\tspread A\tspread B\tbound\tverdict")
	for _, w := range m.Workloads {
		for _, e := range m.EndToEnd {
			a, b := values[0][w.Name][e.Name], values[1][w.Name][e.Name]
			if len(a) != runs || len(b) != runs {
				return fail(fmt.Errorf("%s: metric %s reported %d and %d times in %d runs", w.Name, e.Name, len(a), len(b), runs))
			}
			ma, mb := median(a), median(b)
			spread := func(v []float64, m float64) float64 {
				q1, q3 := quartiles(v)
				return ratio(q3-q1, m)
			}
			sa, sb := spread(a, ma), spread(b, mb)
			worse := ratio(mb-ma, ma)
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > e.Bound:
				verdict, code = "regressed", 1
			case e.Name != "setup_s" && max(sa, sb) > e.Bound:
				// The driver does not hold setup_s to its spread, only to
				// its medians.
				verdict, code = "unresolved", 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				w.Name, e.Name, e.Unit, ma, mb, 100*ratio(mb-ma, ma), 100*sa, 100*sb, 100*e.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return fail(err)
	}
	return code
}
