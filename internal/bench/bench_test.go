package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRunFig10(t *testing.T) {
	var buf bytes.Buffer
	rep, err := RunFig10(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Before) != 6 || len(rep.After) != 3 {
		t.Fatalf("slices %d -> %d, want 6 -> 3", len(rep.Before), len(rep.After))
	}
	if rep.CountBefore != rep.CountAfter {
		t.Fatalf("compaction lost data: %d -> %d", rep.CountBefore, rep.CountAfter)
	}
	if !strings.Contains(buf.String(), "Fig. 10") {
		t.Fatal("report text missing")
	}
}

func TestRunFig11(t *testing.T) {
	rep, err := RunFig11(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Before) != 8 || len(rep.After) != 5 {
		t.Fatalf("slices %d -> %d, want 8 -> 5", len(rep.Before), len(rep.After))
	}
}

func TestRunFig16Small(t *testing.T) {
	rep, err := RunFig16(Fig16Options{Hours: 4, PeakQueriesPerHour: 150, Profiles: 100, WritesPerProfile: 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 4 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Throughput <= 0 || p.P50 <= 0 || p.P99 < p.P50 {
			t.Fatalf("bad point: %+v", p)
		}
	}
}

func TestRunFig17Small(t *testing.T) {
	rep, err := RunFig17(Fig17Options{Days: 2, RequestsPerDay: 200, Regions: 2, InstancesPerRegion: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	if rep.SLA < 0.9 {
		t.Fatalf("SLA = %v; cluster badly broken", rep.SLA)
	}
}

func TestRunTab2Small(t *testing.T) {
	rep, err := RunTab2(Tab2Options{Queries: 60, Profiles: 120, StoreDelay: 2 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("cells = %d", len(rep.Cells))
	}
	// The defining shape: misses cost more than hits on both sides.
	var ch, cm, sh, sm time.Duration
	for _, c := range rep.Cells {
		switch c.Side + "/" + c.Kind {
		case "client/hit":
			ch = c.Avg
		case "client/miss":
			cm = c.Avg
		case "server/hit":
			sh = c.Avg
		case "server/miss":
			sm = c.Avg
		}
	}
	if cm <= ch || sm <= sh {
		t.Fatalf("miss not slower than hit: client %v/%v server %v/%v", ch, cm, sh, sm)
	}
	if rep.HitSavingsAvg < time.Millisecond {
		t.Fatalf("hit savings = %v, want >= injected store delay", rep.HitSavingsAvg)
	}
}

func TestRunFig18Small(t *testing.T) {
	rep, err := RunFig18(Fig18Options{Ticks: 6, RequestsPerTick: 800, Profiles: 3000, MemLimit: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalHitRatio < 0.5 {
		t.Fatalf("hit ratio = %v; Zipf cache behaviour broken", rep.FinalHitRatio)
	}
}

func TestRunFig19Small(t *testing.T) {
	rep, err := RunFig19(Fig19Options{Hours: 3, PeakWritesPerHour: 100, Profiles: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	if rep.ReadWriteRatio < 2 {
		t.Fatalf("read:write = %v; mix generation broken", rep.ReadWriteRatio)
	}
}

func TestRunIso80Small(t *testing.T) {
	rep, err := RunIso80(Iso80Options{Requests: 4000, Profiles: 50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Off.WriteP99 <= 0 || rep.On.WriteP99 <= 0 {
		t.Fatalf("missing measurements: %+v", rep)
	}
}

func TestRunCompactionSmall(t *testing.T) {
	rep, err := RunCompaction(CompactionOptions{Weeks: 8, EventsPerDay: 48, ActiveDaysPerWeek: 3, ShrinkRetain: 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReductionFactor < 2 {
		t.Fatalf("reduction = %.1fx; maintenance ineffective", rep.ReductionFactor)
	}
	if rep.MaintainedSlices >= rep.RawSlices {
		t.Fatalf("slices %d vs raw %d", rep.MaintainedSlices, rep.RawSlices)
	}
}

func TestEnvPrefillAndClose(t *testing.T) {
	env, err := NewEnv(EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if err := env.Prefill(10, 5, 3_600_000); err != nil {
		t.Fatal(err)
	}
	st := env.Instance.Stats()
	if st.Profiles != 10 {
		t.Fatalf("profiles = %d, want 10", st.Profiles)
	}
}

func TestRunLambdaSmall(t *testing.T) {
	rep, err := RunLambda(LambdaOptions{Users: 30, Days: 10, ClicksPerUserPerDay: 15, ShortCapacity: 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// IPS must answer the window (near-)exactly; both legacy paths lose.
	if rep.WindowRecallIPS < 0.999 {
		t.Fatalf("IPS recall = %v, want ~1.0", rep.WindowRecallIPS)
	}
	if rep.WindowRecallShort >= rep.WindowRecallIPS {
		t.Fatalf("short recall %v should trail IPS %v", rep.WindowRecallShort, rep.WindowRecallIPS)
	}
	if rep.WindowRecallLong >= rep.WindowRecallIPS {
		t.Fatalf("long recall %v should trail IPS %v", rep.WindowRecallLong, rep.WindowRecallIPS)
	}
	// The long path cannot scope to the window: it reports counts from
	// outside it (days 8-10 of history).
	if rep.WindowExcessLong <= 0 {
		t.Fatalf("long excess = %v, want > 0 (all-history overcount)", rep.WindowExcessLong)
	}
	// Freshness: IPS within seconds, legacy waits for the nightly batch.
	if rep.FreshnessIPSMillis <= 0 || rep.FreshnessIPSMillis > 60_000 {
		t.Fatalf("IPS freshness = %dms", rep.FreshnessIPSMillis)
	}
	if rep.FreshnessLegacyMillis < 3_600_000 {
		t.Fatalf("legacy freshness = %dms, want >= hours", rep.FreshnessLegacyMillis)
	}
	// Legacy short path joins per click; the batch rescans history.
	if rep.LookupsPerShortQuery < 1 {
		t.Fatalf("lookups/query = %v", rep.LookupsPerShortQuery)
	}
	if rep.BatchEventsScanned == 0 {
		t.Fatal("batch scanned nothing")
	}
}

func TestRunMigrateSmall(t *testing.T) {
	rep, err := RunMigrate(MigrateOptions{
		Instances: 2, Profiles: 64, Workers: 2, SteadyOps: 400,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The workload must never see an error while ownership moves: the
	// dual-read/dual-write window is exactly what makes resharding
	// invisible to callers.
	for _, ph := range []MigratePhase{rep.Steady, rep.Join, rep.Drain} {
		if ph.Errors != 0 {
			t.Fatalf("%s phase saw %d errors", ph.Name, ph.Errors)
		}
		if ph.Reads == 0 {
			t.Fatalf("%s phase sampled no reads", ph.Name)
		}
	}
	if rep.JoinMoves == 0 || rep.DrainMoves == 0 {
		t.Fatalf("resharding moved nothing: join=%d drain=%d", rep.JoinMoves, rep.DrainMoves)
	}
	// Latency is logged, not gated: CI boxes are too noisy at this scale
	// for a stable p99 assertion — ips-bench -exp migrate prints the
	// acceptance ratio at full scale.
	t.Logf("steady p99=%v join p99=%v drain p99=%v ratio=%.3f (floor %v)",
		rep.Steady.P99, rep.Join.P99, rep.Drain.P99, rep.P99Ratio, rep.Floor)
}

func TestRunSubscribeSmall(t *testing.T) {
	rep, err := RunSubscribe(SubscribeOptions{
		Queries: 600, Events: 40, Measured: 16,
		PollInterval: 40 * time.Millisecond, ChurnPerEvent: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Conservation: every tagged write observed, delivered streams gapless.
	if rep.Lost != 0 || rep.SeqGaps != 0 {
		t.Fatalf("lost=%d seq_gaps=%d, want 0/0", rep.Lost, rep.SeqGaps)
	}
	// The defining shape: a pushed update beats the poll loop's median
	// (which pays ~interval/2 staleness before it even issues the read).
	t.Logf("push p50=%v p99=%v; poll p50=%v p99=%v; push evals=%d poll reads=%d",
		rep.PushP50, rep.PushP99, rep.PollP50, rep.PollP99, rep.PushEvals, rep.PollReads)
	if rep.PushP50 >= rep.PollP50 {
		t.Fatalf("push median %v not below poll median %v", rep.PushP50, rep.PollP50)
	}
	if rep.Pushes == 0 || rep.PushEvals == 0 {
		t.Fatalf("hub idle: pushes=%d evals=%d", rep.Pushes, rep.PushEvals)
	}
}
