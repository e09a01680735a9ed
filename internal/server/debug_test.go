package server

import (
	"bufio"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"ips/internal/config"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/trace"
	"ips/internal/wire"
)

// newTracedInstance builds an instance that samples every request and
// retains everything in the slow log.
func newTracedInstance(t testing.TB) (*Instance, *simClock) {
	t.Helper()
	cfg := config.Default()
	cfg.WriteIsolation = false
	store, err := config.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clock := &simClock{now: 1_000_000_000}
	in, err := New(Options{
		Name:   "ips-debug-0",
		Region: "east",
		Store:  kv.NewMemory(),
		Config: store,
		Clock:  clock.Now,
		Tracer: trace.NewTracer(trace.Config{SampleEvery: 1, SlowThreshold: time.Nanosecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	if err := in.CreateTable("up", model.NewSchema("like", "share")); err != nil {
		t.Fatal(err)
	}
	return in, clock
}

// runTraced pushes one write and one query through the instance under a
// sampled trace, finishing it so the tracer aggregates and retains it.
func runTraced(t testing.TB, in *Instance, clock *simClock) {
	t.Helper()
	now := clock.Now()
	ctx, tr := in.Tracer().StartRequest(context.Background())
	if tr == nil {
		t.Fatal("SampleEvery=1 tracer did not sample")
	}
	ctx, root := trace.StartSpan(ctx, trace.StageServerDispatch)
	err := in.AddCtx(ctx, "test", "up", 7, []wire.AddEntry{
		{Timestamp: now - 1000, Slot: 1, Type: 1, FID: 100, Counts: []int64{5, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = in.QueryCtx(ctx, &wire.QueryRequest{
		Caller: "test", Table: "up", ProfileID: 7,
		Slot: 1, Type: 1,
		RangeKind: query.Current, Span: 60_000,
		SortBy: query.ByAction, Action: "like", K: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	in.Tracer().Done(tr)
}

func TestDebugSnapshotSections(t *testing.T) {
	in, clock := newTracedInstance(t)
	runTraced(t, in, clock)
	d := NewDebugServer(in)

	get := func(cmd string) string {
		var b strings.Builder
		if err := d.WriteSnapshot(&b, cmd); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		return b.String()
	}

	if out := get("stats"); !strings.Contains(out, "instance ips-debug-0") ||
		!strings.Contains(out, "queries=1") ||
		!strings.Contains(out, "rpc: frames_out=") || !strings.Contains(out, "frames_per_write=") {
		t.Fatalf("stats output missing fields:\n%s", out)
	}
	out := get("stages")
	if !strings.Contains(out, "traces sampled: 1") {
		t.Fatalf("stages output missing trace count:\n%s", out)
	}
	// The traced query must have attributed at least the dispatch and
	// cache stages; untouched stages render the explicit empty marker.
	for _, stage := range []string{"server.dispatch", "cache.get", "cache.compute"} {
		if !strings.Contains(out, stage) {
			t.Fatalf("stages output missing %s:\n%s", stage, out)
		}
	}
	if !strings.Contains(out, "n=0 (no samples)") {
		t.Fatalf("stages output should mark untouched stages n=0:\n%s", out)
	}
	if out := get("slow"); !strings.Contains(out, "slow queries: 1 seen") ||
		!strings.Contains(out, "server.dispatch") {
		t.Fatalf("slow output missing retained trace:\n%s", out)
	}
	if out := get("trace"); !strings.Contains(out, "trace 0x") ||
		!strings.Contains(out, "cache.get") {
		t.Fatalf("trace output missing span tree:\n%s", out)
	}
	if out := get("all"); !strings.Contains(out, "instance ips-debug-0") ||
		!strings.Contains(out, "traces sampled") || !strings.Contains(out, "slow queries") {
		t.Fatalf("all output missing sections:\n%s", out)
	}
	var b strings.Builder
	if err := d.WriteSnapshot(&b, "bogus"); err == nil {
		t.Fatal("unknown command should error")
	}
	if !strings.Contains(b.String(), "unknown command") {
		t.Fatalf("unknown command output = %q", b.String())
	}
}

// TestDebugSnapshotUntraced covers the surface on an instance with no
// tracer: every command must still answer.
func TestDebugSnapshotUntraced(t *testing.T) {
	in, _ := newInstance(t, nil)
	d := NewDebugServer(in)
	out := map[string]string{}
	for _, cmd := range DebugCommands {
		var b strings.Builder
		if err := d.WriteSnapshot(&b, cmd); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		out[cmd] = b.String()
	}
	if !strings.Contains(out["stages"], "tracing disabled") {
		t.Fatalf("stages without tracer = %q", out["stages"])
	}
	if !strings.Contains(out["slow"], "slow-query log empty") {
		t.Fatalf("slow without tracer = %q", out["slow"])
	}
	if !strings.Contains(out["trace"], "no sampled trace") {
		t.Fatalf("trace without tracer = %q", out["trace"])
	}
}

// TestDebugTCP exercises the one-command-per-connection protocol over a
// real socket, the way ips-cli debug and netcat reach it.
func TestDebugTCP(t *testing.T) {
	in, clock := newTracedInstance(t)
	runTraced(t, in, clock)
	d := NewDebugServer(in)
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ask := func(cmd string) string {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteByte('\n')
		}
		return b.String()
	}

	if out := ask("stages"); !strings.Contains(out, "traces sampled: 1") {
		t.Fatalf("stages over TCP:\n%s", out)
	}
	if out := ask("help"); !strings.Contains(out, "ips debug commands") {
		t.Fatalf("help over TCP:\n%s", out)
	}
	// An empty line (bare newline from `nc`) answers with help too.
	if out := ask(""); !strings.Contains(out, "ips debug commands") {
		t.Fatalf("empty command over TCP:\n%s", out)
	}
}
