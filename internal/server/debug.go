package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"

	"ips/internal/rpc"
	"ips/internal/trace"
)

// DebugServer is the operator debug surface of one instance: a plain-text
// snapshot of the tracer's per-stage latency attribution (§IV latency
// breakdown), the slow-query log, the last sampled span tree, and the
// instance counters. It speaks one-command-per-connection TCP — dial,
// send a command line, read the response until EOF — so a bare
// `ips-cli debug` or `echo stages | nc host port` both work. Stdlib only;
// no HTTP, no new dependencies.
//
// The surface is read-only and allocates nothing on the serving path
// beyond the rendered snapshot, so leaving it enabled in production costs
// one idle goroutine.
type DebugServer struct {
	in *Instance

	mu sync.Mutex
	ln net.Listener
	wg sync.WaitGroup
}

// NewDebugServer wraps in. The instance's tracer (possibly nil — then
// stage output reports tracing disabled) supplies all trace-derived
// sections.
func NewDebugServer(in *Instance) *DebugServer {
	return &DebugServer{in: in}
}

// DebugCommands lists every command WriteSnapshot accepts, in help order.
var DebugCommands = []string{"help", "stats", "stages", "slow", "trace", "all"}

// WriteSnapshot renders one debug command to w. Unknown commands render
// the help text with an error line and return a non-nil error.
func (d *DebugServer) WriteSnapshot(w io.Writer, cmd string) error {
	switch strings.TrimSpace(cmd) {
	case "", "help":
		d.writeHelp(w)
	case "stats":
		d.writeStats(w)
	case "stages":
		d.writeStages(w)
	case "slow":
		d.writeSlow(w)
	case "trace":
		d.writeTrace(w)
	case "all":
		d.writeStats(w)
		fmt.Fprintln(w)
		d.writeStages(w)
		fmt.Fprintln(w)
		d.writeSlow(w)
		fmt.Fprintln(w)
		d.writeTrace(w)
	default:
		fmt.Fprintf(w, "unknown command %q\n", strings.TrimSpace(cmd))
		d.writeHelp(w)
		return fmt.Errorf("debug: unknown command %q", strings.TrimSpace(cmd))
	}
	return nil
}

func (d *DebugServer) writeHelp(w io.Writer) {
	fmt.Fprintln(w, "ips debug commands (one per connection):")
	fmt.Fprintln(w, "  help    this text")
	fmt.Fprintln(w, "  stats   instance counters (profiles, queries, writes, hit ratio)")
	fmt.Fprintln(w, "  stages  per-stage latency histograms from the request tracer")
	fmt.Fprintln(w, "  slow    retained slow-query span trees, oldest first")
	fmt.Fprintln(w, "  trace   the most recently sampled request's span tree")
	fmt.Fprintln(w, "  all     everything above")
}

func (d *DebugServer) writeStats(w io.Writer) {
	st := d.in.Stats()
	fmt.Fprintf(w, "instance %s region %s\n", st.Name, st.Region)
	fmt.Fprintf(w, "profiles=%d mem=%dB hit=%.1f%%\n", st.Profiles, st.MemUsage, st.HitRatioPct)
	fmt.Fprintf(w, "queries=%d writes=%d rejected=%d flush_errors=%d\n",
		st.Queries, st.Writes, st.Rejected, st.FlushErrors)
	fmt.Fprintf(w, "migrate: out=%d in=%d marked=%d released=%d bytes_out=%d bytes_in=%d\n",
		d.in.MigratedOut.Value(), d.in.MigratedIn.Value(), d.in.MigrateMarked.Value(),
		d.in.MigrateReleased.Value(), d.in.MigrateBytesOut.Value(), d.in.MigrateBytesIn.Value())
	h := d.in.Hub()
	fmt.Fprintf(w, "sub: active=%d watched=%d evals=%d eval_errors=%d skips=%d pushes=%d drops=%d resyncs=%d push_p99=%v\n",
		h.Active.Value(), h.Watched.Value(), h.Evals.Value(), h.EvalErrs.Value(),
		h.Skips.Value(), h.Pushes.Value(), h.Drops.Value(), h.Resyncs.Value(),
		h.NotifyLat.Quantile(0.99))
	wire := rpc.IOStats()
	fmt.Fprintf(w, "rpc: frames_out=%d frames_in=%d bytes_out=%d bytes_in=%d writes=%d reads=%d frames_per_write=%.2f frames_per_read=%.2f\n",
		wire.FramesWritten, wire.FramesRead, wire.BytesWritten, wire.BytesRead, wire.Writes, wire.Reads,
		perSyscall(wire.FramesWritten, wire.Writes), perSyscall(wire.FramesRead, wire.Reads))
	tables := d.in.Tables()
	sort.Strings(tables)
	for _, tbl := range tables {
		cs, err := d.in.CacheStats(tbl)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "table %s: load_waits=%d hot_resident=%d hot_hits=%d hot_promotions=%d hot_invalidations=%d\n",
			tbl, cs.LoadWaits, cs.HotResident, cs.HotHits, cs.HotPromotions, cs.HotInvalidations)
		fmt.Fprintf(w, "table %s tiers: warm_usage=%dB warm_resident=%d demotions=%d warm_hits=%d warm_misses=%d warm_evictions=%d shard_scans=%d\n",
			tbl, cs.WarmUsage, cs.WarmResident, cs.Demotions, cs.WarmHits, cs.WarmMisses, cs.WarmEvictions, cs.ShardScans)
	}
}

// perSyscall is frames per write (or read) syscall: 1.0 means no
// batching, N means N pipelined frames shared each syscall.
func perSyscall(frames, syscalls uint64) float64 {
	if syscalls == 0 {
		return 0
	}
	return float64(frames) / float64(syscalls)
}

func (d *DebugServer) writeStages(w io.Writer) {
	tr := d.in.Tracer()
	if tr == nil {
		fmt.Fprintln(w, "tracing disabled (start ipsd with -trace-sample N)")
		return
	}
	tr.Stats().Format(w)
}

func (d *DebugServer) writeSlow(w io.Writer) {
	entries, seen := d.in.Tracer().SlowDump()
	if seen == 0 {
		fmt.Fprintln(w, "slow-query log empty")
		return
	}
	fmt.Fprintf(w, "slow queries: %d seen, %d retained\n", seen, len(entries))
	// Oldest first as SlowDump returns them; a duration index up front so
	// an operator can spot the worst retained trace without scrolling.
	worst := 0
	for i, e := range entries {
		if e.Total > entries[worst].Total {
			worst = i
		}
	}
	fmt.Fprintf(w, "worst retained: trace %#x total=%v\n", entries[worst].TraceID, entries[worst].Total)
	for _, e := range entries {
		io.WriteString(w, e.Rendered)
	}
}

func (d *DebugServer) writeTrace(w io.Writer) {
	tr := d.in.Tracer().LastSampled()
	if tr == nil {
		fmt.Fprintln(w, "no sampled trace yet")
		return
	}
	spans := tr.Spans()
	// Spans() returns append order; render wants no particular order but
	// stable output helps operators diff two snapshots.
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].ID < spans[b].ID })
	trace.RenderTree(w, tr.ID, spans)
}

// Listen binds the debug endpoint to addr (":0" for ephemeral) and starts
// the accept loop. It returns the bound address.
func (d *DebugServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	d.ln = ln
	d.mu.Unlock()
	d.wg.Add(1)
	go d.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (d *DebugServer) acceptLoop(ln net.Listener) {
	defer d.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			// A debug snapshot is advisory output on a connection the peer
			// is about to discard — nothing durable rides on Close/Flush.
			defer func() { _ = conn.Close() }()
			// One command per connection: read a line, answer, hang up.
			sc := bufio.NewScanner(conn)
			cmd := ""
			if sc.Scan() {
				cmd = sc.Text()
			}
			bw := bufio.NewWriter(conn)
			_ = d.WriteSnapshot(bw, cmd)
			_ = bw.Flush()
		}()
	}
}

// Close stops the accept loop and waits for in-flight connections.
func (d *DebugServer) Close() error {
	d.mu.Lock()
	ln := d.ln
	d.ln = nil
	d.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	d.wg.Wait()
	return err
}
