// Command ips-cli is a small operational client for a running ipsd: it
// issues writes, top-K / filter / decay queries and stats requests over
// the RPC protocol.
//
//	ips-cli -addr 127.0.0.1:9500 add -table user_profile -profile 42 -slot 1 -type 2 -fid 1001 -counts 1,0,0
//	ips-cli -addr 127.0.0.1:9500 topk -table user_profile -profile 42 -slot 1 -type 2 -window 240h -action like -k 5
//	ips-cli -addr 127.0.0.1:9500 stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"ips/internal/client"
	"ips/internal/discovery"
	"ips/internal/query"
	"ips/internal/rpc"
	"ips/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9500", "ipsd address (direct mode)")
	registry := flag.String("registry", "", "ips-registry address: route through the unified client instead of one ipsd")
	region := flag.String("region", "local", "local region for registry-routed reads")
	caller := flag.String("caller", "ips-cli", "caller identity for quota accounting")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	cmd := flag.Arg(0)

	if *registry != "" {
		runViaRegistry(*registry, *region, *caller, cmd, flag.Args()[1:])
		return
	}

	c := rpc.NewClient(*addr)
	c.CallTimeout = 5 * time.Second
	defer c.Close()

	switch cmd {
	case "ping":
		resp, err := c.Call(wire.MethodPing, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(resp))
	case "add":
		runAdd(c, *caller, flag.Args()[1:])
	case "topk", "filter", "decay":
		runQuery(c, *caller, cmd, flag.Args()[1:])
	case "watch":
		runWatch(c, *caller, flag.Args()[1:])
	case "stats":
		raw, err := c.Call(wire.MethodStats, nil)
		if err != nil {
			log.Fatal(err)
		}
		st, err := wire.DecodeStats(raw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("instance: %s region: %s\n", st.Name, st.Region)
		fmt.Printf("profiles: %d  memory: %d bytes  hit ratio: %.1f%%\n", st.Profiles, st.MemUsage, st.HitRatioPct)
		fmt.Printf("queries: %d  writes: %d  rejected: %d  flush errors: %d\n",
			st.Queries, st.Writes, st.Rejected, st.FlushErrors)
	case "debug":
		runDebug(*addr, flag.Args()[1:])
	case "delete":
		runDelete(c, flag.Args()[1:])
	case "set-quota":
		runSetQuota(c, flag.Args()[1:])
	case "set-isolation":
		runSetIsolation(c, flag.Args()[1:])
	case "register-udaf":
		runRegisterUDAF(c, flag.Args()[1:])
	case "tables", "udafs":
		method := wire.MethodListTables
		if cmd == "udafs" {
			method = wire.MethodListUDAFs
		}
		raw, err := c.Call(method, nil)
		if err != nil {
			log.Fatal(err)
		}
		list, err := wire.DecodeStringList(raw)
		if err != nil {
			log.Fatal(err)
		}
		for _, n := range list.Names {
			fmt.Println(n)
		}
	default:
		usage()
	}
}

// watchFlags parses the shared watch flags: the pipeline program and an
// optional update cap.
func watchFlags(args []string) (pipeline string, n int) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	p := fs.String("pipeline", "", "pipeline program, e.g. 'source(user_profile, 42, 99) | slot(1) | decay(exp, 0.5) | topk(10)'")
	cap := fs.Int("n", 0, "exit after N updates (0 = run until interrupted)")
	_ = fs.Parse(args)
	if *p == "" {
		log.Fatal("watch needs -pipeline")
	}
	return *p, *cap
}

func printUpdate(u *wire.SubUpdate) {
	mark := " "
	if u.Resync {
		mark = "R" // full-state resync: replace everything held for this profile
	}
	fmt.Printf("[%s] profile=%d seq=%d %d features\n", mark, u.ProfileID, u.Seq, len(u.Result.Features))
	for _, f := range u.Result.Features {
		fmt.Printf("    fid=%-12d counts=%v\n", f.FID, f.Counts)
	}
}

// runWatch (direct mode) registers one standing query on a single ipsd
// and prints every pushed update. Direct mode has no resubscribe logic:
// the stream lives and dies with the one connection, which is exactly
// what you want when debugging a specific instance. Registry mode (see
// runViaRegistry) rides the unified client's transparent resubscribe.
func runWatch(c *rpc.Client, caller string, args []string) {
	pipeline, n := watchFlags(args)
	st, err := c.Stream(context.Background(), wire.MethodSubWatch,
		wire.EncodeSubscribe(&wire.SubscribeRequest{Caller: caller, Pipeline: pipeline}))
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	for i := 0; n == 0 || i < n; i++ {
		raw, err := st.Recv(context.Background())
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			log.Fatal(err)
		}
		u, err := wire.DecodeSubUpdate(raw)
		if err != nil {
			log.Fatal(err)
		}
		printUpdate(u)
	}
}

// runDebug speaks the one-command-per-connection debug protocol: dial,
// send the command line, print until the server hangs up. The global
// -addr must point at ipsd's -debug endpoint, not its RPC port.
func runDebug(addr string, args []string) {
	fs := flag.NewFlagSet("debug", flag.ExitOnError)
	cmd := fs.String("cmd", "all", "debug command: help, stats, stages, slow, trace or all")
	_ = fs.Parse(args)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		log.Fatalf("dial debug endpoint %s: %v (is ipsd running with -debug?)", addr, err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s\n", *cmd); err != nil {
		log.Fatal(err)
	}
	if _, err := io.Copy(os.Stdout, conn); err != nil {
		log.Fatal(err)
	}
}

func runDelete(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("delete", flag.ExitOnError)
	table := fs.String("table", "user_profile", "table name")
	profile := fs.Uint64("profile", 0, "profile ID")
	_ = fs.Parse(args)
	req := &wire.DeleteProfileRequest{Table: *table, ProfileID: *profile}
	if _, err := c.Call(wire.MethodDeleteProfile, wire.EncodeDeleteProfile(req)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("deleted")
}

func runSetQuota(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("set-quota", flag.ExitOnError)
	who := fs.String("for", "", "caller identity the quota applies to")
	qps := fs.Float64("qps", 0, "QPS quota (0 removes it)")
	_ = fs.Parse(args)
	req := &wire.SetQuotaRequest{Caller: *who, QPS: *qps}
	if _, err := c.Call(wire.MethodSetQuota, wire.EncodeSetQuota(req)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("ok")
}

func runSetIsolation(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("set-isolation", flag.ExitOnError)
	on := fs.Bool("on", true, "enable (true) or disable (false) write isolation")
	_ = fs.Parse(args)
	req := &wire.SetIsolationRequest{Enabled: *on}
	if _, err := c.Call(wire.MethodSetIsolation, wire.EncodeSetIsolation(req)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("ok")
}

func runRegisterUDAF(c *rpc.Client, args []string) {
	fs := flag.NewFlagSet("register-udaf", flag.ExitOnError)
	name := fs.String("name", "", "UDAF name")
	weights := fs.String("weights", "", "comma-separated per-action weights")
	_ = fs.Parse(args)
	var ws []float64
	for _, s := range strings.Split(*weights, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			log.Fatalf("bad weight %q: %v", s, err)
		}
		ws = append(ws, v)
	}
	req := &wire.RegisterUDAFRequest{Name: *name, Weights: ws}
	if _, err := c.Call(wire.MethodRegisterUDAF, wire.EncodeRegisterUDAF(req)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("ok")
}

// runViaRegistry executes add/topk/filter/decay through the unified
// client: instances are discovered from the registry daemon and each
// profile ID routes to its owner by consistent hashing, exactly like a
// production upstream (§III).
func runViaRegistry(registryAddr, region, caller, cmd string, args []string) {
	rr := discovery.Dial(registryAddr)
	defer rr.Close()
	c, err := client.New(client.Options{
		Caller:          caller,
		Service:         "ips",
		Region:          region,
		Registry:        rr,
		RefreshInterval: 200 * time.Millisecond,
		CallTimeout:     5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	// Give the first discovery poll a beat.
	c.RefreshNow()

	switch cmd {
	case "add":
		fs := flag.NewFlagSet("add", flag.ExitOnError)
		table := fs.String("table", "user_profile", "table name")
		profile := fs.Uint64("profile", 0, "profile ID")
		slot := fs.Uint("slot", 0, "slot ID")
		typ := fs.Uint("type", 0, "type ID")
		fid := fs.Uint64("fid", 0, "feature ID")
		counts := fs.String("counts", "1", "comma-separated action counts")
		ts := fs.Int64("ts", 0, "event timestamp in unix millis (0 = now)")
		_ = fs.Parse(args)
		when := *ts
		if when == 0 {
			when = time.Now().UnixMilli()
		}
		var cs []int64
		for _, s := range strings.Split(*counts, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				log.Fatalf("bad count %q: %v", s, err)
			}
			cs = append(cs, v)
		}
		err := c.Add(*table, *profile, wire.AddEntry{
			Timestamp: when, Slot: uint32(*slot), Type: uint32(*typ), FID: *fid, Counts: cs,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("ok")
	case "topk", "filter", "decay":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		table := fs.String("table", "user_profile", "table name")
		profile := fs.Uint64("profile", 0, "profile ID")
		slot := fs.Uint("slot", 0, "slot ID")
		typ := fs.Uint("type", 0, "type ID")
		window := fs.Duration("window", time.Hour, "CURRENT window length")
		action := fs.String("action", "", "action name to sort by")
		k := fs.Int("k", 10, "top K")
		_ = fs.Parse(args)
		req := &wire.QueryRequest{
			Table: *table, ProfileID: *profile,
			Slot: uint32(*slot), Type: uint32(*typ),
			RangeKind: query.Current, Span: window.Milliseconds(),
			SortBy: query.ByAction, Action: *action, K: *k,
		}
		var resp *wire.QueryResponse
		var err error
		switch cmd {
		case "filter":
			resp, err = c.Filter(req)
		case "decay":
			req.Decay, req.DecayFactor = query.DecayExp, 0.8
			resp, err = c.Decay(req)
		default:
			resp, err = c.TopK(req)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d features (%d slices scanned)\n", len(resp.Features), resp.SlicesScanned)
		for _, f := range resp.Features {
			fmt.Printf("  fid=%-12d counts=%v\n", f.FID, f.Counts)
		}
	case "batch":
		fs := flag.NewFlagSet("batch", flag.ExitOnError)
		table := fs.String("table", "user_profile", "table name")
		profiles := fs.String("profiles", "", "comma-separated profile IDs, one sub-query each")
		op := fs.String("op", "topk", "sub-query op: topk, filter or decay")
		slot := fs.Uint("slot", 0, "slot ID")
		typ := fs.Uint("type", 0, "type ID")
		window := fs.Duration("window", time.Hour, "CURRENT window length")
		action := fs.String("action", "", "action name to sort by")
		k := fs.Int("k", 10, "top K")
		minCount := fs.Int64("min-count", 0, "filter: minimum count")
		decayFactor := fs.Float64("decay-factor", 0.8, "decay factor")
		_ = fs.Parse(args)
		var subs []wire.SubQuery
		for _, s := range strings.Split(*profiles, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			id, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				log.Fatalf("bad profile ID %q: %v", s, err)
			}
			sub := wire.SubQuery{Query: wire.QueryRequest{
				Table: *table, ProfileID: id,
				Slot: uint32(*slot), Type: uint32(*typ),
				RangeKind: query.Current, Span: window.Milliseconds(),
				SortBy: query.ByAction, Action: *action, K: *k,
			}}
			switch *op {
			case "filter":
				sub.Op = wire.OpFilter
				sub.Query.MinCount = *minCount
			case "decay":
				sub.Op = wire.OpDecay
				sub.Query.Decay, sub.Query.DecayFactor = query.DecayExp, *decayFactor
			}
			subs = append(subs, sub)
		}
		if len(subs) == 0 {
			log.Fatal("batch needs -profiles")
		}
		resps, err := c.QueryBatch(subs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "warning: %v\n", err)
		}
		served := 0
		for _, resp := range resps {
			if resp != nil {
				served++
			}
		}
		fmt.Printf("%d sub-queries, %d failed\n", len(subs), len(subs)-served)
		for i, resp := range resps {
			if resp == nil {
				fmt.Printf("  profile=%-12d FAILED\n", subs[i].Query.ProfileID)
				continue
			}
			fmt.Printf("  profile=%-12d %d features (%d slices scanned)\n",
				subs[i].Query.ProfileID, len(resp.Features), resp.SlicesScanned)
		}
		if served == 0 {
			os.Exit(1)
		}
	case "watch":
		pipeline, n := watchFlags(args)
		s, err := c.Subscribe(context.Background(), pipeline)
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		for i := 0; n == 0 || i < n; i++ {
			u, err := s.Recv(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			printUpdate(u)
		}
	case "stats":
		stats, err := c.Stats()
		if err != nil {
			if len(stats) == 0 {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "warning: partial stats: %v\n", err)
		}
		for _, st := range stats {
			fmt.Printf("%s (%s): profiles=%d queries=%d writes=%d hit=%.1f%%\n",
				st.Name, st.Region, st.Profiles, st.Queries, st.Writes, st.HitRatioPct)
		}
		rs := c.Resilience()
		fmt.Printf("client resilience: attempts=%d primaries=%d retries=%d (denied=%d) hedges=%d (wins=%d)\n",
			rs.Attempts, rs.Primaries, rs.Retries, rs.RetriesDenied, rs.Hedges, rs.HedgeWins)
		fmt.Printf("breakers: trips=%d reopens=%d probes=%d closes=%d skips=%d\n",
			rs.BreakerTrips, rs.BreakerReOpens, rs.BreakerProbes, rs.BreakerCloses, rs.BreakerSkips)
		for addr, st := range rs.BreakerStates {
			if st != client.BreakerClosed {
				fmt.Printf("  breaker %s: %s\n", addr, st)
			}
		}
	default:
		log.Fatalf("registry mode supports add/topk/filter/decay/batch/watch/stats, not %q", cmd)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ips-cli [-addr host:port] <command> [flags]")
	fmt.Fprintln(os.Stderr, "commands: ping add topk filter decay batch watch stats debug delete set-quota set-isolation register-udaf tables udafs")
	fmt.Fprintln(os.Stderr, "batch (registry mode only) reads every -profiles ID at once, one sub-query each, and prints the failed slots")
	fmt.Fprintln(os.Stderr, "watch registers a standing pipeline query and streams pushed updates: ips-cli watch -pipeline 'source(user_profile, 42) | slot(1) | topk(5)'")
	fmt.Fprintln(os.Stderr, "debug reads ipsd's -debug endpoint: ips-cli -addr host:debugport debug -cmd stages")
	os.Exit(2)
}

func runAdd(c *rpc.Client, caller string, args []string) {
	fs := flag.NewFlagSet("add", flag.ExitOnError)
	table := fs.String("table", "user_profile", "table name")
	profile := fs.Uint64("profile", 0, "profile ID")
	slot := fs.Uint("slot", 0, "slot ID")
	typ := fs.Uint("type", 0, "type ID")
	fid := fs.Uint64("fid", 0, "feature ID")
	counts := fs.String("counts", "1", "comma-separated action counts")
	ts := fs.Int64("ts", 0, "event timestamp in unix millis (0 = now)")
	_ = fs.Parse(args)

	when := *ts
	if when == 0 {
		when = time.Now().UnixMilli()
	}
	var cs []int64
	for _, s := range strings.Split(*counts, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			log.Fatalf("bad count %q: %v", s, err)
		}
		cs = append(cs, v)
	}
	req := &wire.AddRequest{
		Caller: caller, Table: *table, ProfileID: *profile,
		Entries: []wire.AddEntry{{
			Timestamp: when, Slot: uint32(*slot), Type: uint32(*typ),
			FID: *fid, Counts: cs,
		}},
	}
	if _, err := c.Call(wire.MethodAdd, wire.EncodeAdd(req)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("ok")
}

func runQuery(c *rpc.Client, caller, kind string, args []string) {
	fs := flag.NewFlagSet(kind, flag.ExitOnError)
	table := fs.String("table", "user_profile", "table name")
	profile := fs.Uint64("profile", 0, "profile ID")
	slot := fs.Uint("slot", 0, "slot ID")
	typ := fs.Uint("type", 0, "type ID")
	allTypes := fs.Bool("all-types", false, "aggregate across all types in the slot")
	window := fs.Duration("window", time.Hour, "CURRENT window length")
	action := fs.String("action", "", "action name to sort by")
	k := fs.Int("k", 10, "top K")
	minCount := fs.Int64("min-count", 0, "filter: minimum count")
	decayFactor := fs.Float64("decay-factor", 0.8, "decay factor")
	_ = fs.Parse(args)

	req := &wire.QueryRequest{
		Caller: caller, Table: *table, ProfileID: *profile,
		Slot: uint32(*slot), Type: uint32(*typ), AllTypes: *allTypes,
		RangeKind: query.Current, Span: window.Milliseconds(),
		SortBy: query.ByAction, Action: *action, K: *k,
		MinCount: *minCount,
	}
	method := wire.MethodTopK
	switch kind {
	case "filter":
		method = wire.MethodFilter
	case "decay":
		method = wire.MethodDecay
		req.Decay = query.DecayExp
		req.DecayFactor = *decayFactor
	}
	raw, err := c.Call(method, wire.EncodeQuery(req))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := wire.DecodeQueryResponse(raw)
	if err != nil {
		log.Fatal(err)
	}
	hitStr := "miss"
	if resp.CacheHit {
		hitStr = "hit"
	}
	fmt.Printf("%d features (cache %s, %d slices scanned, server %.3fms)\n",
		len(resp.Features), hitStr, resp.SlicesScanned, float64(resp.ServerNanos)/1e6)
	for _, f := range resp.Features {
		fmt.Printf("  fid=%-12d counts=%v\n", f.FID, f.Counts)
	}
}
