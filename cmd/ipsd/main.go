// Command ipsd runs one IPS server instance: it creates the configured
// tables, binds the RPC service, and (optionally) registers with an
// in-process discovery registry served for local experimentation. In the
// multi-process layout each ipsd serves a fraction of the key space behind
// consistent-hash routing in the clients.
//
//	ipsd -addr :9500 -tables user_profile:like,comment,share -data /var/lib/ips/kv.log
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ips/internal/config"
	"ips/internal/discovery"
	"ips/internal/gcache"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/server"
	"ips/internal/trace"
	"ips/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9500", "listen address for the RPC service")
	name := flag.String("name", "ips-0", "instance name")
	region := flag.String("region", "local", "data-center region")
	dataPath := flag.String("data", "", "path to the disk-backed KV log (empty = in-memory)")
	journalPath := flag.String("journal", "", "path to the write-ahead mutation journal; acknowledged writes survive a crash and replay on restart (empty = journaling off)")
	journalSync := flag.Int("journal-sync", 0, "fsync the journal every N records (0 = flush without fsync)")
	tables := flag.String("tables", "user_profile:like,comment,share",
		"semicolon-separated table specs, each name:action1,action2,...")
	quota := flag.Float64("default-quota", 0, "default per-caller QPS quota (0 = unlimited)")
	isolation := flag.Bool("write-isolation", true, "enable read-write isolation (§III-F)")
	registry := flag.String("registry", "", "address of an ips-registry daemon to register with (empty = standalone)")
	advertise := flag.String("advertise", "", "address to advertise in the registry (default: the bound listen address)")
	heartbeat := flag.Duration("heartbeat", time.Second, "registry heartbeat interval")
	traceSample := flag.Int("trace-sample", 0, "trace one request in N for per-stage latency attribution (0 = tracing off)")
	traceSlow := flag.Duration("trace-slow", 0, "retain sampled traces at least this slow in the slow-query log (0 = slow log off)")
	debugAddr := flag.String("debug", "", "listen address for the plain-text debug endpoint (empty = off; query with ips-cli debug)")
	hotSlots := flag.Int("hot-slots", 0, "0 disables hot-profile promotion; any positive value enables one shared sealed read form per hot profile, serving Zipf-head reads lock-free")
	hotPromoteAfter := flag.Int("hot-promote-after", 0, "decayed read count that promotes a profile into hot slots (0 = gcache default)")
	memLimit := flag.Int64("mem-limit", 0, "decoded-tier cache budget in bytes; eviction demotes over-budget profiles hot -> warm -> KV (0 = unbounded)")
	warmLimit := flag.Int64("warm-limit", 0, "warm-tier budget in bytes for snap-compressed demoted profiles served without a KV round trip (0 = warm tier off)")
	subQueue := flag.Int("sub-queue", 0, "per-subscriber update queue length for continuous queries; a full queue drops and schedules a resync (0 = default 64)")
	subResync := flag.Duration("sub-resync", 0, "resync sweep interval recovering slow subscribers and failed standing-query evaluations (0 = default 250ms)")
	flag.Parse()

	var store kv.Store
	var err error
	if *dataPath != "" {
		store, err = kv.OpenDisk(*dataPath)
		if err != nil {
			log.Fatalf("open data file: %v", err)
		}
	} else {
		store = kv.NewMemory()
	}

	cfg := config.Default()
	cfg.WriteIsolation = *isolation
	cfgStore, err := config.NewStore(cfg)
	if err != nil {
		log.Fatal(err)
	}

	var journal *wal.Journal
	if *journalPath != "" {
		journal, err = wal.Open(*journalPath, wal.Options{SyncEvery: *journalSync})
		if err != nil {
			log.Fatalf("open journal: %v", err)
		}
		log.Printf("mutation journal at %s (%d records pending replay)", *journalPath, journal.Stats().Records)
	}

	var tracer *trace.Tracer
	if *traceSample > 0 || *traceSlow > 0 {
		tracer = trace.NewTracer(trace.Config{
			SampleEvery:   *traceSample,
			SlowThreshold: *traceSlow,
		})
		log.Printf("request tracing on: sampling 1/%d, slow threshold %v", *traceSample, *traceSlow)
	}

	inst, err := server.New(server.Options{
		Name:            *name,
		Region:          *region,
		Store:           store,
		Config:          cfgStore,
		DefaultQuotaQPS: *quota,
		Journal:         journal,
		Tracer:          tracer,
		SubQueue:        *subQueue,
		SubResync:       *subResync,
		Cache: gcache.Options{
			HotSlots:        *hotSlots,
			HotPromoteAfter: *hotPromoteAfter,
			MemLimit:        *memLimit,
			WarmLimit:       *warmLimit,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, spec := range strings.Split(*tables, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.SplitN(spec, ":", 2)
		if len(parts) != 2 {
			log.Fatalf("bad table spec %q (want name:action1,action2)", spec)
		}
		actions := strings.Split(parts[1], ",")
		if err := inst.CreateTable(parts[0], model.NewSchema(actions...)); err != nil {
			log.Fatalf("create table %s: %v", parts[0], err)
		}
		log.Printf("table %q ready with actions %v", parts[0], actions)
	}

	svc := server.NewService(inst)
	bound, err := svc.Listen(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("%s (%s) serving IPS on %s", *name, *region, bound)

	dbg := server.NewDebugServer(inst)
	if *debugAddr != "" {
		dbgBound, err := dbg.Listen(*debugAddr)
		if err != nil {
			log.Fatalf("debug listen: %v", err)
		}
		log.Printf("debug endpoint on %s (ips-cli debug -addr %s)", dbgBound, dbgBound)
	}

	// Register with the shared discovery daemon so clients find this
	// instance (the paper's Consul integration, §III).
	var hb *discovery.Heartbeater
	if *registry != "" {
		announce := *advertise
		if announce == "" {
			announce = bound
		}
		rr := discovery.Dial(*registry)
		defer rr.Close()
		hb = discovery.StartHeartbeat(rr, discovery.Instance{
			Service: "ips", Addr: announce, Region: *region,
		}, *heartbeat)
		log.Printf("registered %s with registry %s", announce, *registry)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println()
	log.Print("shutting down: merging writes and flushing dirty profiles")
	if hb != nil {
		hb.Stop()
	}
	if err := dbg.Close(); err != nil {
		log.Printf("debug close: %v", err)
	}
	// Final latency attribution to stdout, so a traced run leaves its
	// per-stage breakdown in the logs even if nobody polled the endpoint.
	if tracer != nil {
		fmt.Println("--- final trace snapshot ---")
		_ = dbg.WriteSnapshot(os.Stdout, "all")
	}
	if err := svc.Close(); err != nil {
		log.Printf("service close: %v", err)
	}
	if err := inst.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			log.Printf("journal close: %v", err)
		}
	}
	if err := store.Close(); err != nil {
		log.Printf("store close: %v", err)
	}
	log.Print("bye")
}
