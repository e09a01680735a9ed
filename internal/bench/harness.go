// Package bench contains the experiment harness that regenerates every
// table and figure of the paper's evaluation (§IV) plus the quantified
// claims of §III. One exported Run function per experiment; the ips-bench
// CLI and the repository's testing.B wrappers both call these, so the two
// entry points cannot drift apart.
//
// Absolute numbers differ from the paper by construction — the paper
// measured a 1000-machine production cluster, this harness measures a
// laptop-scale simulation — so every report states the *shape* being
// reproduced (who wins, rough factors, flat p50 vs load-following p99)
// alongside the measured values.
package bench

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ips/internal/client"
	"ips/internal/config"
	"ips/internal/discovery"
	"ips/internal/gcache"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/server"
	"ips/internal/wire"
	"ips/internal/workload"
)

// Clock is the simulated time source every experiment drives.
type Clock struct {
	mu  sync.Mutex
	now model.Millis
}

// NewClock starts a clock at an arbitrary fixed epoch.
func NewClock() *Clock { return &Clock{now: 1_700_000_000_000} }

// Now returns the current simulated time.
func (c *Clock) Now() model.Millis {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves simulated time forward.
func (c *Clock) Advance(d model.Millis) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// Env is a single-instance IPS deployment reachable both in-process and
// over loopback TCP, with simulated time.
type Env struct {
	Clock    *Clock
	Store    *kv.Memory
	Instance *server.Instance
	Service  *server.Service
	Addr     string
	Registry *discovery.Registry
	Client   *client.Client
	Gen      *workload.Generator
}

// EnvOptions tunes the environment.
type EnvOptions struct {
	// Table schema actions; default like/comment/share.
	Actions []string
	// Cache options for GCache.
	Cache gcache.Options
	// Config override; nil uses Default with isolation on.
	Config *config.Config
	// Workload options.
	Workload workload.Options
	// StoreDelay injects latency into every KV operation, modelling the
	// HBase round trip behind cache misses (Table II).
	StoreDelay time.Duration
}

// TableName is the table every experiment uses.
const TableName = "user_profile"

// NewEnv builds the environment; callers must Close it.
func NewEnv(opts EnvOptions) (*Env, error) {
	if len(opts.Actions) == 0 {
		opts.Actions = []string{"like", "comment", "share"}
	}
	clock := NewClock()
	store := kv.NewMemory()
	if opts.StoreDelay > 0 {
		d := opts.StoreDelay
		store.BeforeOp = func(op, key string) { time.Sleep(d) }
	}
	cfg := config.Default()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	cfgStore, err := config.NewStore(cfg)
	if err != nil {
		return nil, err
	}
	inst, err := server.New(server.Options{
		Name:   "ips-bench-0",
		Region: "local",
		Store:  store,
		Config: cfgStore,
		Clock:  clock.Now,
		Cache:  opts.Cache,
	})
	if err != nil {
		return nil, err
	}
	schema := model.NewSchema(opts.Actions...)
	if err := inst.CreateTable(TableName, schema); err != nil {
		_ = inst.Close()
		return nil, err
	}
	svc := server.NewService(inst)
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		_ = inst.Close()
		return nil, err
	}
	reg := discovery.NewRegistry(time.Minute)
	reg.Register(discovery.Instance{Service: "ips", Addr: addr, Region: "local"})
	cl, err := client.New(client.Options{
		Caller: "bench", Service: "ips", Region: "local",
		Registry: reg, CallTimeout: 5 * time.Second,
	})
	if err != nil {
		_ = svc.Close()
		_ = inst.Close()
		return nil, err
	}
	wopts := opts.Workload
	wopts.Actions = len(opts.Actions)
	return &Env{
		Clock: clock, Store: store, Instance: inst, Service: svc,
		Addr: addr, Registry: reg, Client: cl,
		Gen: workload.New(wopts),
	}, nil
}

// Close tears the environment down. Teardown errors are dropped: the
// measurements were already taken.
func (e *Env) Close() {
	e.Client.Close()
	_ = e.Service.Close()
	_ = e.Instance.Close()
	_ = e.Store.Close()
}

// Prefill writes history for n profiles so queries have data to chew on:
// per profile, writes spread over spreadMs of simulated past time.
func (e *Env) Prefill(n int, writesPer int, spreadMs model.Millis) error {
	now := e.Clock.Now()
	for id := model.ProfileID(1); id <= model.ProfileID(n); id++ {
		entries := make([]wire.AddEntry, writesPer)
		for j := range entries {
			en := e.Gen.WriteEntry(now)
			en.Timestamp = now - model.Millis(int64(j)*int64(spreadMs)/int64(writesPer)) - 1
			entries[j] = en
		}
		if err := e.Instance.Add("bench", TableName, id, entries); err != nil {
			return err
		}
	}
	e.Instance.MergeAll()
	return nil
}

// fprintf writes to w, tolerating a nil writer.
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// ms renders a duration in fractional milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
}

// median returns the middle value of an odd-length sample set.
func median(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// exactMeanP99 computes the mean and the exact (sorted-sample) p99.
func exactMeanP99(samples []time.Duration) (mean, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return sum / time.Duration(len(sorted)), sorted[len(sorted)*99/100]
}
