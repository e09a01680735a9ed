// Package client implements the unified IPS client (§III): the single
// library every upstream application uses to reach the compute-cache
// layer. It discovers instances through the registry, routes each profile
// ID with consistent hashing, and applies the multi-region discipline of
// §III-G (Fig. 15): writes go to every region, queries go to the local
// region, and a failed local query fails over to another region.
//
// Reads run behind the degradation ladder DESIGN.md describes
// ("Degradation ladder: the read path under failure"): budgeted retries,
// hedged requests against slow primaries, and per-instance circuit
// breakers — invariant: Attempts == Primaries + Retries + Hedges + Duals,
// which chaostest reconciles exactly. An optional trace.Tracer samples
// requests end to end (DESIGN.md "Request tracing").
//
// Elastic resharding (DESIGN.md "Elastic resharding"): each region keeps
// two rings — the authority ring (settled + joining members) and the old
// ring (settled + draining members). A key whose owners differ is inside
// a migration window: writes go to BOTH owners — and are acknowledged
// only when both legs succeed, so every acked in-window write provably
// reached both — and reads race both, preferring the outgoing owner's
// response: inside the window its copy is a superset of the incoming
// owner's (acked dual-writes land on both while profile state only flows
// old→new), so no cross-instance watermark comparison is needed. Windows
// open and close purely through discovery State transitions propagated by
// heartbeat.
package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ips/internal/discovery"
	"ips/internal/hashring"
	"ips/internal/metrics"
	"ips/internal/model"
	"ips/internal/rpc"
	"ips/internal/trace"
	"ips/internal/wire"
)

// ErrNoInstances reports an empty (or fully failed) target set.
var ErrNoInstances = errors.New("client: no live IPS instances")

// errNotRouted reports an instance the current routing snapshot no longer
// lists.
var errNotRouted = errors.New("client: instance is not in the routing snapshot")

// DefaultRefreshInterval is the discovery poll cadence used when
// Options.RefreshInterval is zero. Exported because the resharding
// coordinator's settle barrier must outwait the slowest client's refresh
// (cluster.Options.SettleInterval defaults to twice this).
const DefaultRefreshInterval = 500 * time.Millisecond

// Options configures a Client.
type Options struct {
	// Caller identifies the upstream application for quota accounting.
	Caller string
	// Service is the discovery service name, e.g. "ips".
	Service string
	// Region is the client's local region; queries prefer it.
	Region string
	// Registry is the discovery catalog — the in-process Registry or a
	// RemoteRegistry connection to a registry daemon; required.
	Registry discovery.Catalog
	// RefreshInterval is the discovery poll cadence; default
	// DefaultRefreshInterval (500ms).
	RefreshInterval time.Duration
	// CallTimeout bounds each RPC; default 1s.
	CallTimeout time.Duration

	// HedgeDelay is how long a read waits on its primary before issuing a
	// duplicate to the next replica and taking the first success. 0 means
	// adaptive: the observed p95 of QueryLat, clamped to [1ms,
	// CallTimeout/2]. Negative disables hedging. Only idempotent reads are
	// ever hedged; writes never are.
	HedgeDelay time.Duration
	// RetryBudgetRatio is the retry tokens earned per primary request
	// (retries are bounded to this fraction of primary traffic); default
	// 0.2. Zero or negative means no retries at all.
	RetryBudgetRatio float64
	// RetryBudgetBurst is the token-bucket cap and starting balance;
	// default 10.
	RetryBudgetBurst float64
	// BackoffBase and BackoffCap bound the jittered exponential delay
	// before each retry; defaults 2ms and 100ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold is the consecutive transport failures that open an
	// instance's circuit breaker; default 5. Negative disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker skips its instance
	// before admitting a probe; default 1s.
	BreakerCooldown time.Duration
	// Seed makes backoff jitter deterministic; 0 seeds from the clock.
	Seed int64

	// Tracer, when set, samples requests end to end: the client opens the
	// root span, every attempt (primary / retry / hedge) gets its own
	// span, and spans the server ships back in traced responses are
	// grafted in. Nil means requests run untraced unless the caller
	// supplies a context that already carries a trace.
	Tracer *trace.Tracer
}

// Client is the unified IPS client.
type Client struct {
	opts Options

	// routes is the routing snapshot every request reads: one atomic load,
	// no lock. mu serializes the writers that replace it (discovery
	// refresh, Close).
	routes  atomic.Pointer[routes]
	mu      sync.Mutex
	watcher *discovery.Watcher
	closed  bool

	// Metrics observed from the caller's side — Fig. 17's client-side
	// error rate comes from here. Requests and Errors count sub-queries
	// for the batch path, so ErrorRate stays comparable across paths.
	Requests  metrics.Counter
	Errors    metrics.Counter
	Failovers metrics.Counter
	QueryLat  metrics.Histogram
	WriteLat  metrics.Histogram

	// Batch-path metrics: the distribution of batch sizes and the
	// batches that finished with failed slots. BatchRPCs counted
	// ips.query_batch2 RPCs, which the client no longer sends: it reads 0
	// and stays only because the benchmark harness still reads it.
	BatchSize      metrics.IntHist
	BatchRPCs      metrics.Counter
	PartialBatches metrics.Counter

	// Resilience-layer accounting. Every read-path RPC launch increments
	// Attempts plus exactly one of Primaries (first try of a read, a batch
	// sub-query included), Retries (budgeted failover re-issues), Hedges
	// (duplicate reads racing a slow primary) or Duals (reads to the
	// outgoing owner of a key inside a migration window), so
	// Attempts == Primaries + Retries + Hedges + Duals holds exactly at
	// any quiescent point — the chaos harness asserts it.
	Attempts      metrics.Counter
	Primaries     metrics.Counter
	Retries       metrics.Counter
	RetriesDenied metrics.Counter // retries refused by the budget
	Hedges        metrics.Counter
	HedgeWins     metrics.Counter // hedge finished first with a success
	Duals         metrics.Counter // dual reads to the outgoing owner of a migrating key
	DualWins      metrics.Counter // dual read carried the response after the authority attempt had failed or was breaker-blocked
	WriteRPCs     metrics.Counter // add RPCs issued (never hedged)

	// Continuous-query accounting (watch.go). Kept apart from the
	// read-path attempt counters: stream opens are not query attempts,
	// so the Attempts == Primaries + Retries + Hedges + Duals invariant
	// is untouched by watch traffic.
	Subscriptions   metrics.Gauge   // live Subscriptions
	SubStreams      metrics.Gauge   // live per-owner watch streams
	SubOpens        metrics.Counter // owner streams opened (incl. reopens)
	SubResubscribes metrics.Counter // streams torn down for reopen (death or ring change)
	SubUpdates      metrics.Counter // updates received across all subscriptions
	SubResyncs      metrics.Counter // Resync-flagged updates received

	// Breaker holds the per-instance circuit breakers consulted by
	// routing; nil when Options.BreakerThreshold < 0.
	Breaker *Breaker

	budget        *retryBudget
	boff          *backoff
	hedgeInFlight atomic.Int64

	// Departed-instance connections are retired on a grace timer instead of
	// closed inline (closing kills that conn's in-flight calls). closing
	// aborts the timers at Close; closeWG keeps the retire goroutines — and
	// the reapers of decided races (ladder.go) — inside the goroutine-leak
	// gate.
	closing chan struct{}
	closeWG sync.WaitGroup
}

// routes is one immutable routing snapshot: nothing reachable from it is
// mutated after it is published, so a request loads it once and routes
// every attempt — region order, both rings, connections — from that one
// consistent view.
type routes struct {
	// regions lists the known regions, the client's local region first and
	// the rest in name order: the order reads fail over and writes fan out.
	regions []*regionState
}

// region returns the state of the named region, nil if unknown. Regions
// are few; a scan beats a map.
//
//ips:hotpath
func (rt *routes) region(name string) *regionState {
	for _, rs := range rt.regions {
		if rs.name == name {
			return rs
		}
	}
	return nil
}

type regionState struct {
	name string
	// ring is the authority ring: every member except draining ones. It
	// answers "who owns this key after the migration completes" and is the
	// only ring the failover ladder consults.
	ring *hashring.Ring
	// oldRing is the pre-migration ring: every member except joining ones.
	// nil outside a migration window (the two member sets are equal). A key
	// whose owners differ between the rings is mid-handoff: writes go to
	// both owners and reads race both (see owners).
	oldRing *hashring.Ring
	conns   map[string]*rpc.Client // addr -> pooled client
}

// target names one of the region's ring members as an RPC destination.
// Every member of either ring has its pooled client in the same
// regionState (onInstances builds both from one instance list).
//
//ips:hotpath
func (rs *regionState) target(addr string) target {
	return target{addr: addr, conn: rs.conns[addr]}
}

// owners resolves id's owners in the region: auth is the authority-ring
// owner, old is the old-ring owner when a migration window is open for
// this key ("" when the region has no window or both rings agree — the
// common case, where routing is single-owner).
//
//ips:hotpath
func (rs *regionState) owners(id model.ProfileID) (auth, old string) {
	auth = rs.ring.Get(id)
	if rs.oldRing != nil {
		if o := rs.oldRing.Get(id); o != auth {
			old = o
		}
	}
	return auth, old
}

// New creates a client and starts its discovery refresh.
func New(opts Options) (*Client, error) {
	if opts.Registry == nil {
		return nil, errors.New("client: Registry is required")
	}
	if opts.Service == "" {
		opts.Service = "ips"
	}
	if opts.RefreshInterval <= 0 {
		opts.RefreshInterval = DefaultRefreshInterval
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = time.Second
	}
	if opts.RetryBudgetRatio == 0 {
		opts.RetryBudgetRatio = 0.2
	}
	if opts.RetryBudgetRatio < 0 {
		opts.RetryBudgetRatio = 0
	}
	if opts.RetryBudgetBurst == 0 {
		opts.RetryBudgetBurst = 10
	}
	c := &Client{
		opts:    opts,
		closing: make(chan struct{}),
	}
	c.routes.Store(&routes{})
	if opts.BreakerThreshold >= 0 {
		c.Breaker = NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	c.budget = newRetryBudget(opts.RetryBudgetRatio, opts.RetryBudgetBurst)
	c.boff = newBackoff(opts.BackoffBase, opts.BackoffCap, opts.Seed)
	c.watcher = discovery.NewWatcher(opts.Registry, opts.Service, opts.RefreshInterval, c.onInstances)
	return c, nil
}

// onInstances publishes a new routing snapshot from a fresh instance
// list. Each region gets an authority ring (everything but draining
// members) and, while a join or drain is in flight, an old ring
// (everything but joining members); outside a window oldRing is nil and
// routing collapses to the single-ring fast path. Rings and connections
// whose membership did not change are carried over from the previous
// snapshot as they are; nothing already published is modified.
func (c *Client) onInstances(instances []discovery.Instance) {
	type memberSets struct {
		auth, old []string
		all       map[string]bool
	}
	byRegion := make(map[string]*memberSets)
	for _, in := range instances {
		ms := byRegion[in.Region]
		if ms == nil {
			ms = &memberSets{all: make(map[string]bool)}
			byRegion[in.Region] = ms
		}
		ms.all[in.Addr] = true
		if in.State != discovery.StateDraining {
			ms.auth = append(ms.auth, in.Addr)
		}
		if in.State != discovery.StateJoining {
			ms.old = append(ms.old, in.Addr)
		}
	}
	names := make([]string, 0, len(byRegion))
	for region := range byRegion {
		names = append(names, region)
	}
	sort.Strings(names)
	for i, region := range names {
		if region == c.opts.Region {
			// Local region first; the others keep their name order.
			copy(names[1:i+1], names[:i])
			names[0] = region
			break
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	prev := c.routes.Load()
	next := &routes{regions: make([]*regionState, 0, len(names))}
	for _, region := range names {
		ms := byRegion[region]
		was := prev.region(region)
		if was == nil {
			was = &regionState{}
		}
		rs := &regionState{name: region, ring: ringFor(was.ring, ms.auth), conns: make(map[string]*rpc.Client, len(ms.all))}
		if !sameMembers(ms.auth, ms.old) {
			// A joining or draining member: a migration window is open in
			// this region. (Length alone can't prove there is none — a
			// simultaneous join and drain keeps the counts equal while the
			// sets differ.)
			rs.oldRing = ringFor(was.oldRing, ms.old)
		}
		for addr := range ms.all {
			conn := was.conns[addr]
			if conn == nil {
				conn = c.newConn(addr)
			}
			rs.conns[addr] = conn
		}
		next.regions = append(next.regions, rs)
	}
	// Retire connections to departed instances: they are out of the new
	// snapshot now (no new calls); the socket closes only after a
	// call-timeout grace so in-flight calls finish instead of dying with a
	// conn-closed error on every refresh that loses a member.
	for _, was := range prev.regions {
		rs := next.region(was.name)
		for addr, conn := range was.conns {
			if rs == nil || rs.conns[addr] != conn {
				c.retireConn(conn)
			}
		}
	}
	c.routes.Store(next)
}

// ringFor returns a ring over members: prev itself when its membership is
// already exactly that (published rings are never modified), a new ring
// otherwise.
func ringFor(prev *hashring.Ring, members []string) *hashring.Ring {
	if prev != nil && sameMembers(prev.Members(), members) {
		return prev
	}
	ring := hashring.New(0)
	ring.SetMembers(members)
	return ring
}

func (c *Client) newConn(addr string) *rpc.Client {
	cl := rpc.NewClient(addr)
	cl.CallTimeout = c.opts.CallTimeout
	return cl
}

// sameMembers reports whether two member lists drawn from the same
// instance snapshot contain the same addresses (order-insensitive; the
// snapshot never repeats an address within a region).
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[string]bool, len(a))
	for _, s := range a {
		in[s] = true
	}
	for _, s := range b {
		if !in[s] {
			return false
		}
	}
	return true
}

// retireConn closes conn after a grace period of one call timeout — long
// enough for any call already issued on it to complete or time out on its
// own terms. Client.Close short-circuits the grace so tests (and the
// goroutine-leak gate) never wait out the timers.
func (c *Client) retireConn(conn *rpc.Client) {
	c.closeWG.Add(1)
	go func() {
		defer c.closeWG.Done()
		t := time.NewTimer(c.opts.CallTimeout)
		defer t.Stop()
		select {
		case <-t.C:
		case <-c.closing:
		}
		conn.Close()
	}()
}

// conn returns the pooled client for addr in region, nil when the
// current snapshot does not list that instance (discovery publishes a
// client for every instance it lists, and nothing else creates one).
func (c *Client) conn(region, addr string) *rpc.Client {
	if rs := c.routes.Load().region(region); rs != nil {
		return rs.conns[addr]
	}
	return nil
}

// traceStart returns ctx carrying a trace when this request should be
// traced. A ctx already carrying one is used as-is (its owner finishes
// it); otherwise the client's tracer makes the sampling draw, and the
// returned trace — nil when unsampled — must be passed to Tracer.Done
// after the root span ends.
func (c *Client) traceStart(ctx context.Context) (context.Context, *trace.Trace) {
	if trace.FromContext(ctx) != nil {
		return ctx, nil
	}
	return c.opts.Tracer.StartRequest(ctx)
}

// Add writes entries for one profile. Per §III-G the write is applied in
// every region; the call succeeds if at least one region accepts it (the
// paper tolerates transient regional write loss). A region whose owner
// for id is mid-migration accepts only when BOTH owners take the write —
// see AddCtx for why a single-leg landing must not be acknowledged.
func (c *Client) Add(table string, id model.ProfileID, entries ...wire.AddEntry) error {
	return c.AddCtx(context.Background(), table, id, entries...)
}

// AddCtx is Add with a request context. If the context carries a trace
// (or the client's tracer samples this request), the write is traced
// under a client.write root span with one RPC round trip per region.
func (c *Client) AddCtx(ctx context.Context, table string, id model.ProfileID, entries ...wire.AddEntry) error {
	start := time.Now()
	c.Requests.Inc()
	ctx, owned := c.traceStart(ctx)
	wctx, root := trace.StartSpan(ctx, trace.StageClientWrite)

	sc := getScratch()
	sc.payload = wire.AppendAdd(sc.payload[:0], &wire.AddRequest{
		Caller: c.opts.Caller, Table: table, ProfileID: id, Entries: entries,
	})
	method := wire.MethodAdd
	if len(entries) > 1 {
		method = wire.MethodAddBatch
	}

	var lastErr error
	ok := 0
	for _, rs := range c.routes.Load().regions {
		auth, old := rs.owners(id)
		// The legs: the authority owner and, inside a migration window,
		// the outgoing owner too — its copy stays a superset until the
		// window closes and nothing is lost if the migration is rolled
		// back. Old owner first: it preserves the pre-migration ordering
		// guarantee. The remaining leg is still issued after a failure:
		// landing the write on every reachable owner keeps the window's
		// copies as close as an unacknowledged write can.
		//
		// A region accepts the write only when EVERY leg takes it. Inside
		// a window that means both: the handoff's whole safety argument —
		// the outgoing owner's copy is a superset, content installs replace
		// the destination's slices wholesale, the release pass is mark-only
		// — holds only for writes that reached both owners. A write that
		// landed on just one leg must surface as a failure, not an
		// acknowledgment: acked old-only writes would be dropped by the
		// mark-only release, and acked authority-only writes would be
		// clobbered by a later content pass shipping a fresher source blob
		// that never contained them.
		regionOK := auth != "" || old != ""
		for _, addr := range [2]string{old, auth} {
			if addr == "" {
				continue
			}
			if err := c.writeLeg(wctx, rs, addr, method, sc.payload); err != nil {
				lastErr = err
				regionOK = false
			}
		}
		if regionOK {
			ok++
		}
	}
	scratchPool.Put(sc)
	var retErr error
	if ok == 0 {
		c.Errors.Inc()
		if lastErr == nil {
			lastErr = ErrNoInstances
		}
		retErr = fmt.Errorf("client: add failed in all regions: %w", lastErr)
	}
	root.EndErr(retErr)
	c.opts.Tracer.Done(owned)
	c.WriteLat.Observe(time.Since(start))
	return retErr
}

// writeLeg issues one add RPC to addr. Writes are not idempotent, so they
// are never hedged or retried within a region — but a tripped breaker
// still skips a broken instance instead of spending a timeout on it.
func (c *Client) writeLeg(ctx context.Context, rs *regionState, addr, method string, payload []byte) error {
	if c.Breaker != nil && !c.Breaker.Allow(addr) {
		return ErrBreakerOpen
	}
	c.WriteRPCs.Inc()
	_, err := rs.conns[addr].CallCtx(ctx, method, payload)
	if c.Breaker != nil {
		c.Breaker.Record(addr, transportOK(err))
	}
	return err
}

// callScratch is the per-request storage a read or write borrows: the
// encoded request, for reads the raw response the decode runs over, and
// for batches the state of their reads.
type callScratch struct {
	payload, raw []byte
	reads        []race
}

var scratchPool = sync.Pool{New: func() any { return new(callScratch) }}

func getScratch() *callScratch { return scratchPool.Get().(*callScratch) }

// queryMethod issues a read with local-region preference and the full
// degradation ladder: hedge a slow primary, budgeted backoff retries down
// the candidate ladder, broken instances skipped by their breakers. In
// the steady state it allocates only the response it returns.
func (c *Client) queryMethod(ctx context.Context, method string, req *wire.QueryRequest) (*wire.QueryResponse, error) {
	start := time.Now()
	c.Requests.Inc()
	ctx, owned := c.traceStart(ctx)
	qctx, root := trace.StartSpan(ctx, trace.StageClientQuery)
	req.Caller = c.opts.Caller
	sc := getScratch()
	sc.payload = wire.AppendQuery(sc.payload[:0], req)

	raw, err := c.readCall(qctx, method, sc.payload, req.ProfileID, sc.raw[:0])
	root.EndErr(err)
	c.opts.Tracer.Done(owned)
	var resp *wire.QueryResponse
	if err != nil {
		c.Errors.Inc()
		err = fmt.Errorf("client: query failed: %w", err)
	} else {
		sc.raw = raw
		resp, err = wire.DecodeQueryResponse(raw)
	}
	scratchPool.Put(sc)
	c.QueryLat.Observe(time.Since(start))
	return resp, err
}

// hedgeDelay resolves the configured hedge trigger: fixed, adaptive
// (observed p95, via the Histogram quantile accessor), or disabled (< 0).
func (c *Client) hedgeDelay() time.Duration {
	d := c.opts.HedgeDelay
	if d != 0 {
		return d
	}
	// Adaptive: before enough samples exist the p95 is noise, so start
	// conservative at a quarter of the call timeout.
	if c.QueryLat.Count() < 100 {
		return c.opts.CallTimeout / 4
	}
	return min(max(c.QueryLat.P95(), time.Millisecond), c.opts.CallTimeout/2)
}

// maxHedgesInFlight caps concurrent hedges per client so hedging can't
// double load during a broad slowdown.
const maxHedgesInFlight = 64

// hedgeAcquire claims one slot under the concurrent-hedge cap.
func (c *Client) hedgeAcquire() bool {
	if c.hedgeInFlight.Add(1) > maxHedgesInFlight {
		c.hedgeInFlight.Add(-1)
		return false
	}
	return true
}

// transportOK reports whether err leaves the instance's breaker unharmed:
// a nil error or a server-side application error both prove the instance
// answered; only transport failures (timeout, refused, reset) count.
func transportOK(err error) bool {
	if err == nil {
		return true
	}
	var remote *rpc.RemoteError
	return errors.As(err, &remote)
}

// TopK implements get_profile_topK (§II-B2).
func (c *Client) TopK(req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return c.queryMethod(context.Background(), wire.MethodTopK, req)
}

// TopKCtx is TopK with a request context (tracing seam).
func (c *Client) TopKCtx(ctx context.Context, req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return c.queryMethod(ctx, wire.MethodTopK, req)
}

// Filter implements get_profile_filter.
func (c *Client) Filter(req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return c.queryMethod(context.Background(), wire.MethodFilter, req)
}

// FilterCtx is Filter with a request context (tracing seam).
func (c *Client) FilterCtx(ctx context.Context, req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return c.queryMethod(ctx, wire.MethodFilter, req)
}

// Decay implements get_profile_decay.
func (c *Client) Decay(req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return c.queryMethod(context.Background(), wire.MethodDecay, req)
}

// DecayCtx is Decay with a request context (tracing seam).
func (c *Client) DecayCtx(ctx context.Context, req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return c.queryMethod(ctx, wire.MethodDecay, req)
}

// Stats fetches instance statistics from every live instance. Instances
// that fail to answer (or answer garbage) no longer vanish silently: the
// gathered partial results are returned together with a *PartialError
// (errors.Is(err, ErrPartial)) whose indices point into the discovered
// instance list. err is nil only when every instance answered; with no
// usable answer at all the error wraps ErrNoInstances.
func (c *Client) Stats() ([]*wire.StatsResponse, error) {
	insts := c.watcher.Current()
	var out []*wire.StatsResponse
	perr := &PartialError{Errs: make(map[int]error)}
	for i, inst := range insts {
		var st *wire.StatsResponse
		err := errNotRouted // the instance left between the two discovery reads
		if conn := c.conn(inst.Region, inst.Addr); conn != nil {
			var raw []byte
			if raw, err = conn.Call(wire.MethodStats, nil); err == nil {
				st, err = wire.DecodeStats(raw)
			}
		}
		if err != nil {
			perr.Failed = append(perr.Failed, i)
			perr.Errs[i] = fmt.Errorf("%s (%s): %w", inst.Addr, inst.Region, err)
			continue
		}
		out = append(out, st)
	}
	if len(out) == 0 {
		if len(perr.Failed) > 0 {
			return nil, fmt.Errorf("%w: %v", ErrNoInstances, perr)
		}
		return nil, ErrNoInstances
	}
	if len(perr.Failed) > 0 {
		return out, perr
	}
	return out, nil
}

// ResilienceStats is a point-in-time snapshot of the client's tail-latency
// armor: attempt accounting, hedge and retry counters, and every tracked
// instance's breaker state. ips-cli prints it after the per-instance stats.
type ResilienceStats struct {
	Attempts, Primaries, Retries, RetriesDenied int64
	Hedges, HedgeWins                           int64
	Duals, DualWins                             int64
	WriteRPCs                                   int64
	BreakerTrips, BreakerReOpens                int64
	BreakerProbes, BreakerCloses, BreakerSkips  int64
	BreakerStates                               map[string]BreakerState
	// HedgeDelay is the currently effective hedge trigger (adaptive p95
	// when Options.HedgeDelay == 0); negative means hedging is disabled.
	HedgeDelay time.Duration
}

// Resilience snapshots the hedge/retry/breaker counters.
func (c *Client) Resilience() ResilienceStats {
	rs := ResilienceStats{
		Attempts:      c.Attempts.Value(),
		Primaries:     c.Primaries.Value(),
		Retries:       c.Retries.Value(),
		RetriesDenied: c.RetriesDenied.Value(),
		Hedges:        c.Hedges.Value(),
		HedgeWins:     c.HedgeWins.Value(),
		Duals:         c.Duals.Value(),
		DualWins:      c.DualWins.Value(),
		WriteRPCs:     c.WriteRPCs.Value(),
		HedgeDelay:    c.hedgeDelay(),
	}
	if c.Breaker != nil {
		rs.BreakerTrips = c.Breaker.Trips.Value()
		rs.BreakerReOpens = c.Breaker.ReOpens.Value()
		rs.BreakerProbes = c.Breaker.Probes.Value()
		rs.BreakerCloses = c.Breaker.Closes.Value()
		rs.BreakerSkips = c.Breaker.Skips.Value()
		rs.BreakerStates = c.Breaker.Snapshot()
	}
	return rs
}

// ErrorRate returns the client-observed error fraction (Fig. 17).
func (c *Client) ErrorRate() float64 {
	total := c.Requests.Value()
	if total == 0 {
		return 0
	}
	return float64(c.Errors.Value()) / float64(total)
}

// RefreshNow forces a discovery poll immediately, for tests.
func (c *Client) RefreshNow() {
	c.onInstances(c.opts.Registry.Lookup(c.opts.Service))
}

// Tracer returns the client's request tracer, nil when tracing is off.
func (c *Client) Tracer() *trace.Tracer { return c.opts.Tracer }

// Close stops discovery, closes all connections, and short-circuits any
// retiring connections' grace timers so no goroutine outlives the client.
func (c *Client) Close() error {
	c.watcher.Stop()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closing)
	for _, rs := range c.routes.Swap(&routes{}).regions {
		for _, conn := range rs.conns {
			conn.Close()
		}
	}
	c.mu.Unlock()
	c.closeWG.Wait()
	return nil
}
