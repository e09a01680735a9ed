// Package trace is the per-request latency-attribution layer (the
// instrumentation behind the paper's §IV per-stage evaluation tables).
// A Trace is a flat, append-only list of spans — one per stage a request
// passes through — identified by a process-unique trace ID and
// sequentially allocated span IDs. Traces propagate through the stack via
// a context.Context seam (NewContext / FromContext / StartSpan) and
// across the RPC hop via an optional traced frame header (EncodeSpans /
// DecodeSpans in wire.go); the server's spans are grafted back under the
// client's roundtrip span with Graft, which remaps IDs so the merged tree
// stays well-formed while the trace ID is stable end to end.
//
// The layer is allocation-conscious: an unsampled request carries a nil
// Trace and every operation on the zero SpanRef or a nil Trace/Tracer is
// a no-op, so the disabled/sampled-out cost is a context lookup and a
// nil check per stage. Sampled traces preallocate their span slice and
// allocate only when a request outgrows it.
//
// Invariants (checked by TestSpanTreeWellFormed and the integration
// property test):
//
//   - span IDs within one Trace are unique and non-zero;
//   - every span's Parent is 0 (a root) or the ID of an earlier span;
//   - a child's [Start, Start+Dur] interval nests inside its parent's.
//
// See DESIGN.md ("Request tracing") for the stage taxonomy and the wire
// format.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies the pipeline stage a span measures. The numbering is
// part of the wire format for traced responses; append new stages, never
// reorder.
type Stage uint8

// Stages, ordered roughly by position in the request path.
const (
	// StageClientQuery is the whole client-side read: encode, pick,
	// attempts, decode.
	StageClientQuery Stage = iota
	// StageClientWrite is the whole client-side write fan-out.
	StageClientWrite
	// StageClientPick is candidate selection (registry snapshot, shard
	// hash, breaker filtering).
	StageClientPick
	// StageClientPrimary is one primary attempt: RPC call on the first
	// candidate.
	StageClientPrimary
	// StageClientRetry is one budgeted retry attempt, including its
	// backoff sleep.
	StageClientRetry
	// StageClientHedge is one hedged attempt racing a slow primary.
	StageClientHedge
	// StageClientDual is the dual-read attempt to the outgoing owner of a
	// key inside an elastic-resharding migration window.
	StageClientDual
	// StageRPCDial is a TCP connect performed (or waited on) inline with
	// a request.
	StageRPCDial
	// StageRPCRoundtrip is write-frame to read-frame on one connection.
	StageRPCRoundtrip
	// StageServerDispatch is the server-side handler, queueing included.
	StageServerDispatch
	// StageCacheGet is a gcache lookup, flagged FlagCacheHit or
	// FlagCacheMiss; on a miss it contains a StageKVRead child.
	StageCacheGet
	// StageCacheCompute is the inline feature computation over the
	// cached profile (the paper's compute-cache pass).
	StageCacheCompute
	// StageCacheApply is a write applied to the cached profile,
	// journal append included.
	StageCacheApply
	// StageMergeInline is a write-isolation merge forced inline by the
	// write-table cap.
	StageMergeInline
	// StageCompactPass is one background/inline compaction maintenance
	// pass.
	StageCompactPass
	// StageWALAppend is a mutation-journal append (encode, write,
	// flush, and any fsync).
	StageWALAppend
	// StageWALSync is the fsync portion of a journal append.
	StageWALSync
	// StageKVRead is a backing-store profile load on a cache miss.
	StageKVRead
	// StageKVFlush is a dirty-profile write-back to the backing store.
	StageKVFlush
	// StageSingleflightWait is time spent waiting on another request's
	// in-flight storage load for the same profile (batch architecture
	// v2's cross-request coalescing): the waiter shares the leader's
	// result instead of issuing its own KV read.
	StageSingleflightWait
	// StageHotSlotHit tags a read served from a replicated hot-profile
	// read slot — an immutable snapshot that bypasses the live profile's
	// lock entirely.
	StageHotSlotHit
	// StageWarmHit tags a cache fill served by re-inflating a
	// snap-compressed warm-tier blob in process — no storage round trip;
	// the duration covers decompress + decode + install.
	StageWarmHit

	// NumStages bounds the per-stage aggregation arrays.
	NumStages
)

var stageNames = [NumStages]string{
	StageClientQuery:      "client.query",
	StageClientWrite:      "client.write",
	StageClientPick:       "client.pick",
	StageClientPrimary:    "client.primary",
	StageClientRetry:      "client.retry",
	StageClientHedge:      "client.hedge",
	StageClientDual:       "client.dual",
	StageRPCDial:          "rpc.dial",
	StageRPCRoundtrip:     "rpc.roundtrip",
	StageServerDispatch:   "server.dispatch",
	StageCacheGet:         "cache.get",
	StageCacheCompute:     "cache.compute",
	StageCacheApply:       "cache.apply",
	StageMergeInline:      "merge.inline",
	StageCompactPass:      "compact.pass",
	StageWALAppend:        "wal.append",
	StageWALSync:          "wal.sync",
	StageKVRead:           "kv.read",
	StageKVFlush:          "kv.flush",
	StageSingleflightWait: "singleflight.wait",
	StageHotSlotHit:       "hotslot.hit",
	StageWarmHit:          "gcache.warmhit",
}

// String returns the stage's dotted metric name.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "stage.unknown"
}

// Span flags.
const (
	// FlagCacheHit marks a StageCacheGet span served from the cache.
	FlagCacheHit uint8 = 1 << iota
	// FlagCacheMiss marks a StageCacheGet span that loaded from the KV
	// store.
	FlagCacheMiss
	// FlagErr marks a span whose stage returned an error.
	FlagErr
)

// Span is one timed stage of a traced request.
type Span struct {
	ID     uint64
	Parent uint64 // 0 for roots
	Stage  Stage
	Flags  uint8
	Start  time.Time
	Dur    time.Duration
}

// Trace accumulates the spans of one request. Safe for concurrent use:
// hedged attempts and batch worker goroutines append concurrently.
type Trace struct {
	// ID is the process-unique trace ID, stable across the RPC hop.
	ID uint64
	// RemoteParent is, on the server side of a traced RPC, the client's
	// roundtrip span ID this trace's roots will be grafted under. Zero
	// for locally originated traces.
	RemoteParent uint64

	mu    sync.Mutex
	next  uint64 // last span ID handed out
	spans []Span
}

// idCounter feeds process-unique trace IDs. Seeded once from the wall
// clock so IDs from successive process runs rarely collide in logs.
var idCounter atomic.Uint64

func init() {
	idCounter.Store(uint64(time.Now().UnixNano()) << 20)
}

// newTraceID returns a fresh process-unique trace ID.
func newTraceID() uint64 { return idCounter.Add(1) }

// New returns an empty Trace with a fresh ID.
func New() *Trace {
	return &Trace{ID: newTraceID(), spans: make([]Span, 0, 16)}
}

// Adopt returns a Trace continuing a remote caller's trace: same trace
// ID, spans rooted locally (Parent 0) to be grafted under remoteParent
// by the caller once shipped back. It works without a Tracer so a server
// with tracing disabled still answers traced requests.
func Adopt(traceID, remoteParent uint64) *Trace {
	return &Trace{ID: traceID, RemoteParent: remoteParent, spans: make([]Span, 0, 16)}
}

// start appends a new span and returns its ID and index.
func (t *Trace) start(parent uint64, stage Stage, now time.Time) (uint64, int) {
	t.mu.Lock()
	t.next++
	id := t.next
	idx := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Stage: stage, Start: now})
	t.mu.Unlock()
	return id, idx
}

// Spans returns a copy of the spans recorded so far.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Graft splices spans returned by a remote server into this trace under
// the local span `under` (the roundtrip span that carried them). Remote
// IDs are remapped past this trace's ID watermark so the merged tree
// keeps unique IDs; remote roots (Parent 0) become children of `under`.
func (t *Trace) Graft(remote []Span, under uint64) {
	if t == nil || len(remote) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.next
	var maxID uint64
	for _, sp := range remote {
		id := base + sp.ID
		if id > maxID {
			maxID = id
		}
		parent := under
		if sp.Parent != 0 {
			parent = base + sp.Parent
		}
		sp.ID, sp.Parent = id, parent
		t.spans = append(t.spans, sp)
	}
	if maxID > t.next {
		t.next = maxID
	}
}

// Duration returns the wall-clock extent of the trace: latest span end
// minus earliest span start.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return 0
	}
	first := t.spans[0].Start
	var last time.Time
	for _, sp := range t.spans {
		if sp.Start.Before(first) {
			first = sp.Start
		}
		if end := sp.Start.Add(sp.Dur); end.After(last) {
			last = end
		}
	}
	return last.Sub(first)
}

// SpanRef is a live handle on one span of a Trace. The zero SpanRef is a
// valid no-op: every method is nil-safe so unsampled requests pay no
// branches beyond the check itself.
type SpanRef struct {
	tr  *Trace
	idx int
	id  uint64
}

// ID returns the span's ID, 0 for the zero SpanRef.
//
//ips:hotpath
func (s SpanRef) ID() uint64 { return s.id }

// Active reports whether the ref points at a sampled span.
//
//ips:hotpath
func (s SpanRef) Active() bool { return s.tr != nil }

// End records the span's duration as time since its start.
//
//ips:hotpath
func (s SpanRef) End() {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	sp := &s.tr.spans[s.idx]
	sp.Dur = time.Since(sp.Start)
	s.tr.mu.Unlock()
}

// EndErr is End plus FlagErr when err is non-nil.
//
//ips:hotpath
func (s SpanRef) EndErr(err error) {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	sp := &s.tr.spans[s.idx]
	sp.Dur = time.Since(sp.Start)
	if err != nil {
		sp.Flags |= FlagErr
	}
	s.tr.mu.Unlock()
}

// SetFlags ORs flags into the span.
//
//ips:hotpath
func (s SpanRef) SetFlags(flags uint8) {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.spans[s.idx].Flags |= flags
	s.tr.mu.Unlock()
}

// ctxKey carries a (trace, current-parent-span) pair through a context.
type ctxKey struct{}

// spanKey is the one boxed ctxKey every lookup passes, so no call
// converts a key to an interface: a zero-sized value never allocates,
// but the compiler still reports that conversion as a heap escape.
var spanKey any = ctxKey{}

type spanCtx struct {
	tr     *Trace
	parent uint64
}

// NewContext returns ctx carrying tr; subsequent StartSpan calls create
// root spans (Parent 0). A nil tr returns ctx unchanged.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, spanCtx{tr: tr})
}

// FromContext returns the Trace carried by ctx, or nil.
//
//ips:hotpath
func FromContext(ctx context.Context) *Trace {
	sc, _ := ctx.Value(spanKey).(spanCtx)
	return sc.tr
}

// StartSpan opens a span under ctx's current parent and returns a
// derived context in which the new span is the parent, plus the span's
// ref. On an untraced ctx it returns ctx unchanged and the no-op ref —
// no allocation.
//
//ips:hotpath-trust sampled-in spans allocate a derived context by design; the sampled-out branch returns the shared no-op with zero allocations
func StartSpan(ctx context.Context, stage Stage) (context.Context, SpanRef) {
	sc, _ := ctx.Value(spanKey).(spanCtx)
	if sc.tr == nil {
		return ctx, SpanRef{}
	}
	id, idx := sc.tr.start(sc.parent, stage, time.Now())
	return context.WithValue(ctx, spanKey, spanCtx{tr: sc.tr, parent: id}),
		SpanRef{tr: sc.tr, idx: idx, id: id}
}

// StartLeaf opens a span under ctx's current parent without deriving a
// new context — for leaf stages that start no children. Cheaper than
// StartSpan on the sampled path (no context allocation).
//
//ips:hotpath
func StartLeaf(ctx context.Context, stage Stage) SpanRef {
	sc, _ := ctx.Value(spanKey).(spanCtx)
	if sc.tr == nil {
		return SpanRef{}
	}
	//ipslint:ignore hotpathalloc sampled-in span storage is off the sampled-out steady state
	id, idx := sc.tr.start(sc.parent, stage, time.Now())
	return SpanRef{tr: sc.tr, idx: idx, id: id}
}
