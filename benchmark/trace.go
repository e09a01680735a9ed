package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ips/benchmark/load"
	"ips/internal/compact"
	"ips/internal/config"
	"ips/internal/gcache"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/persist"
	"ips/internal/query"
	"ips/internal/rpc"
	"ips/internal/snap"
	"ips/internal/wal"
	"ips/internal/wire"
)

// span is one timed call into a layer's public function, recorded from
// outside the program. Spans of one request share Req; Parent is the ID
// of the span that caused this one, 0 for a request's root. Req 0 marks
// background work (flush and eviction writes) and layer probes.
type span struct {
	Name    string `json:"name"`
	Req     uint64 `json:"req"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It records nothing
// until switched on, so warm-up and the untraced baseline share the code
// path of the traced replay.
type recorder struct {
	t0  time.Time
	on  atomic.Bool
	ids atomic.Int32
	// cur is the request in flight, packed as req<<32 | root span ID, so
	// store reads can be attributed to it. The traced replay has a single
	// caller, which makes "the request in flight" well defined.
	cur atomic.Uint64

	mu    sync.Mutex
	spans []span
}

// handle is an open span; the zero handle (recorder off) ends as a no-op.
type handle struct {
	r *recorder
	s span
}

func (r *recorder) begin(name string, req uint64, parent int32) handle {
	if !r.on.Load() {
		return handle{}
	}
	return handle{r, span{Name: name, Req: req, ID: r.ids.Add(1), Parent: parent, StartNs: int64(time.Since(r.t0))}}
}

// end closes the span and returns its duration in nanoseconds.
func (h handle) end() int64 {
	if h.r == nil {
		return 0
	}
	h.s.EndNs = int64(time.Since(h.r.t0))
	h.r.mu.Lock()
	h.r.spans = append(h.r.spans, h.s)
	h.r.mu.Unlock()
	return h.s.EndNs - h.s.StartNs
}

// enter marks h as the root of the request in flight.
func (r *recorder) enter(h handle) { r.cur.Store(h.s.Req<<32 | uint64(uint32(h.s.ID))) }

func (r *recorder) leave() { r.cur.Store(0) }

// storeSpan records one finished store call (see timedStore.done).
func (r *recorder) storeSpan(name string, read bool, start, end time.Time) {
	s := span{Name: name, ID: r.ids.Add(1), StartNs: int64(start.Sub(r.t0)), EndNs: int64(end.Sub(r.t0))}
	if cur := r.cur.Load(); read && cur != 0 {
		s.Req, s.Parent = cur>>32, int32(uint32(cur))
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// durations groups the recorded spans' durations, in nanoseconds, by name.
func (r *recorder) durations() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]float64)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs))
	}
	return out
}

// rig is the benchmark's own assembly of the layers below the instance,
// built from their public constructors over a copy of the prefilled
// store: the deepest point at which the traced run enters the stack.
type rig struct {
	store   *timedStore
	journal *wal.Journal
	schema  *model.Schema
	ps      *persist.Persister
	cache   *gcache.GCache
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}

// newRig copies d's flushed store log and opens the layers over the copy.
func newRig(d *deployment, rec *recorder) (*rig, error) {
	path := filepath.Join(d.dir, "rig-kv.log")
	if err := copyFile(path, filepath.Join(d.dir, "kv.log")); err != nil {
		return nil, err
	}
	disk, err := kv.OpenDisk(path)
	if err != nil {
		return nil, err
	}
	g := &rig{store: &timedStore{Store: disk, disk: disk, rec: rec}, schema: model.NewSchema(actions...)}
	if g.journal, err = wal.Open(filepath.Join(d.dir, "rig-wal.log"), wal.Options{}); err != nil {
		_ = disk.Close()
		return nil, err
	}
	table := model.NewTable(tableName, g.schema, config.Default().TimeDimension.HeadWidth())
	g.ps = persist.New(g.store, tableName)
	if g.cache, err = gcache.New(table, g.ps, cacheOpts); err != nil {
		_ = g.journal.Close()
		_ = disk.Close()
		return nil, err
	}
	g.cache.Start()
	return g, nil
}

func (g *rig) close() {
	_ = g.cache.Close()
	_ = g.journal.Close()
	_ = g.store.Close()
}

// numDepths is the number of points at which a traced request can enter
// the stack: 0 client, 1 wire+rpc, 2 instance, 3 the layers below it.
const numDepths = 4

// kindNames name the operation kinds in span and metric names.
var kindNames = [numKinds]string{"query", "add", "batch"}

// rootNames name the root span of each operation kind at each depth.
var rootNames = func() (n [numDepths][numKinds]string) {
	for d := range n {
		for k := range n[d] {
			n[d][k] = fmt.Sprintf("d%d.%s", d, kindNames[k])
		}
	}
	return n
}()

// tracer replays the workload with one caller, dealing requests to the
// four depths in turn.
type tracer struct {
	rec *recorder
	d   *deployment
	rig *rig
	rpc *rpc.Client
	led *ledger
	c   caller

	ctx      context.Context
	req      wire.QueryRequest
	resp     wire.QueryResponse
	sc       query.Scratch
	interner wire.Interner
	payload  []byte
	raw      []byte
	probeBuf []byte

	// kernelRuns collects, per rig read, the profile and the kernel's time,
	// for query.ns_per_feature.
	kernelRuns []kernelRun
	// batchBytes and batchSubs give wire.batch_bytes_per_sub.
	batchBytes, batchSubs int64
}

type kernelRun struct {
	profile uint64
	ns      int64
}

// nsPerFeature is the mean, over the rig's reads, of kernel time divided
// by the number of distinct features the read's profile was prefilled
// with.
func (t *tracer) nsPerFeature(spec load.Spec, seed int64) float64 {
	features := make(map[uint64]int)
	var per []float64
	for _, run := range t.kernelRuns {
		n, ok := features[run.profile]
		if !ok {
			seen := make(map[[3]uint64]struct{})
			for _, e := range load.Prefill(spec, seed, run.profile) {
				seen[[3]uint64{uint64(e.Slot), uint64(e.Type), e.FID}] = struct{}{}
			}
			n = len(seen)
			features[run.profile] = n
		}
		per = append(per, ratio(float64(run.ns), float64(n)))
	}
	return mean(per)
}

// do runs op at the given depth as request number req.
func (t *tracer) do(depth int, req uint64, op *load.Op) error {
	root := t.rec.begin(rootNames[depth][op.Kind], req, 0)
	t.rec.enter(root)
	var err error
	switch depth {
	case 0:
		err = t.c.do(t.ctx, op)
	case 1:
		err = t.wireRPC(root, op)
	case 2:
		err = t.instance(op)
	default:
		err = t.layers(root, op)
	}
	t.rec.leave()
	root.end()
	if err == nil && depth == 1 {
		err = t.wireProbes(op)
	}
	return err
}

// wireRPC is depth 1: encode, one rpc call to the live service, decode.
func (t *tracer) wireRPC(root handle, op *load.Op) error {
	req, id := root.s.Req, root.s.ID
	var err error
	switch op.Kind {
	case load.TopK:
		fillQuery(&t.req, &op.Query)
		h := t.rec.begin("wire.encode_query", req, id)
		t.payload = wire.AppendQuery(t.payload[:0], &t.req)
		h.end()
		h = t.rec.begin("rpc.call", req, id)
		t.raw, err = t.rpc.CallAppendCtx(t.ctx, wire.MethodTopK, t.payload, t.raw[:0])
		h.end()
		if err != nil {
			return err
		}
		h = t.rec.begin("wire.decode_response", req, id)
		err = wire.DecodeQueryResponseInto(t.raw, &t.resp)
		h.end()
		return err
	case load.Add:
		entries := freshEntries(op.Entries, time.Now().UnixMilli())
		h := t.rec.begin("wire.encode_add", req, id)
		t.payload = wire.EncodeAdd(&wire.AddRequest{Caller: callerName, Table: tableName, ProfileID: op.Profile, Entries: entries})
		h.end()
		method := wire.MethodAdd
		if len(entries) > 1 {
			method = wire.MethodAddBatch
		}
		h = t.rec.begin("rpc.call", req, id)
		_, err = t.rpc.CallCtx(t.ctx, method, t.payload)
		h.end()
		if err == nil {
			t.led.ack(op.Profile, entries)
		}
		return err
	default:
		subs := t.subs(op)
		h := t.rec.begin("wire.encode_batch", req, id)
		t.payload = wire.EncodeQueryBatch(&wire.BatchQueryRequest{Caller: callerName, Subs: subs})
		h.end()
		h = t.rec.begin("rpc.call", req, id)
		t.raw, err = t.rpc.CallAppendCtx(t.ctx, wire.MethodQueryBatchV2, t.payload, t.raw[:0])
		h.end()
		if err != nil {
			return err
		}
		h = t.rec.begin("wire.decode_batch", req, id)
		resp, err := wire.DecodeQueryBatchResponseV2(t.raw)
		h.end()
		if err != nil {
			return err
		}
		t.batchBytes += int64(len(t.raw))
		t.batchSubs += int64(len(subs))
		return batchErr(resp.Results)
	}
}

// wireProbes times the server-side halves of the codec, which a caller
// cannot see from outside a live service, on the bytes the depth-1 call
// just sent and received. They run after the request's root span closed.
func (t *tracer) wireProbes(op *load.Op) error {
	switch op.Kind {
	case load.TopK:
		var q wire.QueryRequest
		h := t.rec.begin("wire.decode_query", 0, 0)
		err := wire.DecodeQueryInto(t.payload, &q, &t.interner)
		h.end()
		if err != nil {
			return err
		}
		h = t.rec.begin("wire.encode_response", 0, 0)
		t.probeBuf = wire.AppendQueryResponse(t.probeBuf[:0], &t.resp)
		h.end()
	case load.Add:
		h := t.rec.begin("wire.decode_add", 0, 0)
		_, err := wire.DecodeAdd(t.payload)
		h.end()
		return err
	}
	return nil
}

func (t *tracer) subs(op *load.Op) []wire.SubQuery {
	subs := make([]wire.SubQuery, len(op.Subs))
	for i := range subs {
		subs[i].Op = wire.OpTopK
		fillQuery(&subs[i].Query, &op.Subs[i])
	}
	return subs
}

func batchErr(results []wire.BatchResult) error {
	for i := range results {
		if results[i].Err != "" || results[i].Resp == nil {
			return fmt.Errorf("batch slot %d: %s", i, results[i].Err)
		}
	}
	return nil
}

// instance is depth 2: the live instance's methods, in-process.
func (t *tracer) instance(op *load.Op) error {
	switch op.Kind {
	case load.TopK:
		fillQuery(&t.req, &op.Query)
		return t.d.inst.QueryInto(t.ctx, &t.req, &t.resp, &t.sc)
	case load.Add:
		entries := freshEntries(op.Entries, time.Now().UnixMilli())
		if err := t.d.inst.AddCtx(t.ctx, callerName, tableName, op.Profile, entries); err != nil {
			return err
		}
		t.led.ack(op.Profile, entries)
		return nil
	default:
		return batchErr(t.d.inst.QueryBatchCtx(t.ctx, callerName, t.subs(op)))
	}
}

// layers is depth 3: the rig's cache, kernel and journal called directly.
// Its writes land in the rig, not the live instance, so the ledger does
// not see them.
func (t *tracer) layers(root handle, op *load.Op) error {
	switch op.Kind {
	case load.TopK:
		return t.rigRead(root, &op.Query)
	case load.Add:
		req, id := root.s.Req, root.s.ID
		entries := freshEntries(op.Entries, time.Now().UnixMilli())
		h := t.rec.begin("wal.append", req, id)
		_, err := t.rig.journal.AppendAdd(t.ctx, tableName, op.Profile, entries)
		h.end()
		if err != nil {
			return err
		}
		h = t.rec.begin("gcache.add", req, id)
		err = t.rig.cache.AddEntriesCtx(t.ctx, op.Profile, entries)
		h.end()
		return err
	default:
		for i := range op.Subs {
			if err := t.rigRead(root, &op.Subs[i]); err != nil {
				return err
			}
		}
		return nil
	}
}

func (t *tracer) rigRead(root handle, q *load.Query) error {
	req, id := root.s.Req, root.s.ID
	fillQuery(&t.req, q)
	h := t.rec.begin("gcache.get", req, id)
	p, _, hot, err := t.rig.cache.GetForRead(t.ctx, q.Profile)
	h.end()
	if err != nil || p == nil {
		return err
	}
	now := time.Now().UnixMilli()
	h = t.rec.begin("query.run", req, id)
	if hot {
		_, err = query.RunSealedScratch(p, t.rig.schema, t.req.ToQuery(), now, &t.sc)
	} else {
		_, err = query.RunScratch(p, t.rig.schema, t.req.ToQuery(), now, &t.sc)
	}
	if ns := h.end(); ns > 0 {
		t.kernelRuns = append(t.kernelRuns, kernelRun{q.Profile, ns})
	}
	return err
}

// replay runs the single-caller closed loop for dur, dealing requests to
// depths round-robin (or to depth 0 only, for the untraced baseline). It
// returns the number of requests and failures and the time spent inside
// the calls.
func (t *tracer) replay(gen *load.Generator, dur time.Duration, depths int) (attempted, failed int64, inCalls time.Duration, firstErr error) {
	start := time.Now()
	var op load.Op
	for n := uint64(1); time.Since(start) < dur; n++ {
		gen.Next(&op)
		attempted++
		t0 := time.Now()
		err := t.do(int(n)%depths, n, &op)
		inCalls += time.Since(t0)
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return attempted, failed, inCalls, firstErr
}

// layerProbes times, on the sampled rig profiles, the layers a request
// only reaches through background threads: persist, snap and compact.
type layerProbes struct {
	persistBytes, snapRatio, slicesBefore, slicesAfter []float64
}

func (t *tracer) probeLayers() (layerProbes, error) {
	var out layerProbes
	cfg := config.Default()
	ids := make([]uint64, 0, len(t.led.sample))
	for id := range t.led.sample {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p, _, err := t.rig.cache.Get(id)
		if err != nil {
			return out, err
		}
		if p == nil {
			return out, fmt.Errorf("probe: profile %d missing from the rig", id)
		}
		p.RLock()
		h := t.rec.begin("persist.save", 0, 0)
		n, err := t.rig.ps.Save(p)
		h.end()
		raw := model.MarshalProfile(p)
		clone := p.Clone()
		p.RUnlock()
		if err != nil {
			return out, err
		}
		out.persistBytes = append(out.persistBytes, float64(n))

		h = t.rec.begin("persist.load", 0, 0)
		_, err = t.rig.ps.Load(id)
		h.end()
		if err != nil {
			return out, err
		}

		h = t.rec.begin("snap.encode", 0, 0)
		enc := snap.Encode(nil, raw)
		h.end()
		h = t.rec.begin("snap.decode", 0, 0)
		dec, err := snap.Decode(nil, enc)
		h.end()
		if err != nil || len(dec) != len(raw) {
			return out, errors.Join(err, fmt.Errorf("probe: snap round trip of profile %d: %d bytes in, %d out", id, len(raw), len(dec)))
		}
		out.snapRatio = append(out.snapRatio, ratio(float64(len(raw)), float64(len(enc))))

		clone.Lock()
		h = t.rec.begin("compact.maintain", 0, 0)
		st := compact.Maintain(clone, t.rig.schema, cfg, time.Now().UnixMilli())
		h.end()
		clone.Unlock()
		out.slicesBefore = append(out.slicesBefore, float64(st.SlicesBefore))
		out.slicesAfter = append(out.slicesAfter, float64(st.SlicesAfter))
	}
	return out, nil
}

// maxRawSpans caps how many raw spans the trace file carries; the
// per-name summary always covers all of them.
const maxRawSpans = 100_000

type spanSummary struct {
	Count  int     `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
}

// write saves the spans to dir/trace-<workload>.json.
func (r *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	summary := make(map[string]spanSummary)
	for name, d := range r.durations() {
		sort.Float64s(d)
		summary[name] = spanSummary{len(d), mean(d), quantile(d, 0.5), quantile(d, 0.99)}
	}
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	doc := struct {
		Workload  string                 `json:"workload"`
		Spans     int                    `json:"spans"`
		Truncated bool                   `json:"truncated"`
		Summary   map[string]spanSummary `json:"summary"`
		Raw       []span                 `json:"raw"`
	}{workload, len(spans), len(spans) > maxRawSpans, summary, spans[:min(len(spans), maxRawSpans)]}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
