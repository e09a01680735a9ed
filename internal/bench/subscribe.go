package bench

// The continuous-query experiment (`-exp sub`): update-propagation
// latency of push-based standing queries versus the poll loops they
// replace, at ten thousand standing queries against one instance.
//
// Shape being reproduced: a pushed update arrives event-driven — write
// visibility plus one standing-query evaluation plus one stream frame —
// while a poll loop pays half its interval in expected staleness before
// it even issues the read. And the cost asymmetry is the real story:
// polling N standing queries at interval T costs N/T reads per second
// forever, whereas the hub evaluates only profiles that actually
// changed. The report states both: ack-to-observed latency (push vs
// poll) and the read amplification equal-freshness polling would need.
//
// Method: every profile gets one standing query over a real
// ips.sub.watch RPC stream (the full wire path: notify -> eval ->
// queue -> pump -> frame -> client decode). A tagged write inserts a
// fresh feature ID; the moment a pushed update (or a poll response)
// first contains that FID is the observation time. Background churn
// writes to other watched profiles keep the subscriber index busy while
// the measured events run. The same tagged events then rerun against
// per-profile poll loops at a fixed interval, with the 10k streams
// still open so both phases carry the standing-query load.
//
// Freshness note: the environment runs with write isolation off, so
// notify fires at accept time and the measured push latency is the
// propagation cost itself. With isolation on (the production default)
// both push and poll visibility are bounded below by the merge window
// (§III-F) — the comparison shifts by the same constant on both sides.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ips/internal/config"
	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/rpc"
	"ips/internal/sub"
	"ips/internal/wire"
)

// SubscribeOptions scales the continuous-query experiment.
type SubscribeOptions struct {
	// Queries is the number of standing queries, one watched profile
	// each, all held open over RPC streams; default 10_000.
	Queries int
	// Events is the number of measured tagged writes per phase;
	// default 240.
	Events int
	// Measured is how many profiles carry the tagged writes and the
	// poll loops; default 64 (capped at Queries/2 so churn has room).
	Measured int
	// PollInterval is the poll-loop cadence the push path is compared
	// against; default 50ms.
	PollInterval time.Duration
	// ChurnPerEvent is how many background writes land on other watched
	// profiles per measured event, keeping the hub's fan-out busy;
	// default 16.
	ChurnPerEvent int
	// Timeout bounds the wait for any single observation; an expiry
	// counts as a lost update and fails the run. Default 10s.
	Timeout time.Duration
	// Seed fixes the churn randomness; default 1.
	Seed int64
}

func (o *SubscribeOptions) fill() {
	if o.Queries <= 0 {
		o.Queries = 10_000
	}
	if o.Events <= 0 {
		o.Events = 240
	}
	if o.Measured <= 0 {
		o.Measured = 64
	}
	if o.Measured > o.Queries/2 {
		o.Measured = (o.Queries + 1) / 2
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 50 * time.Millisecond
	}
	if o.ChurnPerEvent < 0 {
		o.ChurnPerEvent = 0
	} else if o.ChurnPerEvent == 0 {
		o.ChurnPerEvent = 16
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// SubscribeReport is the measured result of both phases.
type SubscribeReport struct {
	Queries      int
	Events       int
	Measured     int
	PollInterval time.Duration

	// Setup is open-10k-streams to every baseline delivered.
	Setup time.Duration

	PushP50, PushP99 time.Duration
	PollP50, PollP99 time.Duration

	// PushEvals counts standing-query evaluations during the push
	// window; PollEquivReadsPerSec is what equal-freshness polling
	// would cost across every standing query, forever.
	PushEvals            int64
	PushWindow           time.Duration
	PollReads            int64
	PollWindow           time.Duration
	PollEquivReadsPerSec float64

	// Hub counters over the whole run (OPERATIONS.md sub_* catalog).
	Pushes, Drops, Resyncs, Skips int64

	// Conservation: Lost counts tagged writes never observed within the
	// timeout; SeqGaps counts per-stream sequence discontinuities. Both
	// must be zero.
	Lost    int
	SeqGaps int
}

// tagObserver matches pushed or polled results against the one
// outstanding tagged FID per measured profile.
type tagObserver struct {
	mu      sync.Mutex
	pending map[model.ProfileID]pendingTag
}

type pendingTag struct {
	fid uint64
	ch  chan time.Time
}

func newTagObserver() *tagObserver {
	return &tagObserver{pending: make(map[model.ProfileID]pendingTag)}
}

// expect arms the observer: the next result for pid containing fid
// resolves the returned channel with its observation time.
func (o *tagObserver) expect(pid model.ProfileID, fid uint64) chan time.Time {
	ch := make(chan time.Time, 1)
	o.mu.Lock()
	o.pending[pid] = pendingTag{fid: fid, ch: ch}
	o.mu.Unlock()
	return ch
}

// observe checks one result against the pending tag for pid.
func (o *tagObserver) observe(pid model.ProfileID, features []query.Feature, now time.Time) {
	o.mu.Lock()
	p, ok := o.pending[pid]
	if ok {
		for i := range features {
			if features[i].FID == p.fid {
				delete(o.pending, pid)
				o.mu.Unlock()
				p.ch <- now
				return
			}
		}
	}
	o.mu.Unlock()
}

// tagFIDBase keeps measured feature IDs clear of prefill and churn FIDs.
const tagFIDBase = 1 << 40

// RunSubscribe measures push vs poll update propagation at 10k standing
// queries.
func RunSubscribe(opts SubscribeOptions, w io.Writer) (*SubscribeReport, error) {
	opts.fill()
	cfg := config.Default()
	cfg.WriteIsolation = false // notify at accept time; see freshness note above
	env, err := NewEnv(EnvOptions{Config: &cfg})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	if err := env.Prefill(opts.Queries, 4, 3_600_000); err != nil {
		return nil, err
	}
	actions := 3 // EnvOptions default like/comment/share
	hub := env.Instance.Hub()

	rep := &SubscribeReport{
		Queries: opts.Queries, Events: opts.Events, Measured: opts.Measured,
		PollInterval:         opts.PollInterval,
		PollEquivReadsPerSec: float64(opts.Queries) / opts.PollInterval.Seconds(),
	}

	// --- setup: one standing query per profile, all over real streams ---
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	rcs := make([]*rpc.Client, 4)
	for i := range rcs {
		rc := rpc.NewClient(env.Addr)
		rc.PoolSize = 4
		rcs[i] = rc
		defer rc.Close()
	}
	pushObs := newTagObserver()
	var baselines, seqGaps atomic.Int64
	var wg sync.WaitGroup
	streams := make([]*rpc.ClientStream, 0, opts.Queries)
	setupStart := time.Now()
	for id := model.ProfileID(1); id <= model.ProfileID(opts.Queries); id++ {
		pipeline := fmt.Sprintf("source(%s, %d) | slot(1) | topk(64)", TableName, id)
		st, err := rcs[int(id)%len(rcs)].Stream(sctx, wire.MethodSubWatch,
			wire.EncodeSubscribe(&wire.SubscribeRequest{Caller: "bench-sub", Pipeline: pipeline}))
		if err != nil {
			return nil, fmt.Errorf("bench: open stream %d: %w", id, err)
		}
		streams = append(streams, st)
		wg.Add(1)
		go func(pid model.ProfileID, st *rpc.ClientStream) {
			defer wg.Done()
			var lastSeq uint64
			var u wire.SubUpdate
			for {
				raw, err := st.Recv(sctx)
				if err != nil {
					return
				}
				now := time.Now()
				if err := wire.DecodeSubUpdateInto(raw, &u); err != nil {
					return
				}
				// Delivered sequence numbers are gapless per (stream,
				// profile) even across drops; Resync, not a gap, signals
				// loss.
				if u.Seq != lastSeq+1 {
					seqGaps.Add(1)
				}
				lastSeq = u.Seq
				if u.Resync {
					baselines.Add(1)
				}
				pushObs.observe(pid, u.Result.Features, now)
			}
		}(id, st)
	}
	defer func() {
		scancel()
		for _, st := range streams {
			st.Close()
		}
		wg.Wait()
	}()
	for deadline := time.Now().Add(2 * time.Minute); baselines.Load() < int64(opts.Queries); {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: only %d/%d baselines after 2m", baselines.Load(), opts.Queries)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep.Setup = time.Since(setupStart)

	// Measured events cycle over profiles 1..Measured; churn lands on the
	// rest so it never races a pending tag.
	rng := rand.New(rand.NewSource(opts.Seed))
	churnSpan := opts.Queries - opts.Measured
	churn := func() error {
		for j := 0; j < opts.ChurnPerEvent && churnSpan > 0; j++ {
			pid := model.ProfileID(opts.Measured + 1 + rng.Intn(churnSpan))
			counts := make([]int64, actions)
			counts[rng.Intn(actions)] = 1
			if err := env.Instance.Add("bench-churn", TableName, pid, []wire.AddEntry{{
				Timestamp: env.Clock.Now() - 1000, Slot: 1, Type: 1,
				FID: uint64(1 + rng.Intn(512)), Counts: counts,
			}}); err != nil {
				return err
			}
		}
		return nil
	}
	fidSerial := uint64(0)
	runEvents := func(obs *tagObserver) ([]time.Duration, int, error) {
		samples := make([]time.Duration, 0, opts.Events)
		lost := 0
		for i := 0; i < opts.Events; i++ {
			pid := model.ProfileID(1 + i%opts.Measured)
			fidSerial++
			fid := tagFIDBase + fidSerial
			if err := churn(); err != nil {
				return nil, 0, err
			}
			ch := obs.expect(pid, fid)
			counts := make([]int64, actions)
			counts[0] = 1000 // dominate ByTotal so the tag stays inside topk
			t0 := time.Now()
			if err := env.Client.Add(TableName, pid, wire.AddEntry{
				Timestamp: env.Clock.Now() - 1000, Slot: 1, Type: 1, FID: fid, Counts: counts,
			}); err != nil {
				return nil, 0, err
			}
			select {
			case tr := <-ch:
				samples = append(samples, tr.Sub(t0))
			case <-time.After(opts.Timeout):
				lost++
			}
		}
		return samples, lost, nil
	}

	// --- push phase ---
	evalsBefore := hub.Evals.Value()
	pushStart := time.Now()
	pushSamples, pushLost, err := runEvents(pushObs)
	if err != nil {
		return nil, err
	}
	rep.PushWindow = time.Since(pushStart)
	rep.PushEvals = hub.Evals.Value() - evalsBefore

	// --- poll phase: same tagged events, observed by poll loops; the 10k
	// streams stay open so both phases carry the standing-query load ---
	template, err := sub.Parse(fmt.Sprintf("source(%s, 1) | slot(1) | topk(64)", TableName))
	if err != nil {
		return nil, err
	}
	pollObs := newTagObserver()
	pollCtx, pollCancel := context.WithCancel(context.Background())
	var pollReads atomic.Int64
	var pollWG sync.WaitGroup
	for i := 0; i < opts.Measured; i++ {
		pollWG.Add(1)
		go func(pid model.ProfileID) {
			defer pollWG.Done()
			req := template.Req
			req.Table, req.ProfileID = TableName, pid
			t := time.NewTicker(opts.PollInterval)
			defer t.Stop()
			for {
				select {
				case <-pollCtx.Done():
					return
				case <-t.C:
				}
				resp, err := env.Client.TopK(&req)
				pollReads.Add(1)
				if err != nil {
					continue
				}
				pollObs.observe(pid, resp.Features, time.Now())
			}
		}(model.ProfileID(1 + i))
	}
	pollStart := time.Now()
	pollSamples, pollLost, err := runEvents(pollObs)
	pollCancel()
	pollWG.Wait()
	if err != nil {
		return nil, err
	}
	rep.PollWindow = time.Since(pollStart)
	rep.PollReads = pollReads.Load()

	rep.Lost = pushLost + pollLost
	rep.SeqGaps = int(seqGaps.Load())
	rep.Pushes = hub.Pushes.Value()
	rep.Drops = hub.Drops.Value()
	rep.Resyncs = hub.Resyncs.Value()
	rep.Skips = hub.Skips.Value()
	if len(pushSamples) > 0 {
		_, rep.PushP99 = exactMeanP99(pushSamples)
		rep.PushP50 = median(pushSamples)
	}
	if len(pollSamples) > 0 {
		_, rep.PollP99 = exactMeanP99(pollSamples)
		rep.PollP50 = median(pollSamples)
	}

	fprintf(w, "continuous queries vs polling: %d standing queries over loopback RPC streams\n", rep.Queries)
	fprintf(w, "setup: %d subscriptions baselined in %s\n", rep.Queries, ms(rep.Setup))
	fprintf(w, "push:       p50 %s  p99 %s  (%d events; write issued -> pushed update decoded)\n",
		ms(rep.PushP50), ms(rep.PushP99), len(pushSamples))
	fprintf(w, "poll(%v):  p50 %s  p99 %s  (%d events; write issued -> next poll observes it)\n",
		opts.PollInterval, ms(rep.PollP50), ms(rep.PollP99), len(pollSamples))
	fprintf(w, "cost: push ran %d evals in its %s window; equal-freshness polling needs %.0f reads/s across %d queries (measured poll loops issued %d reads over %d profiles)\n",
		rep.PushEvals, ms(rep.PushWindow),
		rep.PollEquivReadsPerSec, rep.Queries, rep.PollReads, rep.Measured)
	fprintf(w, "hub: pushes=%d drops=%d resyncs=%d skips=%d; lost=%d seq_gaps=%d\n",
		rep.Pushes, rep.Drops, rep.Resyncs, rep.Skips, rep.Lost, rep.SeqGaps)
	fprintf(w, "shape: pushed updates arrive event-driven while a poll loop pays ~interval/2 median staleness; the hub evaluates only changed profiles, polling pays N/T reads/s regardless of write rate\n")

	if rep.Lost > 0 {
		return rep, fmt.Errorf("bench: %d tagged writes never observed (conservation broken)", rep.Lost)
	}
	if rep.SeqGaps > 0 {
		return rep, fmt.Errorf("bench: %d sequence gaps on delivered streams", rep.SeqGaps)
	}
	return rep, nil
}
