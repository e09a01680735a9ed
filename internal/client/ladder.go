package client

// The read path's degradation ladder (DESIGN.md "Degradation ladder"),
// run without goroutines: every attempt is an rpc.Call started
// asynchronously, and the calling goroutine itself selects over the
// attempts it has in flight and its hedge and retry timers. A read runs
// in two steps: begin routes it and starts its first attempt, drive waits
// it out. A single read takes the two back to back; a batch (batch.go)
// begins all of its reads before it drives any. The steady state — the
// primary answers before the hedge delay — spawns nothing. Only when a
// race is decided with attempts still in flight (a hedge fired, a dual
// read) are the leftovers handed to a reaper goroutine.

import (
	"context"
	"sync"
	"time"

	"ips/internal/model"
	"ips/internal/rpc"
	"ips/internal/trace"
)

// attemptKind labels a read-path RPC launch for exact accounting.
type attemptKind int

const (
	attemptPrimary attemptKind = iota
	attemptRetry
	attemptHedge
	attemptDual
)

// attempt is one started read RPC.
type attempt struct {
	call *rpc.Call
	tgt  target
	kind attemptKind
	span trace.SpanRef
}

// maxRace is how many attempts one read can have in flight at once. The
// ladder never exceeds two (primary + hedge, or one survivor + a retry; a
// dual read's two legs), the third slot is headroom.
const maxRace = 3

// target is one RPC destination: an instance and the pooled client that
// reaches it, both taken from one routing snapshot.
type target struct {
	addr string
	conn *rpc.Client
}

// race is one read: the attempts it has in flight and the ladder state
// begin leaves for drive. A single read keeps it on the reading
// goroutine's stack.
type race struct {
	c       *Client
	ctx     context.Context
	method  string
	payload []byte
	// queue makes start leave its frames unwritten; the batch sets it
	// while it begins its reads and then flushes each connection once.
	queue    bool
	att      [maxRace]attempt // call == nil marks a free slot
	inflight int

	rt   *routes
	id   model.ProfileID
	dual bool // a window read: drive waits for its owners, not the ladder

	// The ladder: id's candidates (in ladder, or in spill when there are
	// more than ladderLen), the next one to try, the retries drawn so far
	// and the last failure.
	ladder         [ladderLen]target
	spill          []target
	ncand, next    int
	retries        int
	lastErr        error
	hedgeT, retryT *time.Timer
}

// start issues one read RPC to tgt, feeding the attempt counters. Each
// attempt gets its own span (client.primary / client.retry /
// client.hedge / client.dual) so a trace shows exactly which attempt
// carried the winning response. An attempt that fails before anything
// was sent (no connection) is settled here and its error returned; it
// still counts as an attempt, exactly as one that failed on the wire.
func (r *race) start(tgt target, kind attemptKind) error {
	slot := 0
	for slot < maxRace && r.att[slot].call != nil {
		slot++
	}
	c := r.c
	c.Attempts.Inc()
	stage := trace.StageClientPrimary
	switch kind {
	case attemptPrimary:
		c.Primaries.Inc()
	case attemptRetry:
		c.Retries.Inc()
		c.Failovers.Inc()
		stage = trace.StageClientRetry
	case attemptHedge:
		c.Hedges.Inc()
		stage = trace.StageClientHedge
	case attemptDual:
		c.Duals.Inc()
		stage = trace.StageClientDual
	}
	actx, sp := trace.StartSpan(r.ctx, stage)
	a := attempt{tgt: tgt, kind: kind, span: sp}
	var err error
	if r.queue {
		a.call, err = tgt.conn.Queue(actx, r.method, r.payload)
	} else {
		a.call, err = tgt.conn.Start(actx, r.method, r.payload)
	}
	if err != nil {
		c.settle(&a, err)
		return err
	}
	r.att[slot] = a
	r.inflight++
	return nil
}

// Timer outcomes of race.wait; attempt outcomes are slot indices >= 0.
const (
	firedHedge = -1
	firedRetry = -2
)

// wait blocks until one in-flight attempt completes (returning its slot)
// or the hedge or retry timer fires. The caller guarantees something can.
func (r *race) wait() int {
	select {
	case <-r.done(0):
		return 0
	case <-r.done(1):
		return 1
	case <-r.done(2):
		return 2
	case <-timerC(r.hedgeT):
		return firedHedge
	case <-timerC(r.retryT):
		return firedRetry
	}
}

func (r *race) done(slot int) <-chan struct{} {
	if call := r.att[slot].call; call != nil {
		return call.Done()
	}
	return nil
}

// finish collects the completed attempt in slot: its response is appended
// to dst, its breaker, span and hedge accounting are settled, and the
// slot is freed.
func (r *race) finish(slot int, dst []byte) (attemptKind, []byte, error) {
	a := r.att[slot]
	r.att[slot] = attempt{}
	r.inflight--
	raw, err := a.call.Finish(dst)
	r.c.settle(&a, err)
	return a.kind, raw, err
}

// settle closes one attempt's books: its span, its instance's breaker,
// and the hedge cap if it was a hedge.
func (c *Client) settle(a *attempt, err error) {
	a.span.EndErr(err)
	if c.Breaker != nil {
		c.Breaker.Record(a.tgt.addr, transportOK(err))
	}
	if a.kind == attemptHedge {
		c.hedgeInFlight.Add(-1)
	}
}

// abandon ends a decided race. Attempts still in flight are handed to a
// reaper goroutine that waits each out — every call completes by its own
// timeout at the latest — and settles it exactly as if the reader had
// still been there, so a blackholed primary whose hedge won still feeds
// its timeout to the breaker. With nothing in flight (the steady state)
// it does nothing.
func (r *race) abandon() {
	if r.inflight == 0 {
		return
	}
	c, left := r.c, r.att
	r.att, r.inflight = [maxRace]attempt{}, 0
	// Close waits for the reaper — unless it has already begun: then every
	// connection is down, the leftovers have failed, and the reaper ends
	// on its own at once. Decided under mu so that Add cannot race Wait.
	c.mu.Lock()
	tracked := !c.closed
	if tracked {
		c.closeWG.Add(1)
	}
	c.mu.Unlock()
	go func() {
		c.reap(left)
		if tracked {
			c.closeWG.Done()
		}
	}()
}

func (c *Client) reap(left [maxRace]attempt) {
	for i := range left {
		a := &left[i]
		if a.call == nil {
			continue
		}
		<-a.call.Done()
		_, err := a.call.Finish(nil)
		c.settle(a, err)
	}
}

// timerPool recycles the ladder's hedge and retry timers; a timer goes
// back Reset-able (stopped and drained).
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer recycles t; nil is a no-op.
func putTimer(t *time.Timer) {
	if t == nil {
		return
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// ladderLen is the stack capacity of a read's candidate list: Retries (2
// by default) candidates in each of up to four regions. A longer ladder
// spills to the heap.
const ladderLen = 8

// candidates appends to dst the failover ladder for id — ring owner plus
// successors in the local region first, then the other regions — with
// breaker-ready instances ahead of ones currently skipped, so a broken
// primary costs a reorder instead of a timeout.
func (c *Client) candidates(rt *routes, id model.ProfileID, dst []target) []target {
	var blockedArr [ladderLen]target
	blocked := blockedArr[:0]
	var addrArr [ladderLen]string
	for _, rs := range rt.regions {
	nextAddr:
		for _, addr := range rs.ring.AppendN(addrArr[:0], id, c.opts.Retries) {
			for _, have := range dst {
				if have.addr == addr {
					continue nextAddr
				}
			}
			for _, have := range blocked {
				if have.addr == addr {
					continue nextAddr
				}
			}
			t := rs.target(addr)
			if c.Breaker != nil && !c.Breaker.Ready(addr) {
				blocked = append(blocked, t)
				continue
			}
			dst = append(dst, t)
		}
	}
	return append(dst, blocked...)
}

// readCall routes one idempotent read and appends the response to dst.
func (c *Client) readCall(ctx context.Context, method string, payload []byte, id model.ProfileID, dst []byte) ([]byte, error) {
	r := race{c: c, ctx: ctx, method: method, payload: payload}
	r.begin(c.routes.Load(), id)
	return r.drive(dst)
}

// begin routes the read of id and starts its first attempts. A key inside
// a migration window (its authority and old owners differ in the first
// region that has an owner at all) starts a dual read; everything else —
// the entire steady state — starts the ladder's primary.
//
// Breakers gate the window's legs old-first, because Allow is committal
// (it may admit a half-open probe that must then actually be issued):
// with the old owner refused the ladder is the only path left and no
// admission has been consumed; with the old owner admitted but the
// authority refused, the read is served from the old owner alone — its
// copy is the preferred response anyway, and the ladder would route on
// the authority ring, whose owner (and ring-neighbor failover
// candidates) may not hold the profile's migrated content yet, turning
// a breaker skip into an empty-but-successful answer.
func (r *race) begin(rt *routes, id model.ProfileID) {
	c := r.c
	r.rt, r.id = rt, id
	for _, rs := range rt.regions {
		auth, old := rs.owners(id)
		if auth == "" {
			continue
		}
		if old == "" {
			break
		}
		if c.Breaker != nil && !c.Breaker.Allow(old) {
			// Old owner breaker-blocked: the ladder knows how to wait
			// breakers out.
			break
		}
		c.budget.onPrimary()
		r.dual = true
		// The authority leg's refusal or failure to start is kept for
		// drive.
		if c.Breaker != nil && !c.Breaker.Allow(auth) {
			r.lastErr = ErrBreakerOpen
		} else {
			r.lastErr = r.start(rs.target(auth), attemptPrimary)
		}
		_ = r.start(rs.target(old), attemptDual)
		return
	}
	r.beginLadder()
}

// drive waits out the read begin started and appends its response to
// dst. A window read whose owners both fail falls back to the full ladder
// rather than surfacing a window-shaped error to the caller.
func (r *race) drive(dst []byte) ([]byte, error) {
	if r.dual {
		if raw, ok := r.driveDual(dst); ok {
			return raw, nil
		}
		r.beginLadder()
	}
	return r.driveLadder(dst)
}

// driveDual waits out a migrating key's two owners and prefers the
// outgoing owner's response: inside the window its copy is a superset of
// the incoming owner's (acknowledged dual-writes land on both while
// profile state only flows old→new), so the preference needs no
// watermark comparison — journal LSNs from different instances are not
// comparable anyway. The old leg's success returns immediately, without
// waiting for the authority: a stalled or still-warming authority (a node
// mid-join) must not add its latency to every in-window read. The
// authority attempt is still not wasted — it warms the incoming owner's
// cache, and its result is waited for (and used) only once the old leg
// has failed. It reports false when both legs failed.
func (r *race) driveDual(dst []byte) ([]byte, bool) {
	// Each leg's response is appended at the same place in dst: only one
	// of the two is ever returned. authErr is nil while the authority leg
	// is in flight or once it has answered.
	authErr := r.lastErr
	var authRaw []byte
	for r.inflight > 0 {
		kind, raw, err := r.finish(r.wait(), dst)
		switch {
		case kind == attemptPrimary:
			// Remember the authority outcome but keep waiting on the old
			// leg: even a successful authority answer may be missing
			// content its cache has not received yet.
			authErr, authRaw = err, raw
		case err == nil:
			// DualWins counts only authority failures (a breaker refusal
			// included) observed before the old leg answered; an
			// authority still in flight here is left to the reaper
			// unjudged.
			if authErr != nil {
				r.c.DualWins.Inc()
			}
			r.abandon()
			return raw, true
		}
	}
	return authRaw, authErr == nil
}

// answered reports whether an in-flight attempt's outcome is already in.
func (r *race) answered() bool {
	for i := range r.att {
		if call := r.att[i].call; call != nil && len(call.Done()) > 0 {
			return true
		}
	}
	return false
}

// beginLadder picks id's candidates, earns the read its primary's share
// of retry budget, starts the primary on the first breaker-admitted
// candidate and arms the hedge timer — so a hedge fires hedgeDelay after
// the primary started, however late drive gets to it.
func (r *race) beginLadder() {
	c := r.c
	r.dual, r.spill, r.next, r.retries, r.lastErr = false, nil, 0, 0, nil
	psp := trace.StartLeaf(r.ctx, trace.StageClientPick)
	cands := c.candidates(r.rt, r.id, r.ladder[:0])
	psp.End()
	r.ncand = len(cands)
	if r.ncand > ladderLen {
		// Copied, not kept: cands may alias r.ladder.
		r.spill = append([]target(nil), cands...)
	}
	if r.ncand == 0 {
		r.lastErr = ErrNoInstances
		return
	}
	c.budget.onPrimary()
	if !r.issue(attemptPrimary) {
		// Whole ladder breaker-refused: fail fast. The breakers admit
		// probes once their cooldowns elapse, so this clears itself.
		r.lastErr = ErrBreakerOpen
		return
	}
	if r.next < r.ncand && r.lastErr == nil {
		if hd := c.hedgeDelay(); hd >= 0 {
			r.hedgeT = getTimer(hd)
		}
	}
}

// cand returns the ladder's i-th candidate.
func (r *race) cand(i int) target {
	if r.spill != nil {
		return r.spill[i]
	}
	return r.ladder[i]
}

// issue starts the next admissible candidate; breaker-refused ones are
// skipped (they fail fast locally instead of eating a timeout).
func (r *race) issue(kind attemptKind) bool {
	for r.next < r.ncand {
		tgt := r.cand(r.next)
		r.next++
		if r.c.Breaker != nil && !r.c.Breaker.Allow(tgt.addr) {
			continue
		}
		if err := r.start(tgt, kind); err != nil {
			r.failed(err)
		}
		return true
	}
	return false
}

// failed puts the ladder in retry mode after an attempt's failure: the
// hedge timer only guards against a *slow* healthy primary, and the next
// candidate is tried after a budgeted, jittered backoff.
func (r *race) failed(err error) {
	c := r.c
	r.lastErr = err
	putTimer(r.hedgeT)
	r.hedgeT = nil
	if r.retryT == nil && r.next < r.ncand {
		if c.budget.allow() {
			r.retryT = getTimer(c.boff.delay(r.retries))
			r.retries++
		} else {
			c.RetriesDenied.Inc()
		}
	}
}

// driveLadder runs the ladder beginLadder started to its end — the one
// loop every read's hedging, retries and backoff run in. A primary that
// dawdles past the hedge delay is raced by a single duplicate from the
// next candidate; failures walk the remaining candidates under the retry
// budget with jittered exponential backoff. The first success wins.
func (r *race) driveLadder(dst []byte) ([]byte, error) {
	c := r.c
	var raw []byte
	won := false
	for !won && (r.inflight > 0 || r.retryT != nil) {
		switch slot := r.wait(); slot {
		case firedHedge:
			putTimer(r.hedgeT)
			r.hedgeT = nil
			// An attempt whose answer is already in is collected first: a
			// batch drives its reads one after another, so a hedge timer
			// can be long past due when drive gets to it.
			if !r.answered() && c.hedgeAcquire() && !r.issue(attemptHedge) {
				c.hedgeInFlight.Add(-1)
			}
		case firedRetry:
			putTimer(r.retryT)
			r.retryT = nil
			r.issue(attemptRetry)
		default:
			kind, res, err := r.finish(slot, dst)
			if err != nil {
				r.failed(err)
				break
			}
			if kind == attemptHedge {
				c.HedgeWins.Inc()
			}
			raw, won = res, true
		}
	}
	putTimer(r.hedgeT)
	putTimer(r.retryT)
	r.hedgeT, r.retryT = nil, nil
	r.abandon()
	switch {
	case won:
		return raw, nil
	case r.lastErr == nil:
		return dst, ErrNoInstances
	}
	return dst, r.lastErr
}

// timerC is t's channel; nil (never fires) for a nil timer.
func timerC(t *time.Timer) <-chan time.Time {
	if t == nil {
		return nil
	}
	return t.C
}
