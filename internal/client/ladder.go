package client

// The read path's degradation ladder (DESIGN.md "Degradation ladder"),
// run without goroutines: every attempt is an rpc.Call started
// asynchronously, and the calling goroutine itself selects over the
// attempts it has in flight and its hedge and retry timers. The steady
// state — the primary answers before the hedge delay — spawns nothing.
// Only when a race is decided with attempts still in flight (a hedge
// fired, a dual read) are the leftovers handed to a reaper goroutine.

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
	tgt  batchTarget
	kind attemptKind
	span trace.SpanRef
}

// maxRace is how many attempts one read can have in flight at once. The
// ladder never exceeds two (primary + hedge, or one survivor + a retry; a
// dual read's two legs), the third slot is headroom.
const maxRace = 3

// race is the set of attempts one read has in flight. It lives on the
// reading goroutine's stack.
type race struct {
	c        *Client
	ctx      context.Context
	method   string
	payload  []byte
	att      [maxRace]attempt // call == nil marks a free slot
	inflight int
}

// start issues one read RPC to tgt, feeding the attempt counters. Each
// attempt gets its own span (client.primary / client.retry /
// client.hedge / client.dual) so a trace shows exactly which attempt
// carried the winning response. An attempt that fails before anything
// was sent (no connection) is settled here and its error returned; it
// still counts as an attempt, exactly as one that failed on the wire.
func (r *race) start(tgt batchTarget, kind attemptKind) error {
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
	if a.call, err = tgt.conn.Start(actx, r.method, r.payload); err != nil {
		c.settle(&a, err)
		return err
	}
	r.att[slot] = a
	r.inflight++
	return nil
}

// Timer outcomes of race.wait; attempt outcomes are slot indices >= 0.
const (
	firedFirst  = -1
	firedSecond = -2
)

// wait blocks until one in-flight attempt completes (returning its slot)
// or one of the two timer channels fires. A nil channel never fires; the
// caller guarantees something can.
func (r *race) wait(first, second <-chan time.Time) int {
	select {
	case <-r.done(0):
		return 0
	case <-r.done(1):
		return 1
	case <-r.done(2):
		return 2
	case <-first:
		return firedFirst
	case <-second:
		return firedSecond
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
func (c *Client) candidates(rt *routes, id model.ProfileID, dst []batchTarget) []batchTarget {
	var blockedArr [ladderLen]batchTarget
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

// readCall routes one idempotent read, appending the response to dst. A
// key inside a migration window (its authority and old owners differ in
// the first region that has an owner at all) takes the dual-read path;
// everything else — the entire steady state — takes the resilient ladder
// unchanged.
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
func (c *Client) readCall(ctx context.Context, method string, payload []byte, id model.ProfileID, dst []byte) ([]byte, error) {
	rt := c.routes.Load()
	r := race{c: c, ctx: ctx, method: method, payload: payload}
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
		if c.Breaker != nil && !c.Breaker.Allow(auth) {
			return r.oldOnlyRead(rt, rs.target(old), id, dst)
		}
		return r.dualRead(rt, rs.target(auth), rs.target(old), id, dst)
	}
	return r.resilientCall(rt, id, dst)
}

// oldOnlyRead serves an in-window read from the outgoing owner alone —
// the path taken when the incoming (authority) owner is breaker-blocked.
// The old owner's answer is the one dualRead would prefer regardless, so
// skipping the blocked authority leg costs nothing; only if the old
// owner also fails does the request fall back to the resilient ladder.
func (r *race) oldOnlyRead(rt *routes, old batchTarget, id model.ProfileID, dst []byte) ([]byte, error) {
	r.c.budget.onPrimary()
	if r.start(old, attemptDual) == nil {
		if _, raw, err := r.finish(r.wait(nil, nil), dst); err == nil {
			r.c.DualWins.Inc()
			return raw, nil
		}
	}
	return r.resilientCall(rt, id, dst)
}

// dualRead races a migrating key's two owners and prefers the outgoing
// owner's response: inside the window its copy is a superset of the
// incoming owner's (acknowledged dual-writes land on both while profile
// state only flows old→new), so the preference needs no watermark
// comparison — journal LSNs from different instances are not comparable
// anyway. The old leg's success returns immediately, without waiting for
// the authority: a stalled or still-warming authority (a node mid-join)
// must not add its latency to every in-window read. The authority
// attempt is still not wasted — it warms the incoming owner's cache, and
// its result is waited for (and used) only once the old leg has failed.
// Should both fail, the request falls back to the full resilient ladder
// rather than surfacing a window-shaped error to the caller.
func (r *race) dualRead(rt *routes, auth, old batchTarget, id model.ProfileID, dst []byte) ([]byte, error) {
	c := r.c
	c.budget.onPrimary()
	// Each leg's response is appended at the same place in dst: only one
	// of the two is ever returned.
	authErr := r.start(auth, attemptPrimary)
	authDone := authErr != nil
	var authRaw []byte
	oldDone := r.start(old, attemptDual) != nil
	for !oldDone {
		kind, raw, err := r.finish(r.wait(nil, nil), dst)
		if kind == attemptPrimary {
			// Remember the authority outcome but keep waiting on the old
			// leg: even a successful authority answer may be missing
			// content its cache has not received yet.
			authDone, authErr, authRaw = true, err, raw
			continue
		}
		if err == nil {
			// DualWins counts only authority failures observed before the
			// old leg answered; an authority still in flight here is left
			// to the reaper unjudged.
			if authDone && authErr != nil {
				c.DualWins.Inc()
			}
			r.abandon()
			return raw, nil
		}
		oldDone = true
	}
	if !authDone {
		_, authRaw, authErr = r.finish(r.wait(nil, nil), dst)
	}
	if authErr == nil {
		return authRaw, nil
	}
	return r.resilientCall(rt, id, dst)
}

// resilientCall runs one idempotent read against id's candidate ladder:
// the primary goes to the first breaker-admitted candidate; if it dawdles
// past the hedge delay a single duplicate races it from the next
// candidate; failures walk the remaining ladder under the retry budget
// with jittered exponential backoff. The first success wins.
func (r *race) resilientCall(rt *routes, id model.ProfileID, dst []byte) ([]byte, error) {
	c := r.c
	psp := trace.StartLeaf(r.ctx, trace.StageClientPick)
	var ladder [ladderLen]batchTarget
	cands := c.candidates(rt, id, ladder[:0])
	psp.End()
	if len(cands) == 0 {
		return dst, ErrNoInstances
	}
	c.budget.onPrimary()

	var hedgeT, retryT *time.Timer
	var hedgeCh, retryCh <-chan time.Time
	var lastErr error
	next, retries := 0, 0
	// failed puts the ladder in retry mode after an attempt's failure: the
	// hedge timer only guards against a *slow* healthy primary, and the
	// next candidate is tried after a budgeted, jittered backoff.
	failed := func(err error) {
		lastErr = err
		putTimer(hedgeT)
		hedgeT, hedgeCh = nil, nil
		if retryCh == nil && next < len(cands) {
			if c.budget.allow() {
				retryT = getTimer(c.boff.delay(retries))
				retryCh = retryT.C
				retries++
			} else {
				c.RetriesDenied.Inc()
			}
		}
	}
	// issue starts the next admissible candidate; breaker-refused ones are
	// skipped (they fail fast locally instead of eating a timeout).
	issue := func(kind attemptKind) bool {
		for next < len(cands) {
			tgt := cands[next]
			next++
			if c.Breaker != nil && !c.Breaker.Allow(tgt.addr) {
				continue
			}
			if err := r.start(tgt, kind); err != nil {
				failed(err)
			}
			return true
		}
		return false
	}

	if !issue(attemptPrimary) {
		// Whole ladder breaker-refused: fail fast. The breakers admit
		// probes once their cooldowns elapse, so this clears itself.
		return dst, ErrBreakerOpen
	}
	if next < len(cands) && lastErr == nil {
		if hd := c.hedgeDelay(); hd >= 0 {
			hedgeT = getTimer(hd)
			hedgeCh = hedgeT.C
		}
	}
	var raw []byte
	won := false
	for !won {
		if r.inflight == 0 && retryCh == nil {
			if lastErr == nil {
				lastErr = ErrNoInstances
			}
			break
		}
		switch slot := r.wait(hedgeCh, retryCh); slot {
		case firedFirst:
			putTimer(hedgeT)
			hedgeT, hedgeCh = nil, nil
			if c.hedgeAcquire() && !issue(attemptHedge) {
				c.hedgeInFlight.Add(-1)
			}
		case firedSecond:
			putTimer(retryT)
			retryT, retryCh = nil, nil
			issue(attemptRetry)
		default:
			kind, res, err := r.finish(slot, dst)
			if err != nil {
				failed(err)
				break
			}
			if kind == attemptHedge {
				c.HedgeWins.Inc()
			}
			raw, won = res, true
		}
	}
	putTimer(hedgeT)
	putTimer(retryT)
	r.abandon()
	if !won {
		return dst, lastErr
	}
	return raw, nil
}
