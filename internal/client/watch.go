package client

// Continuous queries, client half (DESIGN.md "Continuous queries"): a
// Subscription parses one pipeline program, shards its watched profile
// IDs by authority-ring owner, and keeps one ips.sub.watch stream open
// per owner. A manager goroutine reconciles the owner assignment
// against discovery on every refresh tick and after any stream death,
// so subscriptions survive reconnects and migration windows without
// caller involvement — the server's Resync-flagged baseline after each
// (re)open doubles as the recovery mechanism: whatever the old stream
// missed, the new stream's first update per profile replaces wholesale.
//
// Subscription counters are deliberately separate from the read-path
// attempt accounting: stream opens are not query attempts, so the
// Attempts == Primaries + Retries + Hedges + Duals invariant the chaos
// harness reconciles is untouched by watch traffic.

import (
	"context"
	"errors"
	"sync"
	"time"

	"ips/internal/model"
	"ips/internal/sub"
	"ips/internal/wire"
)

// ErrSubscriptionClosed is returned by Recv after Close (or after the
// subscription's parent context was canceled).
var ErrSubscriptionClosed = errors.New("client: subscription closed")

// resubscribeBackoff spaces reconcile passes triggered by stream
// deaths, so a persistently unreachable owner costs one reopen attempt
// per interval instead of a hot loop.
const resubscribeBackoff = 100 * time.Millisecond

// Subscription is one standing query: updates for every watched profile
// arrive on Updates / Recv until Close. Updates carry a per-profile
// sequence number that is gapless within one server stream; after a
// transparent resubscribe (reconnect or ring change) the sequence
// restarts with a Resync-flagged full answer — consumers treat Resync
// as "replace everything you hold for this profile".
type Subscription struct {
	c      *Client
	q      *sub.Query
	ch     chan *wire.SubUpdate
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	streams map[string]*ownerStream // addr -> live stream worker

	// exits receives a wakeup whenever a worker dies, scheduling a
	// backoff-paced reconcile ahead of the next discovery tick.
	exits chan struct{}
}

// ownerStream is one owner's share of the subscription: the IDs the
// authority ring assigned to addr, served by one RPC stream.
type ownerStream struct {
	region string
	addr   string
	ids    []model.ProfileID
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// Subscribe registers the pipeline program as a standing query and
// starts pushing updates. The subscription lives until Close (or ctx
// cancellation); owner streams inside it come and go with discovery.
func (c *Client) Subscribe(ctx context.Context, pipeline string) (*Subscription, error) {
	q, err := sub.Parse(pipeline)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Subscription{
		c:       c,
		q:       q,
		ch:      make(chan *wire.SubUpdate, 64),
		ctx:     sctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		streams: make(map[string]*ownerStream),
		exits:   make(chan struct{}, 1),
	}
	c.Subscriptions.Add(1)
	go s.manage()
	return s, nil
}

// Updates returns the merged update stream across all owner streams.
// The channel closes after Close.
func (s *Subscription) Updates() <-chan *wire.SubUpdate { return s.ch }

// Recv returns the next update, blocking until one arrives, ctx ends,
// or the subscription closes.
func (s *Subscription) Recv(ctx context.Context) (*wire.SubUpdate, error) {
	select {
	case u, ok := <-s.ch:
		if !ok {
			return nil, ErrSubscriptionClosed
		}
		return u, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Query returns the parsed standing query.
func (s *Subscription) Query() *sub.Query { return s.q }

// Close tears every owner stream down and closes Updates. Idempotent.
func (s *Subscription) Close() {
	s.cancel()
	<-s.done
}

// manage is the reconcile loop: it diffs the desired owner assignment
// (authority ring, local region first) against the live streams on
// every discovery tick and after worker deaths, closing streams whose
// ID share changed and opening the missing ones.
func (s *Subscription) manage() {
	defer close(s.done)
	defer s.c.Subscriptions.Add(-1)
	ticker := time.NewTicker(s.c.opts.RefreshInterval)
	defer ticker.Stop()
	s.reconcile()
	var retryT *time.Timer
	var retry <-chan time.Time
	for {
		select {
		case <-s.ctx.Done():
			if retryT != nil {
				retryT.Stop()
			}
			s.shutdown()
			return
		case <-ticker.C:
			s.reconcile()
		case <-s.exits:
			if retry == nil {
				retryT = time.NewTimer(resubscribeBackoff)
				retry = retryT.C
			}
		case <-retry:
			retry = nil
			s.reconcile()
		}
	}
}

// shutdown cancels all workers, waits for them, then closes the update
// channel (safe only once no worker can send).
func (s *Subscription) shutdown() {
	s.mu.Lock()
	streams := make([]*ownerStream, 0, len(s.streams))
	for _, os := range s.streams {
		streams = append(streams, os)
	}
	s.mu.Unlock()
	for _, os := range streams {
		os.cancel()
	}
	for _, os := range streams {
		<-os.done
	}
	close(s.ch)
}

// assignment groups the subscription's IDs by their current owner.
type assignment struct {
	region string
	ids    []model.ProfileID
}

// assign resolves each watched ID to its authority-ring owner, local
// region preferred — the same preference the read path uses, so a
// standing query watches the instance its poll-equivalent would read.
// IDs with no resolvable owner (empty rings during startup or a full
// outage) are left out; the next reconcile retries them — their worker
// simply doesn't exist yet, and the server-side baseline covers
// whatever happened in between.
func (s *Subscription) assign() map[string]*assignment {
	out := make(map[string]*assignment)
	regions := s.c.routes.Load().regions
	for _, id := range s.q.IDs {
		for _, rs := range regions {
			addr := rs.ring.Get(id)
			if addr == "" {
				continue
			}
			a := out[addr]
			if a == nil {
				a = &assignment{region: rs.name}
				out[addr] = a
			}
			a.ids = append(a.ids, id)
			break
		}
	}
	return out
}

func sameIDs(a, b []model.ProfileID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reconcile closes streams whose owner assignment changed and opens
// streams for owners that lack one.
func (s *Subscription) reconcile() {
	want := s.assign()
	s.mu.Lock()
	for addr, os := range s.streams {
		w := want[addr]
		if w == nil || !sameIDs(os.ids, w.ids) {
			// Ring moved some of this stream's IDs: drop the whole stream
			// and let the reopen (this pass or the next) pick up the new
			// split. The replacement's Resync baseline re-establishes
			// state for every ID it carries.
			os.cancel()
			delete(s.streams, addr)
			s.c.SubResubscribes.Inc()
		}
	}
	for addr, w := range want {
		if s.streams[addr] != nil {
			continue
		}
		wctx, wcancel := context.WithCancel(s.ctx)
		os := &ownerStream{
			region: w.region, addr: addr, ids: w.ids,
			ctx: wctx, cancel: wcancel, done: make(chan struct{}),
		}
		s.streams[addr] = os
		s.c.SubStreams.Add(1)
		s.c.SubOpens.Inc()
		go s.worker(os)
	}
	s.mu.Unlock()
}

// worker runs one owner stream: open, receive, decode, deliver. Any
// error — dial failure, connection death, server-side teardown — ends
// the worker; the manager reopens (possibly elsewhere) after backoff.
func (s *Subscription) worker(os *ownerStream) {
	defer close(os.done)
	defer func() {
		s.mu.Lock()
		if s.streams[os.addr] == os {
			delete(s.streams, os.addr)
		}
		s.mu.Unlock()
		s.c.SubStreams.Add(-1)
		select {
		case s.exits <- struct{}{}:
		default:
		}
	}()
	payload := wire.EncodeSubscribe(&wire.SubscribeRequest{
		Caller:   s.c.opts.Caller,
		Pipeline: s.q.RenderFor(os.ids),
	})
	conn := s.c.conn(os.region, os.addr)
	if conn == nil {
		return // the owner left since the assignment: the next reconcile reassigns its ids
	}
	st, err := conn.Stream(os.ctx, wire.MethodSubWatch, payload)
	if err != nil {
		return
	}
	defer st.Close()
	for {
		raw, err := st.Recv(os.ctx)
		if err != nil {
			return
		}
		u := &wire.SubUpdate{}
		if err := wire.DecodeSubUpdateInto(raw, u); err != nil {
			return
		}
		s.c.SubUpdates.Inc()
		if u.Resync {
			s.c.SubResyncs.Inc()
		}
		select {
		case s.ch <- u:
		case <-os.ctx.Done():
			return
		}
	}
}
