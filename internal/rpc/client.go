package rpc

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ips/internal/trace"
)

// Client issues RPC calls to one address over a small pool of multiplexed
// connections.
type Client struct {
	addr string
	// PoolSize is the connection count; default 2.
	PoolSize int
	// DialTimeout bounds connection establishment; default 1s.
	DialTimeout time.Duration
	// CallTimeout is the default per-call deadline; default 1s.
	CallTimeout time.Duration
	// DialFunc overrides connection establishment, for tests (e.g. to
	// simulate a blackholed address whose dial hangs). Nil means
	// net.DialTimeout("tcp", addr, DialTimeout).
	DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

	mu       sync.Mutex
	conns    []*clientConn
	dialing  int           // in-flight dials; at most one per client
	dialDone chan struct{} // closed when the in-flight dial finishes
	next     atomic.Uint64
	closed   bool

	// live is an immutable copy of conns, published (under mu) only while
	// the pool is full; pick's steady state is one load of it. Nil sends
	// pick down the locked path, which prunes, dials and republishes.
	live atomic.Pointer[[]*clientConn]

	// inflight counts the calls between Start and Finish on all of the
	// client's connections: a call that starts while others are in flight
	// asks its flush leader to yield (see connWriter.flush).
	inflight atomic.Int32
}

// clientConn is one multiplexed connection with a reader goroutine
// dispatching responses to waiting calls by sequence ID.
type clientConn struct {
	conn    net.Conn
	cw      *connWriter
	mu      sync.Mutex
	pending map[uint64]*Call
	// streams holds the open client streams multiplexed on this
	// connection, keyed by the same sequence-ID namespace as pending
	// (see stream.go).
	streams map[uint64]*ClientStream
	seq     atomic.Uint64
	dead    atomic.Bool
}

// Call is one in-flight request started with Client.Start: the rendezvous
// between the caller and the connection's read loop. The caller waits on
// Done and then calls Finish exactly once; after Finish the Call belongs
// to the pool and must not be touched.
//
// Lifecycle. Start registers the call under a fresh sequence ID, arms its
// timeout and queues the request frame. Exactly one party then takes it
// out of the connection's pending table — the read loop with the
// response, the call's own timer with ErrTimeout, or the connection's
// teardown with the connection's error — fills in the outcome and signals
// Done. Because the taker removes the call under the connection's lock, a
// response that arrives after the timeout finds nothing to land in. Calls
// recycle through a pool, so the steady state allocates nothing; the one
// exception is a call whose timer fired: its timer callback may still be
// running, so that call is left to the garbage collector instead.
type Call struct {
	done   chan struct{} // capacity 1: the single completion signal
	c      *Client
	cc     *clientConn
	seq    uint64
	method string
	tr     *trace.Trace
	span   trace.SpanRef // rpc.roundtrip
	timer  *time.Timer   // runs expire; armed only between Start and Finish
	armed  bool

	// The outcome, written by whoever took the call before it signals.
	buf     []byte // response payload, copied out of the read buffer
	blob    []byte // traced responses: encoded server spans
	hasBlob bool
	err     error
}

var callPool = sync.Pool{New: func() any {
	call := &Call{done: make(chan struct{}, 1)}
	call.timer = time.AfterFunc(time.Hour, call.expire)
	call.timer.Stop()
	return call
}}

// NewClient creates a client for addr; connections are dialed lazily.
func NewClient(addr string) *Client {
	return &Client{addr: addr, PoolSize: 2, DialTimeout: time.Second, CallTimeout: time.Second}
}

// Addr returns the remote address this client talks to.
func (c *Client) Addr() string { return c.addr }

// Call issues method with payload and waits for the response, applying the
// default call timeout.
func (c *Client) Call(method string, payload []byte) ([]byte, error) {
	return c.call(context.Background(), method, payload, nil)
}

// CallCtx is Call with a request context. When ctx carries a sampled
// trace the request goes out as a traced frame — the server continues
// the trace and ships its spans back, which are grafted under this
// call's rpc.roundtrip span.
func (c *Client) CallCtx(ctx context.Context, method string, payload []byte) ([]byte, error) {
	return c.call(ctx, method, payload, nil)
}

// CallAppendCtx issues method and appends the response payload into dst,
// returning the extended slice. With a caller-reused dst the whole
// roundtrip (frame encode, response read, rendezvous) allocates nothing
// in the steady state. A nil dst hands the caller a freshly owned slice.
func (c *Client) CallAppendCtx(ctx context.Context, method string, payload, dst []byte) ([]byte, error) {
	return c.call(ctx, method, payload, dst)
}

// call is the blocking form of the one call path: start, wait, finish.
//
//ips:hotpath
func (c *Client) call(ctx context.Context, method string, payload, dst []byte) ([]byte, error) {
	call, err := c.Start(ctx, method, payload)
	if err != nil {
		return dst, err
	}
	<-call.done
	return call.Finish(dst)
}

// Start issues method asynchronously under the default call timeout and
// returns the in-flight Call; the payload is copied into the connection's
// write buffer before Start returns. A non-nil error means nothing was
// sent and there is no Call to finish. Everything that happens later —
// the response, a remote error, the timeout, a write error found by
// another caller's flush, the connection's death — arrives through Done.
//
//ips:hotpath
func (c *Client) Start(ctx context.Context, method string, payload []byte) (*Call, error) {
	call, err := c.Queue(ctx, method, payload)
	if err == nil {
		// Other calls in flight: their callers are about to send again,
		// so a yield before the write lets this frame share it with
		// theirs.
		call.cc.cw.flush(c.inflight.Load() > 1)
	}
	return call, err
}

// Flush writes the frames Queue left pending: one write for each of the
// client's connections that has any, nothing for the others.
func (c *Client) Flush() {
	var arr [4]*clientConn
	c.mu.Lock()
	conns := append(arr[:0], c.conns...)
	c.mu.Unlock()
	for _, cc := range conns {
		cc.cw.flush(false)
	}
}

// Queue is Start without the write: the request frame waits in its
// connection's write buffer until Flush (or any other caller's flush of
// that connection) sends it. A caller with several calls to start queues
// them all and then flushes each client once, so the frames leave in one
// write per connection instead of one each.
//
//ips:hotpath
func (c *Client) Queue(ctx context.Context, method string, payload []byte) (*Call, error) {
	cc, err := c.pick(ctx)
	if err != nil {
		return nil, err
	}
	//ipslint:ignore hotpathalloc sync.Pool misses allocate a fresh call by design; steady-state Get reuses
	call := callPool.Get().(*Call)
	call.c, call.cc, call.seq, call.method = c, cc, cc.seq.Add(1), method
	call.tr = trace.FromContext(ctx)
	call.span = trace.StartLeaf(ctx, trace.StageRPCRoundtrip)
	c.inflight.Add(1)
	if !cc.register(call) {
		call.span.EndErr(ErrClosed)
		call.release()
		return nil, ErrClosed
	}
	if timeout := c.CallTimeout; timeout > 0 {
		call.timer.Reset(timeout)
		call.armed = true
	}
	f := outFrame{seq: call.seq, kind: kindRequest, method: method, payload: payload}
	if call.span.Active() {
		f.kind, f.traceID, f.parentSpan = kindRequestTraced, call.tr.ID, call.span.ID()
	}
	if err := cc.cw.queue(f); err != nil {
		// Nothing was queued: the frame is too large, or the connection
		// is already failing. If teardown (or the timer) took the call
		// first, its signal is on the way; consume it so the call can
		// recycle.
		if cc.take(call.seq) == nil {
			<-call.done
		}
		call.span.EndErr(err)
		call.release()
		return nil, err
	}
	return call, nil
}

// Done is signalled exactly once, when the call's outcome is in.
//
//ips:hotpath
func (call *Call) Done() <-chan struct{} { return call.done }

// Finish collects the outcome of a call whose Done has fired: the
// response payload is appended to dst (a nil dst yields a freshly owned
// copy), server spans of a traced call are grafted into the caller's
// trace, and the Call goes back to the pool.
//
//ips:hotpath
func (call *Call) Finish(dst []byte) ([]byte, error) {
	err := call.err
	call.span.EndErr(err)
	if call.hasBlob && call.tr != nil {
		//ipslint:ignore hotpathalloc span grafting is the sampled path
		if spans, derr := trace.DecodeSpans(call.blob); derr == nil {
			//ipslint:ignore hotpathalloc span grafting is the sampled path
			call.tr.Graft(spans, call.span.ID())
		}
	}
	if err == nil {
		//ipslint:ignore hotpathalloc appending into a caller-reused dst does not allocate; a nil dst asks for a fresh copy
		dst = append(dst, call.buf...)
	}
	call.release()
	return dst, err
}

// release disarms the timer and returns the call to the pool. A call
// whose timer already fired is not reused: expire may still be running
// against it.
//
//ips:hotpath
func (call *Call) release() {
	call.c.inflight.Add(-1)
	if call.armed {
		call.armed = false
		if !call.timer.Stop() {
			return
		}
	}
	call.c, call.cc, call.tr, call.span = nil, nil, nil, trace.SpanRef{}
	call.hasBlob, call.err = false, nil
	callPool.Put(call)
}

// expire is the call's timer callback: if the call is still pending, it
// completes with ErrTimeout; if the response (or teardown) took it first,
// there is nothing to do.
func (call *Call) expire() {
	if call.cc.take(call.seq) == nil {
		return
	}
	call.err = ErrTimeout
	call.done <- struct{}{}
}

// complete records a response frame as the call's outcome and signals
// the caller. The frame aliases the read buffer: the payload is copied
// into the call's own storage.
//
//ips:hotpath
func (call *Call) complete(fr frame) {
	switch fr.kind {
	case kindResponse:
		call.buf = append(call.buf[:0], fr.payload...)
	case kindResponseTraced:
		call.buf = append(call.buf[:0], fr.payload...)
		call.blob = append(call.blob[:0], fr.blob...)
		call.hasBlob = true
	case kindError:
		//ipslint:ignore hotpathalloc error responses materialize a message; errors are off the steady state
		call.err = &RemoteError{Method: call.method, Msg: string(fr.payload)}
	default:
		call.err = errUnexpectedKind
	}
	call.done <- struct{}{}
}

var errUnexpectedKind = errors.New("rpc: unexpected frame kind in response")

// register enters call in the pending table. It reports false when the
// connection is already dead: fail sets dead before it sweeps the table
// under this lock, so a call registered while dead reads false here is
// certain to be swept.
//
//ips:hotpath
func (cc *clientConn) register(call *Call) bool {
	cc.mu.Lock()
	ok := !cc.dead.Load()
	if ok {
		//ipslint:ignore hotpathalloc the pending map reuses cells freed by completed calls once the in-flight high-water mark is reached
		cc.pending[call.seq] = call
	}
	cc.mu.Unlock()
	return ok
}

// take removes and returns the pending call with sequence ID seq, nil if
// another party already took it. Whoever takes a call owns its outcome.
//
//ips:hotpath
func (cc *clientConn) take(seq uint64) *Call {
	cc.mu.Lock()
	call := cc.pending[seq]
	if call != nil {
		delete(cc.pending, seq)
	}
	cc.mu.Unlock()
	return call
}

// pick returns a live pooled connection, dialing if needed. The steady
// state — a full pool of live connections — is one load of the published
// snapshot. Everything else takes pickSlow.
//
//ips:hotpath
func (c *Client) pick(ctx context.Context) (*clientConn, error) {
	if live := c.live.Load(); live != nil {
		cc := (*live)[c.next.Add(1)%uint64(len(*live))]
		if !cc.dead.Load() {
			return cc, nil
		}
	}
	//ipslint:ignore hotpathalloc dialing and pool top-up allocate by design; the steady state returned above
	return c.pickSlow(ctx)
}

// pickSlow prunes dead connections, tops the pool up and republishes the
// snapshot. Dials happen OUTSIDE c.mu — holding the lock across a dial
// would let one unreachable address head-of-line block every concurrent
// call on this client for up to DialTimeout. At most one dial is in flight
// per client (singleflight): when live connections exist the pool tops up
// in the background and the call proceeds on an existing connection; only
// a caller with no live connection at all waits for the dial's outcome.
func (c *Client) pickSlow(ctx context.Context) (*clientConn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		// Drop dead connections.
		live := c.conns[:0]
		for _, cc := range c.conns {
			if !cc.dead.Load() {
				live = append(live, cc)
			}
		}
		c.conns = live
		c.publishLocked()
		startDial := c.dialing == 0 && len(c.conns) < c.PoolSize
		if startDial {
			c.dialing++
			c.dialDone = make(chan struct{})
		}
		if len(c.conns) > 0 {
			cc := c.conns[c.next.Add(1)%uint64(len(c.conns))]
			c.mu.Unlock()
			if startDial {
				go c.dial() // top up the pool without blocking this call
			}
			return cc, nil
		}
		if startDial {
			c.mu.Unlock()
			// This call blocks on its own dial: attribute the wait.
			sp := trace.StartLeaf(ctx, trace.StageRPCDial)
			err := c.dial()
			sp.EndErr(err)
			if err != nil {
				return nil, err
			}
			continue // re-check the pool: our dial installed a connection
		}
		// No live connection and another caller's dial is in flight: wait
		// for it to settle, then re-evaluate. The wait is dial time from
		// this request's point of view.
		done := c.dialDone
		c.mu.Unlock()
		sp := trace.StartLeaf(ctx, trace.StageRPCDial)
		<-done
		sp.End()
	}
}

// publishLocked refreshes the snapshot pick's fast path reads: a copy of
// the pool while it is full, nil otherwise. Caller holds c.mu.
func (c *Client) publishLocked() {
	if c.closed || len(c.conns) == 0 || len(c.conns) < c.PoolSize {
		c.live.Store(nil)
		return
	}
	snap := append([]*clientConn(nil), c.conns...)
	c.live.Store(&snap)
}

// dial establishes one new pooled connection and installs it; it must be
// entered with c.dialing already claimed. Waiters blocked in pick are woken
// whether the dial succeeded or not.
func (c *Client) dial() error {
	dial := c.DialFunc
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	conn, err := dial(c.addr, c.DialTimeout)

	c.mu.Lock()
	c.dialing--
	close(c.dialDone)
	if err == nil {
		if closed := c.closed; closed || len(c.conns) >= c.PoolSize {
			c.mu.Unlock()
			conn.Close()
			if closed {
				return ErrClosed
			}
			return nil
		}
		cc := &clientConn{conn: conn, pending: make(map[uint64]*Call)}
		cc.cw = newConnWriter(conn, cc.fail)
		go cc.readLoop()
		c.conns = append(c.conns, cc)
		c.publishLocked()
	}
	c.mu.Unlock()
	return err
}

// Close closes all pooled connections; outstanding calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.live.Store(nil)
	for _, cc := range c.conns {
		cc.fail(ErrClosed)
	}
	c.conns = nil
	return nil
}

//ips:hotpath
func (cc *clientConn) readLoop() {
	fr := frameReader{r: cc.conn}
	for {
		f, err := fr.next()
		if err != nil {
			//ipslint:ignore hotpathalloc connection teardown is terminal, not steady state
			cc.fail(err)
			return
		}
		if call := cc.take(f.seq); call != nil {
			call.complete(f)
			continue
		}
		// No pending call: a pushed stream frame, or the late response of
		// a call that timed out (dropped).
		if f.kind == kindStreamData || f.kind == kindStreamClose || f.kind == kindError {
			//ipslint:ignore hotpathalloc stream delivery copies the pushed frame out of the read buffer; streams are off the pooled-call steady state
			cc.handleStreamFrame(f)
		}
	}
}

// fail marks the connection dead and fails all pending calls and open
// streams with err. It is the single teardown path: the read loop's
// error, a write error found by any flush leader, and Client.Close all
// end here, and every call registered on the connection — whether or not
// its own queue saw an error — hears about it through Done.
func (cc *clientConn) fail(err error) {
	if cc.dead.Swap(true) {
		return
	}
	cc.conn.Close()
	cc.mu.Lock()
	for seq, call := range cc.pending {
		call.err = err
		call.done <- struct{}{}
		delete(cc.pending, seq)
	}
	streams := cc.streams
	cc.streams = nil
	cc.mu.Unlock()
	for _, st := range streams {
		st.finish(err)
	}
}
