package rpc

// Long-lived streams beside the pooled call path.
//
// A stream is opened by the client with a kindStreamOpen frame (same
// shape as a request: method + payload), after which the server may push
// any number of kindStreamData frames carrying the opened stream's
// sequence ID. Either side ends the stream with kindStreamClose; a
// non-empty close payload is an error message, an empty one is a clean
// end. Data flows server→client only: the open payload is the
// subscription's full description, and anything else (acks, flow
// control) belongs in the method's payload design, not the framework.
//
// Streams multiplex over the same pooled connections as calls — the
// sequence-ID namespace is shared, so a data frame dispatches to its
// stream exactly like a response dispatches to its call. A slow stream
// consumer must not head-of-line block the calls sharing its connection,
// so the client buffers received frames in an unbounded per-stream queue;
// bounding the damage a slow consumer can do is the pushing layer's job
// (internal/sub drops and resyncs), not the transport's.

import (
	"context"
	"errors"
	"io"
	"sync"
)

// StreamHandler serves one server-side stream: payload is the opening
// request's payload, st pushes data frames to the client. The handler
// owns the stream's lifetime — when it returns, the framework sends the
// close frame (clean if the error is nil or the context's cancellation).
// ctx is canceled when the client closes the stream or the connection
// dies; handlers must return promptly then.
type StreamHandler func(ctx context.Context, payload []byte, st *ServerStream) error

// ServerStream is the server-side push half of one open stream.
type ServerStream struct {
	cw  *connWriter
	seq uint64
}

// Send pushes one data frame to the client; the payload is copied into
// the connection's write buffer before Send returns. It is safe for
// concurrent use. Frames are written by whichever sender is flushing, so
// a write error may surface on a later Send than the one whose frame it
// lost — a failed Send means the connection is dying and the handler
// should return (its context is canceled as well).
func (st *ServerStream) Send(payload []byte) error {
	return st.cw.push(outFrame{seq: st.seq, kind: kindStreamData, payload: payload}, false)
}

// HandleStream registers a stream handler for method, replacing any
// previous registration. Stream and call methods share one method table:
// a call to a stream method, or a stream open of a call method, is an
// unknown method.
func (s *Server) HandleStream(method string, h StreamHandler) { s.setRoute(method, route{stream: h}) }

// connStreams tracks the open streams of one server connection so a
// client close frame (or connection death) can cancel the handler.
type connStreams struct {
	mu      sync.Mutex
	cancels map[uint64]context.CancelFunc
}

func (cs *connStreams) add(seq uint64, cancel context.CancelFunc) {
	cs.mu.Lock()
	if cs.cancels == nil {
		cs.cancels = make(map[uint64]context.CancelFunc)
	}
	cs.cancels[seq] = cancel
	cs.mu.Unlock()
}

func (cs *connStreams) remove(seq uint64) {
	cs.mu.Lock()
	delete(cs.cancels, seq)
	cs.mu.Unlock()
}

func (cs *connStreams) cancel(seq uint64) {
	cs.mu.Lock()
	cancel := cs.cancels[seq]
	delete(cs.cancels, seq)
	cs.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (cs *connStreams) cancelAll() {
	cs.mu.Lock()
	cancels := cs.cancels
	cs.cancels = nil
	cs.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

// safeCallStream invokes h with panic containment.
func safeCallStream(h StreamHandler, ctx context.Context, payload []byte, st *ServerStream) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = errors.New("rpc: stream handler panic")
		}
	}()
	return h(ctx, payload, st)
}

// startStream launches the handler goroutine for one kindStreamOpen
// frame. payload must already be detached from the reusable read buffer.
func (s *Server) startStream(cw *connWriter, cs *connStreams, seq uint64, method string, payload []byte) {
	s.mu.RLock()
	h := s.routes[method].stream
	s.mu.RUnlock()
	if h == nil {
		_ = cw.push(outFrame{seq: seq, kind: kindStreamClose, payload: []byte(ErrNoMethod.Error() + ": " + method)}, false)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	cs.add(seq, cancel)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		err := safeCallStream(h, ctx, payload, &ServerStream{cw: cw, seq: seq})
		cs.remove(seq)
		var msg []byte
		if err != nil && !errors.Is(err, context.Canceled) {
			msg = []byte(err.Error())
		}
		_ = cw.push(outFrame{seq: seq, kind: kindStreamClose, payload: msg}, false)
	}()
}

// ClientStream is the client-side receive half of one open stream.
// Frames the server pushed are buffered without bound so a slow Recv
// caller cannot stall the pooled connection the stream shares with
// ordinary calls.
type ClientStream struct {
	cc     *clientConn
	seq    uint64
	method string

	mu    sync.Mutex
	queue [][]byte
	err   error // terminal condition; io.EOF on clean server close
	ready chan struct{}
}

// Stream opens a stream for method with the given opening payload and
// returns its receive half. The caller must drain it with Recv and
// release it with Close. ctx bounds only the open (dial wait), not the
// stream's lifetime. The open frame leaves through the same queue+flush
// writer as every call, so a write error found by another caller's flush
// reaches the stream as its terminal Recv error, not as Stream's.
func (c *Client) Stream(ctx context.Context, method string, payload []byte) (*ClientStream, error) {
	cc, err := c.pick(ctx)
	if err != nil {
		return nil, err
	}
	st := &ClientStream{cc: cc, seq: cc.seq.Add(1), method: method, ready: make(chan struct{}, 1)}
	// Registered under the same lock fail sweeps with, after the same
	// dead check as a call: a stream registered here is certain to be
	// swept if the connection dies.
	cc.mu.Lock()
	if cc.dead.Load() {
		cc.mu.Unlock()
		return nil, ErrClosed
	}
	if cc.streams == nil {
		cc.streams = make(map[uint64]*ClientStream)
	}
	cc.streams[st.seq] = st
	cc.mu.Unlock()
	if err := cc.cw.push(outFrame{seq: st.seq, kind: kindStreamOpen, method: method, payload: payload}, false); err != nil {
		cc.removeStream(st.seq)
		return nil, err
	}
	return st, nil
}

// Recv returns the next pushed payload (caller-owned storage). It blocks
// until a frame arrives, the stream ends, or ctx is done. A clean server
// close yields io.EOF after the buffered frames drain; a server error
// yields it as a *RemoteError.
func (st *ClientStream) Recv(ctx context.Context) ([]byte, error) {
	for {
		st.mu.Lock()
		if len(st.queue) > 0 {
			payload := st.queue[0]
			st.queue = st.queue[1:]
			st.mu.Unlock()
			return payload, nil
		}
		err := st.err
		st.mu.Unlock()
		if err != nil {
			return nil, err
		}
		select {
		case <-st.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Close releases the stream: the server's handler context is canceled
// and any blocked or future Recv returns ErrClosed (after buffered
// frames drain). Safe to call more than once.
func (st *ClientStream) Close() error {
	st.cc.removeStream(st.seq)
	st.finish(ErrClosed)
	_ = st.cc.cw.push(outFrame{seq: st.seq, kind: kindStreamClose}, false)
	return nil
}

// deliver copies one pushed frame into the stream's queue. Called only
// from the connection's read loop; payload aliases the reusable read
// buffer and is copied out here.
func (st *ClientStream) deliver(payload []byte) {
	st.mu.Lock()
	st.queue = append(st.queue, append([]byte(nil), payload...))
	st.mu.Unlock()
	st.signal()
}

// finish records the stream's terminal condition (first one wins) and
// wakes any blocked Recv.
func (st *ClientStream) finish(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
	st.signal()
}

func (st *ClientStream) signal() {
	select {
	case st.ready <- struct{}{}:
	default:
	}
}

func (cc *clientConn) removeStream(seq uint64) {
	cc.mu.Lock()
	delete(cc.streams, seq)
	cc.mu.Unlock()
}

// handleStreamFrame dispatches one frame whose sequence ID belongs to an
// open stream. A frame no stream claims (a late frame for a closed
// stream) is dropped, like a timed-out call's response.
func (cc *clientConn) handleStreamFrame(fr frame) {
	cc.mu.Lock()
	st := cc.streams[fr.seq]
	cc.mu.Unlock()
	if st == nil {
		return
	}
	switch fr.kind {
	case kindStreamData:
		st.deliver(fr.payload)
	case kindStreamClose, kindError:
		cc.removeStream(fr.seq)
		if fr.kind == kindStreamClose && len(fr.payload) == 0 {
			st.finish(io.EOF)
		} else {
			st.finish(&RemoteError{Method: st.method, Msg: string(fr.payload)})
		}
	}
}
