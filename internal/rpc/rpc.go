// Package rpc is the from-scratch framed binary RPC framework that plays
// the role of the paper's internal C++ Thrift stack (§III): the transport
// between the unified IPS client and the compute-cache layer.
//
// Wire protocol (little endian):
//
//	u32 frameLen      (bytes after this field; capped)
//	u64 sequenceID    (request/response correlation)
//	u8  kind          (0 = request, 1 = response, 2 = error response,
//	                   3 = traced request, 4 = traced response,
//	                   5 = stream open, 6 = stream data, 7 = stream close)
//	u16 methodLen, method bytes  (requests and stream opens only)
//	u64 traceID, u64 parentSpanID (traced requests only)
//	u32 spanBlobLen, span blob    (traced responses only; trace.EncodeSpans)
//	payload bytes     (method-specific, opaque to the framework)
//
// Traced frames (kinds 3/4) are the optional tracing header from
// DESIGN.md "Request tracing": a traced request carries the caller's
// trace ID and the span the roundtrip runs under; the matching traced
// response carries the server's span set, which the client grafts into
// its own trace. Servers answer untraced requests with untraced
// responses, so the header costs nothing when sampling is off.
//
// Stream frames (kinds 5/6/7) are the push transport behind continuous
// queries (DESIGN.md "Continuous queries"): a stream open carries a
// method and payload like a request, after which the server pushes data
// frames under the same sequence ID until either side closes the stream.
// See stream.go for the client/server stream APIs.
//
// A single connection multiplexes any number of in-flight requests:
// responses match requests by sequence ID. Clients pool connections per
// address.
//
// Every connection, on both sides, is read through one frameReader and
// written through one connWriter (transport.go). The reader fills a fixed
// buffer with one Read per wake-up and hands out every complete frame it
// holds before reading again. The writer separates queueing a frame from
// flushing: flush elects a leader that writes everything queued in one
// syscall, and a client call that starts while other calls of its client
// are in flight has its leader yield once before writing a small batch,
// so that the other runnable callers join it. Pipelined calls therefore
// form batches — N frames per write and per read in both
// directions — without any caller waiting on a timer. A caller with many
// calls to make at once says so instead of relying on the yield: Queue
// starts a call without writing it, and one Flush per client then sends
// every queued frame in one write per connection.
//
// The server has one handler shape (Handler) and runs every request
// through one body (serve); only where that body runs differs. The read
// loop draws the request's trace once — the caller's, a server sample, or
// none — and runs a method registered with HandleFast inline when the
// request is untraced and no delay is injected, queueing its response; it
// flushes when the reader has no complete frame left, before running the
// next buffered request once the oldest unflushed response has been held
// for flushAge, and from a timer when a handler outlasts flushAge in front
// of one. Everything else — Handle methods, traced, sampled or
// fault-delayed requests, streams — runs on its own goroutine and pushes
// its response through the same writer, so a slow call does not block the
// calls behind it.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ips/internal/trace"
)

// MaxFrameSize bounds a single frame; larger frames poison the connection
// and are rejected.
const MaxFrameSize = 16 << 20

// Frame kinds.
const (
	kindRequest        = 0
	kindResponse       = 1
	kindError          = 2
	kindRequestTraced  = 3
	kindResponseTraced = 4
	kindStreamOpen     = 5
	kindStreamData     = 6
	kindStreamClose    = 7
)

// Errors returned by the framework.
var (
	ErrClosed        = errors.New("rpc: connection closed")
	ErrTimeout       = errors.New("rpc: request timed out")
	ErrFrameTooLarge = errors.New("rpc: frame exceeds MaxFrameSize")
	ErrNoMethod      = errors.New("rpc: unknown method")
)

// RemoteError is a server-side failure transported back to the caller.
type RemoteError struct {
	Method string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote %s: %s", e.Method, e.Msg)
}

// Handler processes one request payload and returns the response
// payload, which it may append into dst. ctx carries the request's trace
// when the caller or the server sampled it. On the inline path dst is the
// connection's reusable response buffer: appending into it is what lets
// an inline handler answer with zero heap allocations. On the goroutine
// path dst is nil.
type Handler func(ctx context.Context, payload, dst []byte) ([]byte, error)

// route is one registered method: a call handler, run inline or on a
// goroutine, or a stream handler (stream.go).
type route struct {
	h      Handler
	stream StreamHandler
	inline bool
}

// Server serves RPC over a TCP listener.
type Server struct {
	// Tracer, when non-nil, samples requests that arrive untraced and
	// aggregates the server-side spans of traced ones. Set it before
	// Serve/Listen.
	Tracer *trace.Tracer

	mu     sync.RWMutex
	routes map[string]route
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// delay and dropRate inject faults; set via SetDelay / SetDropRate,
	// which are safe to call while serving.
	delay    atomic.Pointer[func(method string) time.Duration]
	dropRate atomic.Pointer[func() float64]
}

// SetDelay installs an artificial per-request service latency (fault and
// latency modelling in the harness); nil removes it. Safe while serving.
func (s *Server) SetDelay(f func(method string) time.Duration) {
	if f == nil {
		s.delay.Store(nil)
		return
	}
	s.delay.Store(&f)
}

// SetDropRate installs a response-drop probability source in [0,1] for
// fault injection — the client sees a timeout; nil removes it. Safe while
// serving.
func (s *Server) SetDropRate(f func() float64) {
	if f == nil {
		s.dropRate.Store(nil)
		return
	}
	s.dropRate.Store(&f)
}

// NewServer creates a server with no handlers registered.
func NewServer() *Server {
	return &Server{routes: make(map[string]route), conns: make(map[net.Conn]struct{})}
}

// Handle registers h for method, replacing any previous registration.
// Each request runs on a goroutine of its own, so h may block.
func (s *Server) Handle(method string, h Handler) { s.setRoute(method, route{h: h}) }

// HandleFast registers h for method to run inline: an untraced, unsampled
// request runs directly on the connection's read loop with the payload
// aliasing the reusable read buffer and dst the reusable response buffer
// — no goroutine, no frame copy, no allocations. h must be short and
// non-blocking (a slow one head-of-line blocks its connection), must
// append its response into dst, and must not retain either buffer after
// returning. A traced, sampled or fault-delayed request runs the same
// serve body on a goroutine, as for Handle, with dst nil.
func (s *Server) HandleFast(method string, h Handler) { s.setRoute(method, route{h: h, inline: true}) }

func (s *Server) setRoute(method string, r route) {
	s.mu.Lock()
	s.routes[method] = r
	s.mu.Unlock()
}

// Serve starts accepting on ln and returns immediately; use Close to stop.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed.Load() {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serveConn(conn)
		}
	}()
}

// Listen is a convenience wrapper: listen on addr and serve. It returns
// the bound address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the server and closes all connections.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// flushAge is how long an inline response may stay queued while the
// server's read loop runs further buffered requests: about one write
// syscall's worth, so a run of microsecond handlers shares a write but a
// response does not wait out a slow handler, whether that one ran before
// it or runs after it.
const flushAge = 20 * time.Microsecond

// heldResponses is the read loop's account of the inline responses it has
// queued and not flushed. The loop flushes them itself when it runs out of
// buffered requests and, between two handlers, once the oldest is older
// than flushAge. That covers a slow handler followed by fast ones; for the
// opposite order — a hot read's response held while a scan or a cold miss
// runs behind it — the loop arms a watchdog before it runs a handler in
// front of held responses, and the timer flushes them from its own
// goroutine when flushAge is up and the handler still has not returned.
// (It needs a processor to run on: with every P busy the bound stretches
// to the handler's end, where the loop flushes.) A single request per
// wake-up, the serial case, never touches the timer.
type heldResponses struct {
	cw *connWriter
	// since is when the request behind the oldest held response started
	// running; zero while nothing is held.
	since    time.Time
	watchdog *time.Timer
	armed    bool
}

// flush writes what is held and disarms the watchdog.
func (h *heldResponses) flush() {
	h.cw.flush(false)
	h.since = time.Time{}
	h.disarm()
}

func (h *heldResponses) disarm() {
	if h.armed {
		h.watchdog.Stop()
		h.armed = false
	}
}

// beforeHandler is called with the current time before a request runs.
func (h *heldResponses) beforeHandler(now time.Time) {
	if h.since.IsZero() {
		return
	}
	age := now.Sub(h.since)
	switch {
	case age > flushAge:
		h.flush()
	case h.armed:
	case h.watchdog == nil:
		h.watchdog, h.armed = time.AfterFunc(flushAge-age, func() { h.cw.flush(false) }), true
	default:
		h.watchdog.Reset(flushAge - age)
		h.armed = true
	}
}

//ips:hotpath-trust the goroutine path deep-copies frames and spawns goroutines by design; the inline path is checked in serve
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	// A write error closes the connection, which ends this read loop.
	cw := newConnWriter(conn, func(error) { conn.Close() })
	cs := &connStreams{}
	defer cs.cancelAll() // connection death cancels its open streams
	fr := frameReader{r: conn}
	var respBuf []byte
	held := heldResponses{cw: cw}
	defer held.disarm()
	for {
		// next blocks only when no complete frame is buffered, and then
		// nothing is held: every pass below ends with a flush in that case.
		f, err := fr.next()
		if err != nil {
			return
		}
		switch f.kind {
		case kindStreamOpen:
			// The payload escapes to the handler goroutine; detach it
			// from the read buffer.
			s.startStream(cw, cs, f.seq, string(f.method), append([]byte(nil), f.payload...))
		case kindStreamClose:
			cs.cancel(f.seq)
		case kindRequest, kindRequestTraced:
			now := time.Now()
			held.beforeHandler(now)
			s.mu.RLock()
			r := s.routes[string(f.method)] // no-copy map lookup
			s.mu.RUnlock()
			// The one sampling draw: a traced request continues the
			// caller's trace even without a local Tracer (the spans only
			// ship back over the wire); an untraced one may win the local
			// draw. Span collection allocates, so a traced request leaves
			// the inline path.
			var tr *trace.Trace
			if f.kind == kindRequestTraced {
				tr = trace.Adopt(f.traceID, f.parentSpan)
			} else if s.Tracer.Sample() {
				tr = trace.New()
			}
			delay := s.delay.Load()
			if r.inline && tr == nil && delay == nil {
				// The payload aliases the read buffer, which is safe only
				// because the handler completes before the next frame is
				// taken.
				if resp := s.serve(cw, f, r.h, nil, respBuf[:0], true); resp != nil {
					respBuf = resp // retain grown storage for the next request
				}
				if held.since.IsZero() {
					held.since = now
				}
				break
			}
			// The frame escapes this loop: detach it from the read buffer.
			f.method = append([]byte(nil), f.method...)
			f.payload = append([]byte(nil), f.payload...)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				if delay != nil {
					if dur := (*delay)(string(f.method)); dur > 0 {
						time.Sleep(dur)
					}
				}
				s.serve(cw, f, r.h, tr, nil, false)
			}()
		} // anything else is a stray frame: ignored
		if !held.since.IsZero() && !fr.buffered() {
			held.flush()
		}
	}
}

// serve is the one dispatch body: it runs h on f's payload under panic
// containment (inside a server.dispatch span when tr is set), applies the
// drop injection and answers with an error, traced or plain frame. Inline,
// on the read loop, it queues the frame and leaves the flush to the loop;
// on a goroutine it pushes. It returns the response, which inline is the
// (possibly grown) dst for the next request.
//
//ips:hotpath
func (s *Server) serve(cw *connWriter, f frame, h Handler, tr *trace.Trace, dst []byte, inline bool) []byte {
	ctx := contextBG
	if tr != nil {
		//ipslint:ignore hotpathalloc only traced and sampled requests carry a context value, and they run on goroutines
		ctx = trace.NewContext(ctx, tr)
	}
	dctx, dspan := trace.StartSpan(ctx, trace.StageServerDispatch)
	resp, herr := safeCall(h, dctx, f, dst)
	dspan.EndErr(herr)
	if tr != nil {
		//ipslint:ignore hotpathalloc folding spans is the traced and sampled path, which runs on goroutines
		s.Tracer.Done(tr)
	}
	if dr := s.dropRate.Load(); dr != nil {
		//ipslint:ignore hotpathalloc fault injection is a test-only configuration
		if rate := (*dr)(); rate > 0 && pseudoRand(f.seq) < rate {
			return resp // drop the response: client times out
		}
	}
	out := outFrame{seq: f.seq, kind: kindResponse, payload: resp}
	switch {
	case herr != nil:
		out.kind, out.payload = kindError, []byte(herr.Error())
	case f.kind == kindRequestTraced:
		//ipslint:ignore hotpathalloc span encoding is the traced path, which runs on goroutines
		out.kind, out.blob = kindResponseTraced, trace.EncodeSpans(tr.Spans())
	}
	// A write error tears the connection down through the writer; there is
	// nobody to report it to here.
	if inline {
		_ = cw.queue(out)
	} else {
		_ = cw.push(out, false)
	}
	return resp
}

// contextBG is the shared background context for untraced dispatches.
var contextBG = context.Background()

// safeCall invokes h with panic containment; a nil h is an unknown method.
//
//ips:hotpath-trust panic recovery needs a deferred closure; the steady state never triggers it
func safeCall(h Handler, ctx context.Context, f frame, dst []byte) (resp []byte, err error) {
	if h == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoMethod, f.method)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rpc: handler panic: %v", r)
		}
	}()
	return h(ctx, f.payload, dst)
}

// pseudoRand maps a sequence number to [0,1) deterministically, so drop
// behaviour in tests is reproducible.
func pseudoRand(seq uint64) float64 {
	seq ^= seq >> 33
	seq *= 0xff51afd7ed558ccd
	seq ^= seq >> 33
	return float64(seq%10_000) / 10_000
}

// frame is one decoded wire frame. method, blob, and payload alias the
// buffer the frame was parsed from: a frame handed to another goroutine
// must be deep-copied first (see serveConn's goroutine path).
type frame struct {
	seq        uint64
	kind       byte
	method     []byte // requests only
	traceID    uint64 // traced requests only
	parentSpan uint64 // traced requests only
	blob       []byte // traced responses only: encoded server spans
	payload    []byte
}

// outFrame is one frame to encode: the header fields its kind carries,
// and the payload.
type outFrame struct {
	seq        uint64
	kind       byte
	method     string // requests, traced requests and stream opens
	traceID    uint64 // traced requests: the caller's trace
	parentSpan uint64 // traced requests: the span the roundtrip runs under
	blob       []byte // traced responses: encoded server spans
	payload    []byte
}

// minFrameLen is the shortest legal frame body: sequence ID and kind.
const minFrameLen = 8 + 1

// appendFrame serializes f into dst's storage and returns the extended
// slice; dst is returned unchanged with ErrFrameTooLarge when f does not
// fit MaxFrameSize. Callers that reuse dst (the per-connection write
// buffers) pay zero allocations per frame in the steady state. A traced
// response whose span set does not fit degrades to an untraced response
// rather than poison the connection.
//
//ips:hotpath
func appendFrame(dst []byte, f outFrame) ([]byte, error) {
	frameLen := minFrameLen + len(f.payload)
	switch f.kind {
	case kindRequest, kindStreamOpen:
		frameLen += 2 + len(f.method)
	case kindRequestTraced:
		frameLen += 2 + len(f.method) + 16
	case kindResponseTraced:
		if frameLen+4+len(f.blob) > MaxFrameSize {
			f.kind = kindResponse
		} else {
			frameLen += 4 + len(f.blob)
		}
	}
	if frameLen > MaxFrameSize {
		return dst, ErrFrameTooLarge
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(frameLen))
	dst = binary.LittleEndian.AppendUint64(dst, f.seq)
	dst = append(dst, f.kind)
	switch f.kind {
	case kindRequest, kindStreamOpen, kindRequestTraced:
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.method)))
		dst = append(dst, f.method...)
		if f.kind == kindRequestTraced {
			dst = binary.LittleEndian.AppendUint64(dst, f.traceID)
			dst = binary.LittleEndian.AppendUint64(dst, f.parentSpan)
		}
	case kindResponseTraced:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.blob)))
		dst = append(dst, f.blob...)
	}
	return append(dst, f.payload...), nil
}

// parseFrame decodes a frame from raw (the bytes after the length
// prefix). The frame's method, blob, and payload alias raw.
//
//ips:hotpath
func parseFrame(raw []byte) (frame, error) {
	var fr frame
	if len(raw) < minFrameLen {
		return fr, errTruncatedHeader
	}
	fr.seq = binary.LittleEndian.Uint64(raw)
	fr.kind = raw[8]
	off := 9
	if fr.kind == kindRequest || fr.kind == kindRequestTraced || fr.kind == kindStreamOpen {
		if len(raw) < off+2 {
			return fr, errTruncatedMethodLen
		}
		ml := int(binary.LittleEndian.Uint16(raw[off:]))
		off += 2
		if len(raw) < off+ml {
			return fr, errTruncatedMethod
		}
		fr.method = raw[off : off+ml]
		off += ml
		if fr.kind == kindRequestTraced {
			if len(raw) < off+16 {
				return fr, errTruncatedTraceHdr
			}
			fr.traceID = binary.LittleEndian.Uint64(raw[off:])
			fr.parentSpan = binary.LittleEndian.Uint64(raw[off+8:])
			off += 16
		}
	}
	if fr.kind == kindResponseTraced {
		if len(raw) < off+4 {
			return fr, errTruncatedBlobLen
		}
		bl := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		if len(raw) < off+bl {
			return fr, errTruncatedBlob
		}
		fr.blob = raw[off : off+bl]
		off += bl
	}
	fr.payload = raw[off:]
	return fr, nil
}

// Preallocated parse errors keep the malformed-frame branches off the
// hot path's allocation profile.
var (
	errTruncatedHeader    = errors.New("rpc: truncated frame header")
	errTruncatedMethodLen = errors.New("rpc: truncated method length")
	errTruncatedMethod    = errors.New("rpc: truncated method")
	errTruncatedTraceHdr  = errors.New("rpc: truncated trace header")
	errTruncatedBlobLen   = errors.New("rpc: truncated span blob length")
	errTruncatedBlob      = errors.New("rpc: truncated span blob")
)
