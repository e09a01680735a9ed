package rpc

// The two halves every connection is read and written through, on both
// sides: one buffered frame reader, one combining frame writer. Together
// they turn N pipelined frames into one syscall in each direction (see
// the package comment and DESIGN.md "Transport").

import (
	"encoding/binary"
	"io"
	"runtime"
	"sync"
)

const (
	// readBufSize is the fixed per-connection read buffer. It is never
	// grown: a frame that does not fit is read into a one-shot slice that
	// is dropped after dispatch, so a peer cannot pin more than this per
	// connection by sending one huge frame. 64 KiB holds several hundred
	// point-read frames — more than one wake-up ever finds.
	readBufSize = 64 << 10
	// smallBatch is the pending-bytes threshold below which a flush leader
	// that was asked to yield does so, once, before writing: it gives the
	// other runnable callers the chance to queue their frames behind it.
	// Above it the batch already amortizes its syscall.
	smallBatch = 1 << 10
	// leaderRounds is how many consecutive writes a caller performs as
	// flush leader before it hands the writing to a goroutine of its own.
	// A caller only writes other callers' frames while it waits for its
	// own response anyway, but when writes are slow relative to arrivals
	// the next batch is queued before each write returns and the leader
	// would not get back to its caller: without the limit,
	// TestFlushLeaderHandsOff (1 ms writes, 64 callers) fails 13 runs in
	// 25 with one call held for up to 354 ms of a 400 ms run, with it none
	// in 25. It is a latency bound, not a throughput device: on loopback
	// the benchmark cannot tell 4 from no limit.
	leaderRounds = 4
	// maxPendingWrite bounds the bytes queued behind a leader that is
	// blocked in Write (a peer that stopped reading): queue waits instead
	// of growing the buffer without limit.
	maxPendingWrite = 1 << 20
)

// frameReader parses frames out of a fixed buffer filled by one Read per
// wake-up: every complete frame a Read delivered is returned by next
// before the connection is read again. Frames alias the buffer (or the
// one-shot slice of an oversized frame) and are dead once next is called
// again. Single-reader use only.
type frameReader struct {
	r   io.Reader
	buf []byte
	// buf[head:tail] holds bytes read but not yet returned; complete
	// frames in buf[head:counted] are already in the IOStats counters.
	head, counted, tail int
}

// buffered reports whether next will return without reading the
// connection: a complete (or provably malformed) frame is in the buffer.
//
//ips:hotpath
func (fr *frameReader) buffered() bool {
	avail := fr.tail - fr.head
	if avail < 4 {
		return false
	}
	n := int(binary.LittleEndian.Uint32(fr.buf[fr.head:]))
	return n > MaxFrameSize || n < minFrameLen || avail >= 4+n
}

// next returns the next frame, reading the connection only when no
// complete frame is buffered.
//
//ips:hotpath
func (fr *frameReader) next() (frame, error) {
	for {
		if avail := fr.tail - fr.head; avail >= 4 {
			n := int(binary.LittleEndian.Uint32(fr.buf[fr.head:]))
			if n > MaxFrameSize || n < minFrameLen {
				return frame{}, ErrFrameTooLarge
			}
			if avail >= 4+n {
				raw := fr.buf[fr.head+4 : fr.head+4+n]
				fr.head += 4 + n
				return parseFrame(raw)
			}
			if 4+n > len(fr.buf) {
				//ipslint:ignore hotpathalloc a frame larger than the fixed buffer takes a one-shot slice by design; steady-state frames fit
				return fr.readLarge(n)
			}
		}
		if err := fr.fill(); err != nil {
			return frame{}, err
		}
	}
}

// fill moves the unparsed tail to the front of the buffer and reads the
// connection once. The frames that Read completed are counted before any
// of them is returned, so a caller woken by its response already finds it
// in IOStats.
//
//ips:hotpath
func (fr *frameReader) fill() error {
	if fr.buf == nil {
		//ipslint:ignore hotpathalloc the first read on a connection allocates its fixed buffer
		fr.buf = make([]byte, readBufSize)
	}
	if fr.head > 0 {
		copy(fr.buf, fr.buf[fr.head:fr.tail])
		fr.tail -= fr.head
		fr.counted -= fr.head
		fr.head = 0
	}
	//ipslint:ignore hotpathalloc Read into an existing buffer does not allocate; the interface call is the runtime socket
	n, err := fr.r.Read(fr.buf[fr.tail:])
	fr.tail += n
	var frames, bytes int
	for fr.tail-fr.counted >= 4 {
		fl := int(binary.LittleEndian.Uint32(fr.buf[fr.counted:]))
		if fl > MaxFrameSize || fl < minFrameLen || fr.tail-fr.counted < 4+fl {
			break
		}
		fr.counted += 4 + fl
		frames++
		bytes += 4 + fl
	}
	noteRead(frames, bytes, 1)
	if n > 0 {
		return nil
	}
	if err == nil {
		return io.ErrNoProgress
	}
	if err == io.EOF && fr.tail > fr.head {
		return io.ErrUnexpectedEOF // torn tail: the stream ended inside a frame
	}
	return err
}

// readLarge reads one frame of n bytes that does not fit the fixed
// buffer into a slice of its own. The buffer holds the frame's first
// bytes and nothing after them (the peer's stream is sequential).
func (fr *frameReader) readLarge(n int) (frame, error) {
	raw := make([]byte, n)
	got := copy(raw, fr.buf[fr.head+4:fr.tail])
	fr.head, fr.counted, fr.tail = 0, 0, 0
	reads := 0
	for got < n {
		m, err := fr.r.Read(raw[got:])
		reads++
		got += m
		if m == 0 {
			if err == nil {
				err = io.ErrNoProgress
			} else if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			noteRead(0, 0, reads)
			return frame{}, err
		}
	}
	noteRead(1, 4+n, reads)
	return parseFrame(raw)
}

// connWriter is the one way frames leave a connection, on both sides:
// queue appends a frame to the pending buffer under the mutex, flush
// elects a leader that writes everything pending in one syscall. Callers
// pair them (queue, then flush); a caller whose flush finds a leader
// already at work returns at once — the leader's loop carries its frame.
//
// Errors: the first write error is sticky. The leader reports it once
// through fail (which tears the connection down), and every later queue
// returns it. A follower's queue has already returned nil by then: its
// frame's fate reaches it the way a lost connection always did — the
// client connection's fail sweeps every registered call and stream.
type connWriter struct {
	w io.Writer
	// fail is called with the first write error, outside the lock.
	fail func(error)

	mu sync.Mutex
	// taken is signalled whenever the leader takes the pending buffer (or
	// gives up on an error); queue waits on it under backpressure.
	taken   sync.Cond
	pending []byte // frames queued and not yet handed to Write
	frames  int    // how many frames pending holds
	spare   []byte // the buffer the last Write finished with
	writing bool   // a leader is in its write loop
	err     error
}

func newConnWriter(w io.Writer, fail func(error)) *connWriter {
	cw := &connWriter{w: w, fail: fail}
	cw.taken.L = &cw.mu
	return cw
}

// queue appends one frame to the pending buffer. It does not write: the
// caller follows with flush (or, on the server's read loop, lets several
// responses accumulate first).
//
//ips:hotpath
func (cw *connWriter) queue(f outFrame) error {
	cw.mu.Lock()
	for cw.err == nil && cw.writing && len(cw.pending) > maxPendingWrite {
		cw.taken.Wait()
	}
	err := cw.err
	if err == nil {
		var buf []byte
		if buf, err = appendFrame(cw.pending, f); err == nil {
			cw.pending = buf
			cw.frames++
		}
	}
	cw.mu.Unlock()
	return err
}

// flush writes everything pending unless another caller is already doing
// so. The first caller in becomes the leader: it swaps the pending buffer
// out, writes it outside the lock, and loops while more arrived.
//
// With yield set, the leader yields the processor once (runtime.Gosched)
// before writing a small batch. A client call sets it when other calls of
// its client are in flight: their callers are about to send again, and
// the yield lets the runnable ones queue their frames behind the leader
// and park on their responses, so that one write carries them all. That
// is what makes batches form at saturation — without it every caller
// reaches its write before the next one has queued. A yield is not free
// when other work is runnable (the leader waits its turn behind it),
// which is why a lone caller, with nobody to batch with, does not ask
// for one.
//
//ips:hotpath
func (cw *connWriter) flush(yield bool) {
	cw.mu.Lock()
	if cw.writing || len(cw.pending) == 0 || cw.err != nil {
		cw.mu.Unlock()
		return
	}
	cw.writing = true
	small := len(cw.pending) < smallBatch
	cw.mu.Unlock()
	if yield && small {
		runtime.Gosched()
	}
	cw.lead(leaderRounds)
}

// lead is the leader's write loop, entered with leadership (writing ==
// true) already claimed. It writes until the queue is empty and gives
// leadership up — or, when rounds writes did not drain the queue, hands
// it to a goroutine that finishes the job (rounds < 0: no limit).
//
//ips:hotpath
func (cw *connWriter) lead(rounds int) {
	var err error
	cw.mu.Lock()
	for len(cw.pending) > 0 && rounds != 0 {
		rounds--
		buf, frames := cw.pending, cw.frames
		cw.pending, cw.frames, cw.spare = cw.spare[:0], 0, nil
		cw.taken.Broadcast()
		cw.mu.Unlock()
		// Counted before the write, so that a caller woken by the response
		// to a frame in this batch already finds the batch in IOStats.
		noteWrite(frames, len(buf))
		//ipslint:ignore hotpathalloc net.Conn.Write is an interface call into the runtime socket, not an allocation site we control
		_, err = cw.w.Write(buf)
		cw.mu.Lock()
		if cap(buf) <= readBufSize {
			cw.spare = buf[:0] // a batch that grew past the read buffer's size is dropped, not pinned
		}
		if err != nil {
			cw.err, cw.pending, cw.frames = err, nil, 0
		}
	}
	handOff := len(cw.pending) > 0
	cw.writing = handOff
	cw.taken.Broadcast()
	cw.mu.Unlock()
	if handOff {
		go cw.lead(-1)
	}
	if err != nil {
		//ipslint:ignore hotpathalloc connection teardown is terminal, not steady state
		cw.fail(err)
	}
}

// push is queue followed by flush: the form for a caller with one frame
// and nothing to accumulate.
//
//ips:hotpath
func (cw *connWriter) push(f outFrame, yield bool) error {
	if err := cw.queue(f); err != nil {
		return err
	}
	cw.flush(yield)
	return nil
}
