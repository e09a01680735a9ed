package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chunkReader delivers data in the chunk sizes given (cycled), standing in
// for a socket that tears frames at arbitrary places. It fails the test if
// it is handed an empty buffer or read again after it reported EOF with
// nothing left.
type chunkReader struct {
	data   []byte
	sizes  []int
	i      int
	eofs   int
	misuse string
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		r.misuse = "Read with an empty buffer"
		return 0, io.ErrShortBuffer
	}
	if len(r.data) == 0 {
		if r.eofs++; r.eofs > 1 {
			r.misuse = "Read again after EOF"
		}
		return 0, io.EOF
	}
	n := 1
	if len(r.sizes) > 0 {
		if n = r.sizes[r.i%len(r.sizes)]; n < 1 {
			n = 1
		}
		r.i++
	}
	if n > len(r.data) {
		n = len(r.data)
	}
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// ownedFrame is a frame copied out of the reader's buffer.
type ownedFrame struct {
	seq                 uint64
	kind                byte
	method              string
	traceID, parentSpan uint64
	blob, payload       string
}

func own(f frame) ownedFrame {
	return ownedFrame{f.seq, f.kind, string(f.method), f.traceID, f.parentSpan, string(f.blob), string(f.payload)}
}

// oneShotFrames is the reference: split the whole byte string by length
// prefix and parseFrame each body, stopping at the first frame that is
// malformed or cut short.
func oneShotFrames(data []byte) []ownedFrame {
	var out []ownedFrame
	for len(data) >= 4 {
		n := int(binary.LittleEndian.Uint32(data))
		if n > MaxFrameSize || n < minFrameLen || len(data) < 4+n {
			break
		}
		f, err := parseFrame(data[4 : 4+n])
		if err != nil {
			break
		}
		out = append(out, own(f))
		data = data[4+n:]
	}
	return out
}

// readAll drains a frameReader over data delivered in the given chunk
// sizes and returns the frames it yielded before its first error.
func readAll(t testing.TB, data []byte, sizes []int) ([]ownedFrame, error) {
	t.Helper()
	src := &chunkReader{data: data, sizes: sizes}
	rd := frameReader{r: src}
	var out []ownedFrame
	for {
		f, err := rd.next()
		if err != nil {
			if src.misuse != "" {
				t.Fatalf("frame reader misused its source: %s", src.misuse)
			}
			if cap(rd.buf) > readBufSize {
				t.Fatalf("read buffer grew to %d bytes", cap(rd.buf))
			}
			return out, err
		}
		out = append(out, own(f))
	}
}

// everyKind encodes one frame of each kind.
func everyKind(t testing.TB) [][]byte {
	t.Helper()
	frames := []outFrame{
		{seq: 1, kind: kindRequest, method: "ips.topk", payload: []byte("request")},
		{seq: 2, kind: kindResponse, payload: []byte("response")},
		{seq: 3, kind: kindError, payload: []byte("boom")},
		{seq: 4, kind: kindRequestTraced, method: "ips.topk", traceID: 77, parentSpan: 5, payload: []byte("traced")},
		{seq: 5, kind: kindResponseTraced, blob: []byte("spans"), payload: []byte("traced response")},
		{seq: 6, kind: kindStreamOpen, method: "ips.sub.watch", payload: []byte("open")},
		{seq: 7, kind: kindStreamData, payload: []byte("push")},
		{seq: 8, kind: kindStreamClose},
	}
	var out [][]byte
	for _, f := range frames {
		enc, err := appendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, enc)
	}
	return out
}

// TestFrameReaderSplitEveryBoundary delivers a 3-frame stream in two
// reads, torn at every byte position, and as single bytes: the frames that
// come out never depend on where the socket tore them.
func TestFrameReaderSplitEveryBoundary(t *testing.T) {
	kinds := everyKind(t)
	stream := bytes.Join([][]byte{kinds[0], kinds[4], kinds[7]}, nil)
	want := oneShotFrames(stream)
	if len(want) != 3 {
		t.Fatalf("reference parsed %d frames, want 3", len(want))
	}
	check := func(sizes []int) {
		t.Helper()
		got, err := readAll(t, stream, sizes)
		if err != io.EOF {
			t.Fatalf("sizes %v: terminal error %v, want io.EOF", sizes, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("sizes %v:\n got %v\nwant %v", sizes, got, want)
		}
	}
	for cut := 1; cut < len(stream); cut++ {
		check([]int{cut, len(stream)})
	}
	check([]int{1})
	check([]int{len(stream)})

	// A torn tail is an error, not a short frame and not a clean EOF.
	for cut := 1; cut < len(kinds[7]); cut++ {
		got, err := readAll(t, stream[:len(stream)-len(kinds[7])+cut], []int{7})
		if len(got) != 2 || err != io.ErrUnexpectedEOF {
			t.Fatalf("torn tail: %d frames, err %v; want 2 frames, io.ErrUnexpectedEOF", len(got), err)
		}
	}
}

// TestFrameReaderDoesNotPinLargeFrames: a frame larger than the fixed
// buffer is read into a slice of its own, and the connection's buffer
// stays its fixed size afterwards — the peer cannot make a connection pin
// its largest frame for life.
func TestFrameReaderDoesNotPinLargeFrames(t *testing.T) {
	big := bytes.Repeat([]byte{0xCD}, 4<<20)
	large, err := appendFrame(nil, outFrame{seq: 9, kind: kindResponse, payload: big})
	if err != nil {
		t.Fatal(err)
	}
	small, _ := appendFrame(nil, outFrame{seq: 10, kind: kindResponse, payload: []byte("after")})
	stream := bytes.Join([][]byte{small, large, small}, nil)
	rd := frameReader{r: &chunkReader{data: stream, sizes: []int{100_000}}}
	for i, wantLen := range []int{5, len(big), 5} {
		f, err := rd.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(f.payload) != wantLen {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(f.payload), wantLen)
		}
		if i == 1 && !bytes.Equal(f.payload, big) {
			t.Fatal("large frame corrupted")
		}
	}
	if cap(rd.buf) != readBufSize {
		t.Fatalf("read buffer is %d bytes after a %d-byte frame, want the fixed %d", cap(rd.buf), len(large), readBufSize)
	}
}

// FuzzFrameReader: arbitrary bytes delivered in arbitrary chunk sizes
// never panic, never misuse the source, never grow the buffer, and yield
// exactly the frames a one-shot parse of the same bytes yields.
func FuzzFrameReader(f *testing.F) {
	kinds := everyKind(f)
	for _, k := range kinds {
		f.Add(k, []byte{3})
	}
	all := bytes.Join(kinds, nil)
	f.Add(all, []byte{1})
	f.Add(all, []byte{255, 2, 9})
	f.Add(all[:len(all)-3], []byte{16})                                     // torn tail
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrameSize), []byte{4})   // max-size length prefix, no body
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrameSize+1), []byte{4}) // over the cap
	f.Add(binary.LittleEndian.AppendUint32(nil, 3), []byte{1})              // under the minimum
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 70_000), make([]byte, 70_000)...), []byte{200})
	f.Fuzz(func(t *testing.T, data, chunks []byte) {
		sizes := make([]int, len(chunks))
		for i, c := range chunks {
			sizes[i] = int(c)*37 + 1
		}
		want := oneShotFrames(data)
		got, err := readAll(t, data, sizes)
		if err == nil {
			t.Fatal("reader ended without an error")
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("chunked read yielded %d frames, one-shot parse %d:\n got %v\nwant %v", len(got), len(want), got, want)
		}
	})
}

// countingConn counts the Write calls on a connection and can be told to
// fail them.
type countingConn struct {
	net.Conn
	writes     atomic.Int64
	failNow    atomic.Bool
	writeDelay time.Duration // set before use: makes every Write this slow
}

var errInjectedWrite = errors.New("injected write error")

func (c *countingConn) Write(p []byte) (int, error) {
	if c.failNow.Load() {
		return 0, errInjectedWrite
	}
	c.writes.Add(1)
	time.Sleep(c.writeDelay)
	return c.Conn.Write(p)
}

// dialCounting makes c dial through countingConns and returns a way to
// reach the ones dialed so far.
func dialCounting(c *Client) func() []*countingConn {
	var mu sync.Mutex
	var conns []*countingConn
	c.DialFunc = func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		cc := &countingConn{Conn: conn}
		mu.Lock()
		conns = append(conns, cc)
		mu.Unlock()
		return cc, nil
	}
	return func() []*countingConn {
		mu.Lock()
		defer mu.Unlock()
		return append([]*countingConn(nil), conns...)
	}
}

// TestConcurrentCallsShareWrites: 64 concurrent calls on one connection
// all complete, each with its own response, in fewer write syscalls than
// frames — the combining writer at work, seen both on the client's socket
// and in IOStats.
func TestConcurrentCallsShareWrites(t *testing.T) {
	s := NewServer()
	s.HandleFast("echo", func(_ context.Context, p, dst []byte) ([]byte, error) { return append(dst, p...), nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr)
	c.PoolSize = 1
	defer c.Close()
	dialed := dialCounting(c)
	if _, err := c.Call("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}

	const callers, rounds = 64, 20
	before := IOStats()
	writesBefore := dialed()[0].writes.Load()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		release := make(chan struct{})
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-release
				want := fmt.Sprintf("round %d caller %d", round, i)
				got, err := c.Call("echo", []byte(want))
				if err != nil {
					t.Error(err)
				} else if string(got) != want {
					t.Errorf("caller got %q, want its own %q", got, want)
				}
			}(i)
		}
		close(release)
		wg.Wait()
	}
	io := IOStats().Sub(before)
	if want := uint64(2 * callers * rounds); io.FramesWritten != want || io.FramesRead != want {
		t.Fatalf("frames written %d read %d, want %d each (request and response per call)", io.FramesWritten, io.FramesRead, want)
	}
	if io.Writes >= io.FramesWritten {
		t.Fatalf("%d write syscalls for %d frames: nothing was batched", io.Writes, io.FramesWritten)
	}
	if io.Reads == 0 {
		t.Fatal("no read syscalls counted")
	}
	if w := dialed()[0].writes.Load() - writesBefore; w >= callers*rounds {
		t.Fatalf("client socket saw %d writes for %d requests", w, callers*rounds)
	}
	if len(dialed()) != 1 {
		t.Fatalf("dialed %d connections, want 1", len(dialed()))
	}
}

// TestFlushLeaderHandsOff: when frames keep arriving while the leader
// writes, the caller that happens to lead must not be kept writing other
// callers' frames for as long as the load lasts — after leaderRounds
// writes it hands the loop to a goroutine and goes back to its own call.
// Writes are slowed to 1 ms and 64 callers arrive independently (a
// think time between calls keeps them from falling into lock-step), so
// the next batch is always queued before the current write returns.
func TestFlushLeaderHandsOff(t *testing.T) {
	s := NewServer()
	s.HandleFast("echo", func(_ context.Context, p, dst []byte) ([]byte, error) { return append(dst, p...), nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr)
	c.PoolSize = 1
	defer c.Close()
	c.DialFunc = func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		return &countingConn{Conn: conn, writeDelay: time.Millisecond}, err
	}
	const callers, run = 64, 400 * time.Millisecond
	var worst atomic.Int64
	var wg sync.WaitGroup
	stop := time.Now().Add(run)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; time.Now().Before(stop); n++ {
				time.Sleep(time.Duration((i*7+n*13)%20) * 100 * time.Microsecond)
				start := time.Now()
				if _, err := c.Call("echo", []byte("x")); err != nil {
					t.Error(err)
					return
				}
				if d := int64(time.Since(start)); d > worst.Load() {
					worst.Store(d) // racy max: good enough for a bound this loose
				}
			}
		}(i)
	}
	wg.Wait()
	if d := time.Duration(worst.Load()); d > run/4 {
		t.Fatalf("one call took %v of a %v run: its caller was kept writing for the others", d, run)
	}
}

// TestWriteErrorFailsEveryQueuedCallOnce injects a write error while
// calls are pending and more are being queued. Every pending call must
// return exactly once, with an error; every call queued into the failing
// writer must return exactly once too — failed with the connection, or
// answered on its replacement with its own response, never hung and never
// handed a late response meant for a torn-down call — and no goroutine
// may leak.
func TestWriteErrorFailsEveryQueuedCallOnce(t *testing.T) {
	s := NewServer()
	held := make(chan struct{})
	s.Handle("hold", func(_ context.Context, p, _ []byte) ([]byte, error) { <-held; return p, nil })
	s.HandleFast("echo", func(_ context.Context, p, dst []byte) ([]byte, error) { return append(dst, p...), nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	baseline := runtime.NumGoroutine()

	c := NewClient(addr)
	c.PoolSize = 1
	c.CallTimeout = 10 * time.Second
	dialed := dialCounting(c)
	if _, err := c.Call("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	victim := dialed()[0]

	const pendingCalls, lateCalls = 32, 32
	var returned atomic.Int64
	var wg sync.WaitGroup
	// These are on the wire and parked in the server when the error hits.
	for i := 0; i < pendingCalls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call("hold", []byte("x")); err == nil {
				t.Error("a call pending on the failed connection succeeded")
			}
			returned.Add(1)
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		cc := c.live.Load()
		if cc != nil {
			(*cc)[0].mu.Lock()
			n := len((*cc)[0].pending)
			(*cc)[0].mu.Unlock()
			if n == pendingCalls {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("pending calls never registered")
		}
		time.Sleep(time.Millisecond)
	}
	victim.failNow.Store(true)
	// These queue into the failing writer: the leader's write fails, the
	// followers' queue calls have already returned nil. Once the failure
	// has torn the connection down, later ones ride its replacement.
	for i := 0; i < lateCalls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("late %d", i)
			if got, err := c.Call("echo", []byte(want)); err == nil && string(got) != want {
				t.Errorf("late caller got %q, want its own %q", got, want)
			}
			returned.Add(1)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(8 * time.Second):
		t.Fatalf("%d of %d calls returned after the write error; the rest hang", returned.Load(), pendingCalls+lateCalls)
	}
	close(held) // the server's parked handlers now answer into a dead connection

	// Fresh connection, recycled calls: every response is its caller's.
	var wg2 sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			want := fmt.Sprintf("after %d", i)
			got, err := c.Call("echo", []byte(want))
			if err != nil {
				t.Error(err)
			} else if string(got) != want {
				t.Errorf("got %q, want %q", got, want)
			}
		}(i)
	}
	wg2.Wait()
	if n := len(dialed()); n != 2 {
		t.Fatalf("dialed %d connections, want 2 (the failed one and its replacement)", n)
	}
	c.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipelinedFastHandlersDoNotHoldEachOther: two inline requests
// arrive in one read and one of their handlers outlasts flushAge. The
// first response must be on the wire before the second handler returns —
// here the second handler does not return until the test has read the
// first response. With the slow handler first the read loop flushes
// between the two; with the quick one first its response is queued young,
// and only the watchdog can flush it while the second handler runs.
func TestPipelinedFastHandlersDoNotHoldEachOther(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first time.Duration
	}{
		{"slow then fast", 50 * flushAge},
		{"fast then slow", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer()
			firstRead := make(chan struct{})
			s.HandleFast("first", func(_ context.Context, p, dst []byte) ([]byte, error) {
				time.Sleep(tc.first)
				return append(dst, "first"...), nil
			})
			s.HandleFast("gated", func(_ context.Context, p, dst []byte) ([]byte, error) {
				select {
				case <-firstRead:
					return append(dst, "gated"...), nil
				case <-time.After(5 * time.Second):
					return dst, errors.New("the first response was held behind this handler")
				}
			})
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			both, _ := appendFrame(nil, outFrame{seq: 1, kind: kindRequest, method: "first"})
			both, _ = appendFrame(both, outFrame{seq: 2, kind: kindRequest, method: "gated"})
			if _, err := conn.Write(both); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			rd := frameReader{r: conn}
			first, err := rd.next()
			if err != nil {
				t.Fatal(err)
			}
			if first.seq != 1 || first.kind != kindResponse || string(first.payload) != "first" {
				t.Fatalf("first frame: seq %d kind %d %q", first.seq, first.kind, first.payload)
			}
			close(firstRead)
			second, err := rd.next()
			if err != nil {
				t.Fatal(err)
			}
			if second.seq != 2 || second.kind != kindResponse || string(second.payload) != "gated" {
				t.Fatalf("second frame: seq %d kind %d %q", second.seq, second.kind, second.payload)
			}
		})
	}
}

// TestFastResponsesShareOneWrite is the other side of the flush rule: a
// run of microsecond handlers that arrived in one read is answered with
// fewer writes than responses.
func TestFastResponsesShareOneWrite(t *testing.T) {
	s := NewServer()
	s.HandleFast("echo", func(_ context.Context, p, dst []byte) ([]byte, error) { return append(dst, p...), nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 200
	var reqs []byte
	for i := 0; i < n; i++ {
		reqs, _ = appendFrame(reqs, outFrame{seq: uint64(i + 1), kind: kindRequest, method: "echo", payload: []byte{byte(i)}})
	}
	before := IOStats()
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rd := frameReader{r: conn}
	for i := 0; i < n; i++ {
		f, err := rd.next()
		if err != nil {
			t.Fatal(err)
		}
		if f.seq != uint64(i+1) || len(f.payload) != 1 || f.payload[0] != byte(i) {
			t.Fatalf("response %d: seq %d payload %v", i, f.seq, f.payload)
		}
	}
	io := IOStats().Sub(before)
	if io.FramesWritten != n {
		t.Fatalf("server wrote %d frames, want %d", io.FramesWritten, n)
	}
	// Measured: 3–14 writes. Under the race detector a pass of the read
	// loop costs about flushAge by itself, so the loop flushes every few
	// responses (33–155 writes) and only "fewer than one each" holds.
	limit := uint64(n / 2)
	if raceEnabled {
		limit = n - 1
	}
	if io.Writes > limit {
		t.Fatalf("%d writes for %d pipelined microsecond responses: not batched", io.Writes, n)
	}
}

// TestRemoteErrorNamesItsMethod: the call path and the stream path both
// fill RemoteError.Method (errors used to print "rpc: remote : msg").
func TestRemoteErrorNamesItsMethod(t *testing.T) {
	s, addr := startEchoServer(t)
	s.HandleStream("sub.fail", func(ctx context.Context, payload []byte, st *ServerStream) error {
		return errors.New("no such pipeline")
	})
	c := NewClient(addr)
	defer c.Close()
	_, err := c.Call("fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Method != "fail" {
		t.Fatalf("call error %v (%+v), want a RemoteError naming method fail", err, re)
	}
	if got, want := err.Error(), "rpc: remote fail: boom"; got != want {
		t.Fatalf("error text %q, want %q", got, want)
	}
	st, err := c.Stream(context.Background(), "sub.fail", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.Recv(context.Background())
	re = nil
	if !errors.As(err, &re) || re.Method != "sub.fail" {
		t.Fatalf("stream error %v (%+v), want a RemoteError naming method sub.fail", err, re)
	}
}
