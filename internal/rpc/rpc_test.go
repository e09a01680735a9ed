package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func startEchoServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Handle("echo", func(_ context.Context, p, _ []byte) ([]byte, error) { return p, nil })
	s.Handle("upper", func(_ context.Context, p, _ []byte) ([]byte, error) { return bytes.ToUpper(p), nil })
	s.Handle("fail", func(_ context.Context, p, _ []byte) ([]byte, error) { return nil, errors.New("boom") })
	s.Handle("panic", func(_ context.Context, p, _ []byte) ([]byte, error) { panic("kaboom") })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestCallEcho(t *testing.T) {
	_, addr := startEchoServer(t)
	c := NewClient(addr)
	defer c.Close()
	resp, err := c.Call("echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "hello" {
		t.Fatalf("resp = %q", resp)
	}
	resp, err = c.Call("upper", []byte("abc"))
	if err != nil || string(resp) != "ABC" {
		t.Fatalf("upper = %q, %v", resp, err)
	}
}

func TestEmptyPayloads(t *testing.T) {
	_, addr := startEchoServer(t)
	c := NewClient(addr)
	defer c.Close()
	resp, err := c.Call("echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 0 {
		t.Fatalf("resp = %q", resp)
	}
}

func TestLargePayload(t *testing.T) {
	_, addr := startEchoServer(t)
	c := NewClient(addr)
	c.CallTimeout = 10 * time.Second
	defer c.Close()
	big := bytes.Repeat([]byte("x"), 1<<20)
	resp, err := c.Call("echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Fatal("large payload mangled")
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := startEchoServer(t)
	c := NewClient(addr)
	defer c.Close()
	_, err := c.Call("fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if !strings.Contains(re.Msg, "boom") {
		t.Fatalf("msg = %q", re.Msg)
	}
}

func TestHandlerPanicRecovered(t *testing.T) {
	_, addr := startEchoServer(t)
	c := NewClient(addr)
	defer c.Close()
	_, err := c.Call("panic", nil)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
	// Connection survives the panic.
	if _, err := c.Call("echo", []byte("still alive")); err != nil {
		t.Fatalf("post-panic call: %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, addr := startEchoServer(t)
	c := NewClient(addr)
	defer c.Close()
	_, err := c.Call("nope", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiplexedConcurrentCalls(t *testing.T) {
	s, addr := startEchoServer(t)
	// A slow method must not block fast calls on the same connection.
	s.Handle("slow", func(_ context.Context, p, _ []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return p, nil
	})
	c := NewClient(addr)
	c.PoolSize = 1 // force one shared connection
	c.CallTimeout = 5 * time.Second
	defer c.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c.Call("slow", []byte("s")); err != nil {
			t.Errorf("slow call: %v", err)
		}
	}()
	// Give the slow call a head start on the wire.
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	if _, err := c.Call("echo", []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("fast call took %v behind a slow call; multiplexing broken", elapsed)
	}
	<-done
}

func TestConcurrentLoad(t *testing.T) {
	_, addr := startEchoServer(t)
	c := NewClient(addr)
	c.PoolSize = 3
	c.CallTimeout = 5 * time.Second
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				msg := []byte(fmt.Sprintf("w%d-%d", w, i))
				resp, err := c.Call("echo", msg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, msg) {
					errs <- fmt.Errorf("response mismatch: %q != %q", resp, msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestCallTimeout(t *testing.T) {
	s, addr := startEchoServer(t)
	s.Handle("hang", func(_ context.Context, p, _ []byte) ([]byte, error) {
		time.Sleep(2 * time.Second)
		return p, nil
	})
	c := NewClient(addr)
	defer c.Close()
	c.CallTimeout = 50 * time.Millisecond
	start := time.Now()
	_, err := c.Call("hang", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("timeout took too long")
	}
	// Late response for the timed-out call must not break later calls.
	c.CallTimeout = 5 * time.Second
	if _, err := c.Call("echo", []byte("ok")); err != nil {
		t.Fatalf("post-timeout call: %v", err)
	}
}

func TestServerDelayInjection(t *testing.T) {
	s, addr := startEchoServer(t)
	s.SetDelay(func(method string) time.Duration { return 30 * time.Millisecond })
	c := NewClient(addr)
	defer c.Close()
	start := time.Now()
	if _, err := c.Call("echo", nil); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("injected delay not applied")
	}
}

func TestServerDropInjection(t *testing.T) {
	s, addr := startEchoServer(t)
	s.SetDropRate(func() float64 { return 1.0 }) // drop everything
	c := NewClient(addr)
	c.CallTimeout = 50 * time.Millisecond
	defer c.Close()
	if _, err := c.Call("echo", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout from dropped response", err)
	}
	s.SetDropRate(nil)
	c.CallTimeout = time.Second
	if _, err := c.Call("echo", nil); err != nil {
		t.Fatalf("after drop disabled: %v", err)
	}
}

func TestServerCloseFailsInflight(t *testing.T) {
	s, addr := startEchoServer(t)
	s.Handle("block", func(_ context.Context, p, _ []byte) ([]byte, error) {
		time.Sleep(5 * time.Second)
		return p, nil
	})
	c := NewClient(addr)
	c.CallTimeout = 10 * time.Second
	defer c.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call("block", nil)
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	// Closing the client fails the in-flight call immediately.
	c.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("in-flight call should fail on close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call hung after close")
	}
	_ = s
}

func TestCallAfterClientClose(t *testing.T) {
	_, addr := startEchoServer(t)
	c := NewClient(addr)
	c.Close()
	if _, err := c.Call("echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestDialFailure(t *testing.T) {
	c := NewClient("127.0.0.1:1") // nothing listens here
	c.DialTimeout = 100 * time.Millisecond
	defer c.Close()
	if _, err := c.Call("echo", nil); err == nil {
		t.Fatal("dial to dead address should fail")
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	s := NewServer()
	s.Handle("echo", func(_ context.Context, p, _ []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(addr)
	defer c.Close()
	if _, err := c.Call("echo", []byte("1")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Calls fail while the server is down.
	c.CallTimeout = 100 * time.Millisecond
	if _, err := c.Call("echo", []byte("2")); err == nil {
		t.Fatal("call to downed server should fail")
	}

	// Restart on the same address; the client dials fresh connections.
	s2 := NewServer()
	s2.Handle("echo", func(_ context.Context, p, _ []byte) ([]byte, error) { return p, nil })
	if _, err := net0Listen(s2, addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer s2.Close()

	var ok bool
	c.CallTimeout = 200 * time.Millisecond
	for i := 0; i < 20; i++ {
		if _, err := c.Call("echo", []byte("3")); err == nil {
			ok = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !ok {
		t.Fatal("client never recovered after server restart")
	}
}

func net0Listen(s *Server, addr string) (string, error) { return s.Listen(addr) }

func TestFrameSizeLimit(t *testing.T) {
	dst := []byte("kept")
	out, err := appendFrame(dst, outFrame{seq: 1, kind: kindRequest, method: "m", payload: make([]byte, MaxFrameSize)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if string(out) != "kept" {
		t.Fatalf("a rejected frame left %d bytes in the buffer", len(out)-len(dst))
	}
}

func BenchmarkCallRoundTrip(b *testing.B) {
	s := NewServer()
	s.Handle("echo", func(_ context.Context, p, _ []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr)
	c.CallTimeout = 5 * time.Second
	defer c.Close()
	payload := bytes.Repeat([]byte("x"), 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}
