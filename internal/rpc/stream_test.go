package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// startStreamServer serves a handful of stream shapes used across the
// stream tests.
func startStreamServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	// count.N pushes N frames "0".."N-1" then closes cleanly.
	s.HandleStream("count", func(ctx context.Context, payload []byte, st *ServerStream) error {
		n := int(payload[0])
		for i := 0; i < n; i++ {
			if err := st.Send([]byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	// hold pushes one frame then blocks until the client closes.
	s.HandleStream("hold", func(ctx context.Context, payload []byte, st *ServerStream) error {
		if err := st.Send(payload); err != nil {
			return err
		}
		<-ctx.Done()
		return ctx.Err()
	})
	// fail closes with an error without pushing anything.
	s.HandleStream("failstream", func(ctx context.Context, payload []byte, st *ServerStream) error {
		return errors.New("stream boom")
	})
	// panicstream panics; the framework must contain it.
	s.HandleStream("panicstream", func(ctx context.Context, payload []byte, st *ServerStream) error {
		panic("kaboom")
	})
	s.Handle("echo", func(_ context.Context, p, _ []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestStreamCountAndCleanClose(t *testing.T) {
	_, addr := startStreamServer(t)
	c := NewClient(addr)
	defer c.Close()
	ctx := context.Background()
	st, err := c.Stream(ctx, "count", []byte{5})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 5; i++ {
		p, err := st.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(p) != 1 || int(p[0]) != i {
			t.Fatalf("recv %d = %v", i, p)
		}
	}
	if _, err := st.Recv(ctx); err != io.EOF {
		t.Fatalf("after clean close: %v, want io.EOF", err)
	}
}

func TestStreamServerError(t *testing.T) {
	_, addr := startStreamServer(t)
	c := NewClient(addr)
	defer c.Close()
	ctx := context.Background()
	st, err := c.Stream(ctx, "failstream", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.Recv(ctx)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "stream boom" {
		t.Fatalf("recv err = %v", err)
	}
}

func TestStreamHandlerPanicContained(t *testing.T) {
	_, addr := startStreamServer(t)
	c := NewClient(addr)
	defer c.Close()
	ctx := context.Background()
	st, err := c.Stream(ctx, "panicstream", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.Recv(ctx)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("recv err = %v, want RemoteError", err)
	}
	// The connection must survive the panic for ordinary calls.
	if resp, err := c.Call("echo", []byte("still alive")); err != nil || string(resp) != "still alive" {
		t.Fatalf("echo after panic = %q, %v", resp, err)
	}
}

func TestStreamUnknownMethod(t *testing.T) {
	_, addr := startStreamServer(t)
	c := NewClient(addr)
	defer c.Close()
	ctx := context.Background()
	st, err := c.Stream(ctx, "no.such.stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.Recv(ctx)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("recv err = %v, want RemoteError", err)
	}
}

func TestStreamClientCloseCancelsHandler(t *testing.T) {
	s := NewServer()
	released := make(chan struct{})
	s.HandleStream("hold", func(ctx context.Context, payload []byte, st *ServerStream) error {
		<-ctx.Done()
		close(released)
		return ctx.Err()
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr)
	defer c.Close()
	st, err := c.Stream(context.Background(), "hold", nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("server handler not canceled by client close")
	}
	if _, err := st.Recv(context.Background()); err != ErrClosed {
		t.Fatalf("recv after close = %v, want ErrClosed", err)
	}
}

func TestStreamServerCloseFailsStreams(t *testing.T) {
	s, addr := startStreamServer(t)
	c := NewClient(addr)
	defer c.Close()
	ctx := context.Background()
	st, err := c.Stream(ctx, "hold", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := st.Recv(ctx); err == nil {
		t.Fatal("recv after server close succeeded")
	}
}

func TestStreamInterleavesWithCalls(t *testing.T) {
	_, addr := startStreamServer(t)
	c := NewClient(addr)
	defer c.Close()
	ctx := context.Background()
	st, err := c.Stream(ctx, "hold", []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if p, err := st.Recv(ctx); err != nil || string(p) != "first" {
		t.Fatalf("stream recv = %q, %v", p, err)
	}
	// The held stream must not block pooled calls on the same client.
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("call-%d", i)
			resp, err := c.Call("echo", []byte(msg))
			if err != nil || string(resp) != msg {
				t.Errorf("call %d = %q, %v", i, resp, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestStreamSlowConsumerDoesNotBlockConnection(t *testing.T) {
	s := NewServer()
	s.HandleStream("burst", func(ctx context.Context, payload []byte, st *ServerStream) error {
		for i := 0; i < 2000; i++ {
			if err := st.Send(make([]byte, 128)); err != nil {
				return err
			}
		}
		<-ctx.Done()
		return ctx.Err()
	})
	s.Handle("echo", func(_ context.Context, p, _ []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(addr)
	c.PoolSize = 1 // force calls onto the stream's connection
	defer c.Close()
	st, err := c.Stream(context.Background(), "burst", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Never Recv: the 2000 pushed frames buffer client-side. Calls on the
	// same connection must still complete.
	for i := 0; i < 10; i++ {
		if _, err := c.Call("echo", []byte("ping")); err != nil {
			t.Fatalf("call %d with unread stream backlog: %v", i, err)
		}
	}
	// Now drain a few to prove the backlog is intact and ordered.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 100; i++ {
		if _, err := st.Recv(ctx); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
}

func TestStreamRecvContextCanceled(t *testing.T) {
	_, addr := startStreamServer(t)
	c := NewClient(addr)
	defer c.Close()
	st, err := c.Stream(context.Background(), "hold", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recv(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := st.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("recv = %v, want deadline exceeded", err)
	}
}
