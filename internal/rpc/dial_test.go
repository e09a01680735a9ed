package rpc

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestDialDoesNotBlockHealthyConnection is the regression test for the
// head-of-line blocking bug where pick() held c.mu across net.DialTimeout:
// one blackholed address stalled every concurrent call on the client for up
// to DialTimeout. With dials moved outside the lock, a call must ride an
// existing healthy connection at full speed while a pool top-up dial hangs.
func TestDialDoesNotBlockHealthyConnection(t *testing.T) {
	_, addr := startEchoServer(t)
	c := NewClient(addr)
	c.PoolSize = 2
	c.DialTimeout = 300 * time.Millisecond
	defer c.Close()

	release := make(chan struct{})
	defer close(release)
	var dials atomic.Int32
	c.DialFunc = func(a string, timeout time.Duration) (net.Conn, error) {
		if dials.Add(1) == 1 {
			return net.DialTimeout("tcp", a, timeout)
		}
		// Every later dial is blackholed: it hangs until the test ends.
		<-release
		return nil, errors.New("blackholed")
	}

	// First call dials the one healthy connection (and kicks off a
	// background top-up dial that hangs on the blackhole).
	if _, err := c.Call("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}

	// While that dial is hung, calls must complete promptly on the healthy
	// pooled connection.
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := c.Call("echo", []byte("fast")); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("call %d took %v while a dial was hung; head-of-line blocking is back", i, elapsed)
		}
	}
	// The top-up dial starts on a goroutine of its own; five loopback
	// calls can finish before it has been scheduled.
	for deadline := time.Now().Add(2 * time.Second); dials.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("background top-up dial never started; test exercised nothing")
		}
	}
}

// TestPickWaitersWakeWhenDialSettles covers the zero-connection path: a
// caller that finds another caller's dial in flight must block until that
// dial settles and then resolve (here: fail, the address is unreachable) —
// not deadlock on a lost wakeup.
func TestPickWaitersWakeWhenDialSettles(t *testing.T) {
	c := NewClient("127.0.0.1:1") // nothing listens here
	c.DialTimeout = 100 * time.Millisecond
	defer c.Close()

	gate := make(chan struct{})
	c.DialFunc = func(a string, timeout time.Duration) (net.Conn, error) {
		<-gate
		return nil, errors.New("unreachable")
	}

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Call("echo", nil)
			errs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let one dial start and one waiter park
	close(gate)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("call against unreachable address should fail")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("pick waiter never woke after the dial settled")
		}
	}
}
