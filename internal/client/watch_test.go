package client

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ips/internal/discovery"
	"ips/internal/model"
	"ips/internal/rpc"
	"ips/internal/wire"
)

// subRecv pulls one update or fails the test.
func subRecv(t *testing.T, s *Subscription) *wire.SubUpdate {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	u, err := s.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	return u
}

// awaitValue loops Recv until an update for id carries count want on
// fid 7 (resubscription races can interleave stale and fresh updates).
func awaitValue(t *testing.T, s *Subscription, id model.ProfileID, want int64) *wire.SubUpdate {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		u, err := s.Recv(ctx)
		cancel()
		if err != nil {
			break
		}
		if u.ProfileID != id {
			continue
		}
		for _, f := range u.Result.Features {
			if f.FID == 7 && len(f.Counts) > 0 && f.Counts[0] == want {
				return u
			}
		}
	}
	t.Fatalf("no update for profile %d reaching count %d", id, want)
	return nil
}

func TestSubscribeBaselinesAndUpdates(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 2)
	c := newClient(t, cl, "east")
	c.RefreshNow()

	s, err := c.Subscribe(context.Background(),
		"source(up, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12) | slot(1) | topk(5)")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One Resync baseline per watched profile, across however many owner
	// streams the ring produced.
	seen := map[model.ProfileID]bool{}
	for len(seen) < 12 {
		u := subRecv(t, s)
		if !u.Resync {
			t.Fatalf("pre-write update not a baseline: %+v", u)
		}
		seen[u.ProfileID] = true
	}
	if c.SubStreams.Value() == 0 || c.Subscriptions.Value() != 1 {
		t.Fatalf("streams=%d subscriptions=%d", c.SubStreams.Value(), c.Subscriptions.Value())
	}

	// A write pushes once it becomes query-visible (merge).
	if err := c.Add("up", 5, wire.AddEntry{
		Timestamp: clock.Now() - 1000, Slot: 1, Type: 1, FID: 7, Counts: []int64{41, 0},
	}); err != nil {
		t.Fatal(err)
	}
	forceVisible(cl)
	awaitValue(t, s, 5, 41)

	s.Close()
	if _, err := s.Recv(context.Background()); err != ErrSubscriptionClosed {
		t.Fatalf("Recv after Close = %v", err)
	}
	if c.Subscriptions.Value() != 0 || c.SubStreams.Value() != 0 {
		t.Fatalf("post-close streams=%d subscriptions=%d", c.SubStreams.Value(), c.Subscriptions.Value())
	}
}

// TestSubscribeResubscribeOnRingChange drains a node and expects the
// subscription to transparently re-home its profiles on the new owner:
// fresh Resync baselines, then live updates from the new instance.
func TestSubscribeResubscribeOnRingChange(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 2)
	c := newClient(t, cl, "east")
	c.RefreshNow()

	ids := []model.ProfileID{1, 2, 3, 4, 5, 6, 7, 8}
	s, err := c.Subscribe(context.Background(), "source(up, 1, 2, 3, 4, 5, 6, 7, 8) | slot(1)")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seen := map[model.ProfileID]bool{}
	for len(seen) < len(ids) {
		seen[subRecv(t, s).ProfileID] = true
	}

	// Find a node that owns at least one watched id, then drain it.
	victim := cl.Nodes()[0]
	var moved []model.ProfileID
	for _, id := range ids {
		if c.route("east", id) == victim.Addr {
			moved = append(moved, id)
		}
	}
	if len(moved) == 0 {
		t.Skip("ring gave the victim no watched keys")
	}
	victim.SetState(discovery.StateDraining)
	c.RefreshNow()

	// The manager's next tick reconciles: moved ids resubscribe on the
	// surviving owner and re-baseline. (The survivor's own ids re-baseline
	// too — its stream's ID share grew, so it reopens as well.)
	reseen := map[model.ProfileID]bool{}
	allMoved := func() bool {
		for _, id := range moved {
			if !reseen[id] {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	for !allMoved() && time.Now().Before(deadline) {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		u, err := s.Recv(ctx)
		cancel()
		if err != nil {
			break
		}
		if u.Resync {
			reseen[u.ProfileID] = true
		}
	}
	for _, id := range moved {
		if !reseen[id] {
			t.Fatalf("moved profile %d never re-baselined (got %v)", id, reseen)
		}
	}
	if c.SubResubscribes.Value() == 0 {
		t.Fatal("ring change did not count a resubscribe")
	}

	// Live updates flow from the new owner.
	target := moved[0]
	if err := c.Add("up", target, wire.AddEntry{
		Timestamp: clock.Now() - 1000, Slot: 1, Type: 1, FID: 7, Counts: []int64{7, 0},
	}); err != nil {
		t.Fatal(err)
	}
	forceVisible(cl)
	awaitValue(t, s, target, 7)
}

// TestSubscribeSurvivesCrashRestart kills a watched owner outright; the
// dead stream's worker exits, and once the node restarts (or the ring
// reroutes), the subscription recovers with a Resync baseline.
func TestSubscribeSurvivesCrashRestart(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 2)
	c := newClient(t, cl, "east")
	c.RefreshNow()

	s, err := c.Subscribe(context.Background(), "source(up, 1, 2, 3, 4) | slot(1)")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	seen := map[model.ProfileID]bool{}
	for len(seen) < 4 {
		seen[subRecv(t, s).ProfileID] = true
	}

	victim := cl.Nodes()[0]
	if err := cl.Crash(victim.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Restart(victim.Name); err != nil {
		t.Fatal(err)
	}
	c.RefreshNow()

	// Post-restart, a write to any watched id must still reach the
	// subscriber: the dead owner's worker resubscribed to wherever the
	// refreshed ring now places the id.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		err := c.Add("up", 2, wire.AddEntry{
			Timestamp: clock.Now() - 1000, Slot: 1, Type: 1, FID: 7, Counts: []int64{9, 0},
		})
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	forceVisible(cl)
	awaitValue(t, s, 2, 9)
}

// TestSubscriptionRecoversFromStreamOverflow stalls the application while
// its owner pushes without pause: the client's stream buffer overflows,
// the stream ends, and the subscription reopens it and takes the fresh
// stream's baseline — without the application doing anything.
func TestSubscriptionRecoversFromStreamOverflow(t *testing.T) {
	srv := rpc.NewServer()
	var opens atomic.Int32
	flooded := make(chan struct{})
	srv.HandleStream(wire.MethodSubWatch, func(ctx context.Context, _ []byte, st *rpc.ServerStream) error {
		if opens.Add(1) == 1 {
			// Push until the client gives up on the stream (bounded, in
			// case it never does).
			u := wire.EncodeSubUpdate(&wire.SubUpdate{ProfileID: 1, Seq: 1})
			for i := 0; i < 1<<20 && ctx.Err() == nil; i++ {
				if st.Send(u) != nil {
					break
				}
			}
			<-ctx.Done()
			close(flooded)
			return ctx.Err()
		}
		if err := st.Send(wire.EncodeSubUpdate(&wire.SubUpdate{ProfileID: 1, Seq: 1, Resync: true})); err != nil {
			return err
		}
		<-ctx.Done()
		return ctx.Err()
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := discovery.NewRegistry(0)
	reg.Register(discovery.Instance{Service: "ips", Addr: addr, Region: "east"})
	c, err := New(Options{Caller: "test", Region: "east", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.RefreshNow()

	s, err := c.Subscribe(context.Background(), "source(up, 1) | slot(1)")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	select {
	case <-flooded:
	case <-time.After(10 * time.Second):
		t.Fatal("the flooded stream was never closed by the client")
	}
	// Now drain: the backlog the subscription already held, then the
	// reopened stream's baseline.
	for {
		u := subRecv(t, s)
		if u.Resync {
			break
		}
	}
	if got := opens.Load(); got != 2 {
		t.Fatalf("owner saw %d stream opens, want 2 (the flooded one and its reopen)", got)
	}
}
