package client

import (
	"context"
	"testing"
	"time"

	"ips/internal/discovery"
	"ips/internal/model"
	"ips/internal/rpc"
	"ips/internal/wire"
)

// The allocation gate on the unified client: a warmed, steady-state
// TopKCtx allocates only the response it returns (the QueryResponse, its
// Features, and the one flat array their Counts are carved from), and a
// warmed AddCtx allocates nothing — no goroutine, no channel, no per-call
// slices, timers or buffers on either. The pins are the measured counts;
// a regression in any pooled layer (call slots, call scratch, routing
// snapshot, ladder storage, rpc write buffers) fails the gate. CI's alloc
// job runs these race-free.
//
// testing.AllocsPerRun counts the whole process, so the read runs against
// the real service (whose cache-hit read path allocates nothing) and the
// write against a stub whose add handler allocates nothing: what is left
// is the client's own cost.

const (
	topKAllocs = 3
	addAllocs  = 0
)

func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; allocation counts do not hold")
	}
}

func TestClientTopKAllocs(t *testing.T) {
	skipUnderRace(t)
	cl, clock := newCluster(t, []string{"east"}, 2)
	// A fixed hedge delay no GC pause reaches: the adaptive delay floors
	// at 1ms, so a pause during AllocsPerRun would fire a hedge. The
	// timer is still armed and pooled on every read.
	c := newResilientClient(t, cl, Options{Region: "east", HedgeDelay: time.Second})
	now := clock.Now()
	const id = model.ProfileID(11)
	for fid := model.FeatureID(1); fid <= 12; fid++ {
		if err := c.Add("up", id, wire.AddEntry{Timestamp: now - 1000, Slot: 1, Type: 1, FID: fid, Counts: []int64{int64(fid), 1}}); err != nil {
			t.Fatal(err)
		}
	}
	forceVisible(cl)

	ctx := context.Background()
	req := queryReq(id)
	// Warm every pooled layer: both pooled connections of the owner, call
	// slots, scratch buffers, the server's hot slot for this profile.
	for i := 0; i < 300; i++ {
		resp, err := c.TopKCtx(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Features) != 10 {
			t.Fatalf("warm-up read returned %d features, want 10", len(resp.Features))
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.TopKCtx(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); allocs > topKAllocs {
		t.Fatalf("warmed Client.TopKCtx: %.2f allocs/call, pinned at %d (the returned response)", allocs, topKAllocs)
	}
	checkAttemptIdentity(t, c)
	if c.Hedges.Value() != 0 || c.Retries.Value() != 0 {
		t.Fatalf("steady state hedged %d and retried %d times", c.Hedges.Value(), c.Retries.Value())
	}
}

func TestClientAddAllocs(t *testing.T) {
	skipUnderRace(t)
	srv := rpc.NewServer()
	ack := func(_ context.Context, _, dst []byte) ([]byte, error) { return dst, nil }
	srv.HandleFast(wire.MethodAdd, ack)
	srv.HandleFast(wire.MethodAddBatch, ack)
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

	ctx := context.Background()
	entries := []wire.AddEntry{
		{Timestamp: 1000, Slot: 1, Type: 1, FID: 3, Counts: []int64{1, 0}},
		{Timestamp: 1001, Slot: 1, Type: 2, FID: 4, Counts: []int64{0, 2}},
	}
	for i := 0; i < 300; i++ {
		if err := c.AddCtx(ctx, "up", 11, entries...); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := c.AddCtx(ctx, "up", 11, entries...); err != nil {
			t.Fatal(err)
		}
	}); allocs > addAllocs {
		t.Fatalf("warmed Client.AddCtx: %.2f allocs/call, pinned at %d", allocs, addAllocs)
	}
	if got := c.WriteRPCs.Value(); got != 300+201 {
		t.Fatalf("WriteRPCs = %d, want one per add", got)
	}
}
