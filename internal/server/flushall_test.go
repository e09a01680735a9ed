package server

import (
	"sync"
	"testing"
	"time"

	"ips/internal/config"
	"ips/internal/gcache"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/wire"
)

// TestLiveFlushAllDoesNotDeadlock is the reproducer for the FlushAll /
// eviction deadlock: FlushAll used to call flushOne — and through it
// Table.Get, a shard RLock — from inside Table.Each, which already holds
// that shard's RLock. An eviction's Table.Delete queueing for the write
// lock between the two made the re-entrant RLock wait forever. Writers
// keep the cache past MemLimit so the swap thread evicts continuously
// while FlushAll runs in a loop; before the fix this hung within a few
// iterations.
func TestLiveFlushAllDoesNotDeadlock(t *testing.T) {
	cfg := config.Default()
	cfg.WriteIsolation = false
	store, err := config.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clock := &simClock{now: 1_000_000_000}
	in, err := New(Options{
		Name: "ips-flushall", Region: "east", Store: kv.NewMemory(), Config: store, Clock: clock.Now,
		Cache: gcache.Options{
			MemLimit: 64 << 10, MemLowWater: 32 << 10,
			SwapInterval: time.Millisecond, FlushInterval: time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CreateTable("up", model.NewSchema("like", "share")); err != nil {
		t.Fatal(err)
	}

	const writers, addsPerWriter, flushes = 4, 3000, 200
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < addsPerWriter; i++ {
					select {
					case <-stop:
						return
					default:
					}
					id := model.ProfileID(w*addsPerWriter + i%1500 + 1)
					err := in.Add("test", "up", id, []wire.AddEntry{{
						Timestamp: 1_000_000_000, Slot: 1, Type: 1, FID: model.FeatureID(i), Counts: []int64{1, 0},
					}})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		for i := 0; i < flushes; i++ {
			if err := in.FlushAll(); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
		wg.Wait()
	}()
	select {
	case <-finished:
		in.Close()
	case <-time.After(60 * time.Second):
		// The instance is wedged; closing it would hang too.
		t.Fatal("FlushAll, eviction and writers deadlocked")
	}
}
