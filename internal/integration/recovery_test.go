// Kill-and-reopen recovery harness: every test acknowledges writes into a
// journaled instance, simulates a process crash at a chosen point (no
// merge, no flush, no journal sync), reopens the same files, and checks
// that the recovered state contains EXACTLY the acknowledged writes —
// none lost, none duplicated.
package integration

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"ips/internal/config"
	"ips/internal/gcache"
	"ips/internal/ingest"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/server"
	"ips/internal/wal"
	"ips/internal/wire"
)

const recBase = model.Millis(1_700_000_000_000)

// recoveryEnv is one incarnation of a journaled single-node instance over
// durable files in dir. Background flush/swap cadences are set to an hour
// so the tests control persistence explicitly.
type recoveryEnv struct {
	t      *testing.T
	dir    string
	clock  *simClock
	store  *kv.Disk
	jn     *wal.Journal
	inst   *server.Instance
	cfgMut func(*config.Config)
}

func openRecovery(t *testing.T, dir string, clock *simClock) *recoveryEnv {
	return openRecoveryCfg(t, dir, clock, nil)
}

// openRecoveryCfg opens an incarnation whose config is the harness default
// (write isolation off, explicit persistence cadence) further shaped by
// mutate; the mutation is remembered so reopen starts the next incarnation
// under the same config.
func openRecoveryCfg(t *testing.T, dir string, clock *simClock, mutate func(*config.Config)) *recoveryEnv {
	t.Helper()
	store, err := kv.OpenDisk(filepath.Join(dir, "kv.log"))
	if err != nil {
		t.Fatal(err)
	}
	jn, err := wal.Open(filepath.Join(dir, "wal.log"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.WriteIsolation = false
	if mutate != nil {
		mutate(&cfg)
	}
	cfgStore, err := config.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := server.New(server.Options{
		Name: "rec", Region: "local",
		Store: store, Config: cfgStore, Clock: clock.Now, Journal: jn,
		Cache: gcache.Options{FlushInterval: time.Hour, SwapInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.CreateTable("up", model.NewSchema("like", "share")); err != nil {
		t.Fatal(err)
	}
	return &recoveryEnv{t: t, dir: dir, clock: clock, store: store, jn: jn, inst: inst, cfgMut: mutate}
}

// crash kills this incarnation without flushing anything: background
// threads stop, the journal fd closes unsynced, and the KV store is
// simply abandoned (its bufio layer flushes per append, like a process
// kill would leave it).
func (e *recoveryEnv) crash() {
	e.inst.Abort()
	e.jn.Abort()
}

// reopen starts the next incarnation over the same files; CreateTable
// inside openRecovery replays the journal.
func (e *recoveryEnv) reopen() *recoveryEnv {
	return openRecoveryCfg(e.t, e.dir, e.clock, e.cfgMut)
}

// oracle tracks acknowledged writes: profile -> FID -> summed counts.
// Entries all use slot 1, type 1 so one AllTypes query reads everything.
type oracle map[model.ProfileID]map[model.FeatureID][]int64

func (o oracle) ack(id model.ProfileID, entries ...wire.AddEntry) {
	m := o[id]
	if m == nil {
		m = make(map[model.FeatureID][]int64)
		o[id] = m
	}
	for _, en := range entries {
		c := m[en.FID]
		if c == nil {
			c = make([]int64, len(en.Counts))
		}
		for i, n := range en.Counts {
			c[i] += n
		}
		m[en.FID] = c
	}
}

func (o oracle) delete(id model.ProfileID) { delete(o, id) }

// add writes entries through the instance and records them in the oracle
// only when acknowledged.
func (e *recoveryEnv) add(o oracle, id model.ProfileID, entries ...wire.AddEntry) {
	e.t.Helper()
	if err := e.inst.Add("rec", "up", id, entries); err != nil {
		e.t.Fatal(err)
	}
	o.ack(id, entries...)
}

func recEntry(tsOff int64, fid model.FeatureID, like, share int64) wire.AddEntry {
	return wire.AddEntry{Timestamp: recBase + model.Millis(tsOff), Slot: 1, Type: 1, FID: fid, Counts: []int64{like, share}}
}

// counts reads one profile's full per-FID state back through the query
// path.
func (e *recoveryEnv) counts(id model.ProfileID) map[model.FeatureID][]int64 {
	e.t.Helper()
	resp, err := e.inst.Query(&wire.QueryRequest{
		Caller: "rec", Table: "up", ProfileID: id,
		Slot: 1, AllTypes: true,
		RangeKind: query.Absolute, From: 1, To: 1 << 62,
		SortBy: query.ByFeatureID,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	got := make(map[model.FeatureID][]int64, len(resp.Features))
	for _, f := range resp.Features {
		got[f.FID] = f.Counts
	}
	return got
}

// verify asserts the instance state equals the oracle exactly, including
// profiles the oracle says must be absent or empty.
func (e *recoveryEnv) verify(o oracle, ids []model.ProfileID) {
	e.t.Helper()
	for _, id := range ids {
		got := e.counts(id)
		want := o[id]
		if len(want) == 0 {
			if len(got) != 0 {
				e.t.Fatalf("profile %d: want empty, got %v", id, got)
			}
			continue
		}
		if len(got) != len(want) {
			if len(want) > 20 {
				e.t.Fatalf("profile %d: %d features, want %d", id, len(got), len(want))
			}
			e.t.Fatalf("profile %d: %d features, want %d (got %v want %v)", id, len(got), len(want), got, want)
		}
		for fid, wc := range want {
			if !reflect.DeepEqual(got[fid], wc) {
				e.t.Fatalf("profile %d fid %d: counts %v, want %v", id, fid, got[fid], wc)
			}
		}
	}
}

func TestRecoveryPostAckPreFlush(t *testing.T) {
	// Crash point 1: everything acknowledged, nothing flushed. Without
	// the journal every write would be lost; with it, all must return.
	dir := t.TempDir()
	clock := &simClock{now: recBase + 1000}
	e := openRecovery(t, dir, clock)
	o := make(oracle)
	ids := []model.ProfileID{1, 2, 3, 4, 5}
	for i, id := range ids {
		e.add(o, id, recEntry(int64(i)*100, 10, 1, 0), recEntry(int64(i)*100+1, 11, 0, 2))
		e.add(o, id, recEntry(int64(i)*100+2, 10, 3, 1))
	}
	if st := e.store.Len(); st != 0 {
		t.Fatalf("pre-crash store has %d keys; flush cadence should have kept it empty", st)
	}
	e.crash()

	e2 := e.reopen()
	e2.verify(o, ids)
	// The recovered instance keeps working: more writes, another crash,
	// and the journal LSNs keep everything straight across generations.
	e2.add(o, 2, recEntry(500, 12, 7, 7))
	e2.crash()
	e3 := e2.reopen()
	e3.verify(o, ids)
	if err := e3.inst.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryMidFlush(t *testing.T) {
	// Crash point 2: some profiles flushed, some dirty, with more writes
	// landing after the flush. The flushed profile's journal prefix must
	// NOT be re-applied (its WalLSN watermark rode the KV write), while
	// the post-flush suffix and the never-flushed profile must replay.
	dir := t.TempDir()
	clock := &simClock{now: recBase + 1000}
	e := openRecovery(t, dir, clock)
	o := make(oracle)
	e.add(o, 1, recEntry(0, 10, 1, 0), recEntry(1, 11, 2, 0))
	e.add(o, 2, recEntry(2, 10, 5, 5))
	// Flush profile 1 only (Drop persists and evicts).
	if ok, err := e.inst.EvictProfile("up", 1); err != nil || !ok {
		t.Fatalf("evict: %v %v", ok, err)
	}
	// Post-flush writes: profile 1 reloads from storage mid-run.
	e.add(o, 1, recEntry(3, 10, 10, 0))
	e.add(o, 2, recEntry(4, 11, 0, 1))
	e.crash()

	e2 := e.reopen()
	e2.verify(o, []model.ProfileID{1, 2})
	if err := e2.inst.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryTornJournalAppend(t *testing.T) {
	// Crash point 3: the process dies mid-journal-append. The torn frame
	// belongs to a write that was never acknowledged, so recovery must
	// discard it and recover the acknowledged prefix exactly.
	dir := t.TempDir()
	clock := &simClock{now: recBase + 1000}
	e := openRecovery(t, dir, clock)
	o := make(oracle)
	e.add(o, 1, recEntry(0, 10, 1, 0))
	e.add(o, 1, recEntry(1, 11, 0, 1))
	e.crash()

	// Simulate the torn in-flight append: a prefix of plausible frame
	// bytes at the tail of the journal.
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x3c, 0x9a, 0x01, 0x00, 0x01, 0x07}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2 := e.reopen()
	e2.verify(o, []model.ProfileID{1})
	// The reopened journal accepts appends after the discarded tail.
	e2.add(o, 1, recEntry(2, 12, 4, 4))
	e2.crash()
	e3 := e2.reopen()
	e3.verify(o, []model.ProfileID{1})
	if err := e3.inst.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryPipelineOffsets(t *testing.T) {
	// Ingestion recovery: consumer offsets are checkpointed into the
	// journal; after a crash the restarted pipeline resumes where it
	// stopped (no re-ingestion) while the journal replays the writes the
	// consumed events produced (no loss).
	dir := t.TempDir()
	clock := &simClock{now: recBase + 1000}
	e := openRecovery(t, dir, clock)
	o := make(oracle)

	log := ingest.NewLog()
	schema := model.NewSchema("like", "share")
	sink := ingest.SinkFunc(func(caller, table string, id model.ProfileID, entries []wire.AddEntry) error {
		if err := e.inst.Add(caller, table, id, entries); err != nil {
			return err
		}
		o.ack(id, entries...)
		return nil
	})
	pipe := ingest.NewPipeline(log, sink, "up", "rec", schema)

	feed := func(id model.ProfileID, item model.FeatureID, ts model.Millis) {
		log.Append(ingest.TopicImpression, ingest.Message{Key: uint64(id), Value: ingest.EncodeEvent(&ingest.Event{ProfileID: id, ItemID: item, Timestamp: ts, Slot: 1, Type: 1})})
		log.Append(ingest.TopicAction, ingest.Message{Key: uint64(id), Value: ingest.EncodeEvent(&ingest.Event{ProfileID: id, ItemID: item, Timestamp: ts + 10, Action: "like"})})
	}
	feed(1, 100, recBase)
	feed(2, 200, recBase+1000)
	if n := pipe.RunOnce(); n != 2 {
		t.Fatalf("ingested %d, want 2", n)
	}
	if err := e.jn.SaveOffsets("pipe", pipe.Offsets()); err != nil {
		t.Fatal(err)
	}
	e.crash()

	// Restart: cache state replays from the journal, the pipeline resumes
	// from the checkpointed offsets.
	e2 := e.reopen()
	pipe2 := ingest.NewPipeline(log, ingest.SinkFunc(func(caller, table string, id model.ProfileID, entries []wire.AddEntry) error {
		if err := e2.inst.Add(caller, table, id, entries); err != nil {
			return err
		}
		o.ack(id, entries...)
		return nil
	}), "up", "rec", schema)
	offs := e2.jn.Offsets("pipe")
	if offs == nil {
		t.Fatal("offsets checkpoint lost across crash")
	}
	pipe2.SetOffsets(offs)
	feed(1, 101, recBase+2000)
	if n := pipe2.RunOnce(); n != 1 {
		t.Fatalf("post-restart ingested %d, want 1 (offsets should skip consumed events)", n)
	}
	e2.verify(o, []model.ProfileID{1, 2})
	if err := e2.inst.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryRandomizedKillReopen(t *testing.T) {
	// Seeded chaos: random adds, flush-evictions, deletes and compactions
	// interleaved with crashes. After every reopen the recovered state
	// must equal the oracle of acknowledged operations exactly.
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	clock := &simClock{now: recBase + 86_400_000}
	e := openRecovery(t, dir, clock)
	o := make(oracle)
	ids := []model.ProfileID{1, 2, 3, 4, 5, 6}

	for round := 0; round < 4; round++ {
		for op := 0; op < 30; op++ {
			id := ids[rng.Intn(len(ids))]
			switch r := rng.Float64(); {
			case r < 0.80:
				n := 1 + rng.Intn(3)
				entries := make([]wire.AddEntry, n)
				for i := range entries {
					entries[i] = recEntry(int64(rng.Intn(86_400_000)), model.FeatureID(1+rng.Intn(8)), int64(rng.Intn(5)), int64(rng.Intn(5)))
				}
				e.add(o, id, entries...)
			case r < 0.90:
				if _, err := e.inst.EvictProfile("up", id); err != nil {
					t.Fatal(err)
				}
			case r < 0.95:
				if err := e.inst.DeleteProfile("up", id); err != nil {
					t.Fatal(err)
				}
				o.delete(id)
			default:
				if _, err := e.inst.CompactNow("up", id); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.crash()
		e = e.reopen()
		e.verify(o, ids)
	}
	if err := e.inst.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.jn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.store.Close(); err != nil {
		t.Fatal(err)
	}
	// After a clean close everything is flushed; reopening replays the
	// journal against the flushed base and must change nothing.
	e = e.reopen()
	e.verify(o, ids)
	if err := e.inst.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryWriteIsolationUnmergedAdd(t *testing.T) {
	// Crash point 4: an acknowledged isolated add is still sitting in the
	// write table when the process dies, and — crucially — a compaction has
	// pushed the MAIN profile's WalLSN past that add's LSN before a flush.
	// The flush must not vouch for write-table data it never contained: the
	// isolated journal record has to survive both the flush's retirement
	// and a journal compaction, and replay has to fold it back in.
	dir := t.TempDir()
	clock := &simClock{now: recBase + 1000}
	e := openRecoveryCfg(t, dir, clock, func(c *config.Config) { c.WriteIsolation = true })
	o := make(oracle)

	// Add A (isolated, lsn 1) and make it part of the main profile.
	e.add(o, 1, recEntry(0, 10, 1, 0))
	e.inst.MergeAll()
	// Add B (isolated, lsn 2): acknowledged, but only in the write table.
	e.add(o, 1, recEntry(1, 11, 0, 2))
	// Compaction journals lsn 3 onto the MAIN profile, advancing its WalLSN
	// past B's lsn while B remains unmerged.
	if _, err := e.inst.CompactNow("up", 1); err != nil {
		t.Fatal(err)
	}
	// Flush the main profile. It persists (WalLSN=3, MergedLSN=1): the
	// flushed state contains A and the compaction but NOT B.
	if ok, err := e.inst.EvictProfile("up", 1); err != nil || !ok {
		t.Fatalf("evict: %v %v", ok, err)
	}
	// Journal compaction must retain B's record (pending in the isolated
	// stream) even though the main watermark moved past it.
	if err := e.jn.Compact(); err != nil {
		t.Fatal(err)
	}
	found := false
	recs, err := e.jn.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Op == wal.OpAdd && rec.Isolated && rec.LSN == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("journal compaction dropped the unmerged isolated add")
	}
	e.crash() // the write table (holding B) evaporates

	e2 := e.reopen()
	e2.verify(o, []model.ProfileID{1}) // both A and B recovered
	// The recovered instance keeps the streams straight: more isolated
	// writes, a merge, another crash.
	e2.add(o, 1, recEntry(2, 12, 3, 3))
	e2.inst.MergeAll()
	e2.crash()
	e3 := e2.reopen()
	e3.verify(o, []model.ProfileID{1})
	if err := e3.inst.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverySplitAfterBulkSave(t *testing.T) {
	// A profile saved in bulk grows past the persister's SplitThreshold
	// (256 KiB encoded) and its next save goes fine-grained. That save
	// retires the journal records it covers, so the fine-grained value is
	// the only copy of them: a bulk value left behind, which Load prefers,
	// would serve the old state after a reload and lose the retired writes
	// after a crash.
	dir := t.TempDir()
	clock := &simClock{now: recBase + 1000}
	e := openRecovery(t, dir, clock)
	o := make(oracle)
	e.add(o, 1, recEntry(0, 1, 1, 0), recEntry(1, 2, 0, 1))
	if ok, err := e.inst.EvictProfile("up", 1); err != nil || !ok {
		t.Fatalf("evict: %v %v", ok, err)
	}
	// ~10 encoded bytes per feature: 32k distinct features is ~330 KB.
	const batch = 1000
	for b := 0; b < 32; b++ {
		entries := make([]wire.AddEntry, batch)
		for i := range entries {
			entries[i] = recEntry(int64(i%500), model.FeatureID(100+b*batch+i), 1, 2)
		}
		e.add(o, 1, entries...)
	}
	if ok, err := e.inst.EvictProfile("up", 1); err != nil || !ok {
		t.Fatalf("evict: %v %v", ok, err)
	}
	e.verify(o, []model.ProfileID{1}) // reloaded from the store, no crash
	if err := e.jn.Compact(); err != nil {
		t.Fatal(err)
	}
	if recs, err := e.jn.Records(); err != nil || len(recs) != 0 {
		t.Fatalf("journal keeps %d records (%v); the fine-grained save retired them all", len(recs), err)
	}
	e.crash()

	e2 := e.reopen()
	e2.verify(o, []model.ProfileID{1})
	if err := e2.inst.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryLSNsContinueAfterCompactedJournal(t *testing.T) {
	// Every record is flushed and a journal compaction drops them all.
	// The reopened journal must continue the LSN sequence: the stored
	// profile's WalLSN names the retired records, and a post-reopen write
	// that reused one of their LSNs would be skipped on the next replay
	// as already flushed.
	dir := t.TempDir()
	clock := &simClock{now: recBase + 1000}
	e := openRecovery(t, dir, clock)
	o := make(oracle)
	for i := 0; i < 5; i++ {
		e.add(o, 1, recEntry(int64(i), model.FeatureID(10+i), 1, 0))
	}
	if ok, err := e.inst.EvictProfile("up", 1); err != nil || !ok {
		t.Fatalf("evict: %v %v", ok, err)
	}
	if err := e.jn.Compact(); err != nil {
		t.Fatal(err)
	}
	e.crash()

	e2 := e.reopen()
	e2.verify(o, []model.ProfileID{1})
	e2.add(o, 1, recEntry(10, 20, 0, 3)) // journaled, never flushed
	e2.crash()
	e3 := e2.reopen()
	e3.verify(o, []model.ProfileID{1})
	if err := e3.inst.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryCompactReplayUsesJournaledConfig(t *testing.T) {
	// A maintenance pass runs under config X, then the process crashes and
	// restarts under a hot-reloaded, far more aggressive config Y. Replay
	// must re-run the pass with the journaled snapshot of X — re-running it
	// with Y would truncate slices the live instance kept, silently losing
	// acknowledged writes.
	dir := t.TempDir()
	clock := &simClock{now: recBase + 1000}
	e := openRecovery(t, dir, clock)
	o := make(oracle)
	// Three features, tens of seconds apart, so they occupy distinct time
	// slices: an aggressive MaxSlices=1 truncation would drop two of them.
	e.add(o, 1, recEntry(-60_000, 10, 1, 0))
	e.add(o, 1, recEntry(-30_000, 11, 2, 0))
	e.add(o, 1, recEntry(0, 12, 0, 3))
	// Maintenance under the (permissive) default config: journals the pass
	// with its config snapshot; nothing is truncated.
	if _, err := e.inst.CompactNow("up", 1); err != nil {
		t.Fatal(err)
	}
	e.crash()

	// The next incarnation boots under the aggressive config. Replay of the
	// OpCompact record must ignore it in favour of the journaled snapshot.
	e.cfgMut = func(c *config.Config) { c.Truncate.MaxSlices = 1 }
	e2 := e.reopen()
	e2.verify(o, []model.ProfileID{1})
	if err := e2.inst.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryConcurrentAddDeleteEvict(t *testing.T) {
	// Adds, deletes and flush-evictions race on one profile while every
	// mutation is journaled. Whatever interleaving the scheduler picks, the
	// journal's LSN order must equal the apply order — so the state replay
	// reconstructs after a crash must equal the live state at the moment of
	// the crash (deletes neither resurrect earlier adds nor eat later ones).
	dir := t.TempDir()
	clock := &simClock{now: recBase + 1000}
	e := openRecovery(t, dir, clock)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				en := recEntry(int64(g*100+i), model.FeatureID(1+(g+i)%6), 1, int64(i%3))
				if err := e.inst.Add("rec", "up", 1, []wire.AddEntry{en}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := e.inst.DeleteProfile("up", 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			if _, err := e.inst.EvictProfile("up", 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	live := e.counts(1)
	e.crash()

	e2 := e.reopen()
	if got := e2.counts(1); !reflect.DeepEqual(got, live) {
		t.Fatalf("recovered state diverged from live state:\n got %v\nlive %v", got, live)
	}
	if err := e2.inst.Close(); err != nil {
		t.Fatal(err)
	}
}
