package wal

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ips/internal/config"
	"ips/internal/wire"
)

func openT(t *testing.T, path string, opts Options) *Journal {
	t.Helper()
	j, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// recordsT returns the journal's retained records, decoded.
func recordsT(t *testing.T, j *Journal) []Record {
	t.Helper()
	recs, err := j.Records()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j := openT(t, path, Options{})

	entries := []wire.AddEntry{
		{Timestamp: 1000, Slot: 1, Type: 2, FID: 42, Counts: []int64{1, 0, 3}},
		{Timestamp: 2000, Slot: 1, Type: 2, FID: 43, Counts: []int64{0, 5, 0}},
	}
	lsn1, err := j.AppendAdd(context.Background(), "up", 7, entries)
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := j.AppendDelete("up", 9)
	if err != nil {
		t.Fatal(err)
	}
	compactCfg := config.Default()
	compactCfg.Truncate.MaxSlices = 11
	lsn3, err := j.AppendCompact("up", 7, 123456, compactCfg)
	if err != nil {
		t.Fatal(err)
	}
	if lsn1 != 1 || lsn2 != 2 || lsn3 != 3 {
		t.Fatalf("lsns = %d,%d,%d", lsn1, lsn2, lsn3)
	}
	if err := j.SaveOffsets("pipe", map[string][]int64{"impression": {3, 7}, "action": {1}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openT(t, path, Options{})
	defer j2.Close()
	recs := recordsT(t, j2)
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if recs[0].Op != OpAdd || recs[0].Table != "up" || recs[0].Profile != 7 {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	if !reflect.DeepEqual(recs[0].Entries, entries) {
		t.Fatalf("entries = %+v", recs[0].Entries)
	}
	if recs[1].Op != OpDelete || recs[1].Profile != 9 {
		t.Fatalf("rec1 = %+v", recs[1])
	}
	if recs[2].Op != OpCompact || recs[2].Now != 123456 {
		t.Fatalf("rec2 = %+v", recs[2])
	}
	// The config snapshot rides the OpCompact record across reopen.
	if recs[2].Cfg == nil || recs[2].Cfg.Truncate.MaxSlices != 11 ||
		!reflect.DeepEqual(recs[2].Cfg.TimeDimension, compactCfg.TimeDimension) {
		t.Fatalf("rec2 cfg = %+v", recs[2].Cfg)
	}
	offs := j2.Offsets("pipe")
	if !reflect.DeepEqual(offs, map[string][]int64{"impression": {3, 7}, "action": {1}}) {
		t.Fatalf("offsets = %+v", offs)
	}
	if j2.Offsets("nope") != nil {
		t.Fatal("unknown pipeline should have nil offsets")
	}
	// LSNs continue where the previous incarnation stopped.
	lsn, err := j2.AppendDelete("up", 1)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 5 {
		t.Fatalf("post-reopen lsn = %d, want 5", lsn)
	}
}

func TestJournalTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j := openT(t, path, Options{})
	for i := 0; i < 4; i++ {
		if _, err := j.AppendAdd(context.Background(), "up", uint64(i+1), []wire.AddEntry{{Timestamp: 1, Counts: []int64{1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate at every byte boundary: the reopened journal must recover
	// exactly the records whose frames fit the prefix.
	frame := len(raw) / 4
	for cut := 0; cut <= len(raw); cut++ {
		p := filepath.Join(t.TempDir(), "cut.log")
		if err := os.WriteFile(p, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jc := openT(t, p, Options{})
		want := cut / frame
		if got := len(recordsT(t, jc)); got != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, got, want)
		}
		jc.Close()
	}
	// Garbage appended to an intact journal is likewise discarded.
	garbled := append(append([]byte(nil), raw...), []byte{0xde, 0xad, 0xbe, 0xef, 0x01}...)
	p := filepath.Join(t.TempDir(), "garbled.log")
	if err := os.WriteFile(p, garbled, 0o644); err != nil {
		t.Fatal(err)
	}
	jg := openT(t, p, Options{})
	defer jg.Close()
	if got := len(recordsT(t, jg)); got != 4 {
		t.Fatalf("garbled: recovered %d records, want 4", got)
	}
}

func TestJournalWatermarkAndCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j := openT(t, path, Options{CompactMinBytes: 1 << 40}) // manual compaction only
	for i := 1; i <= 6; i++ {
		id := uint64(1 + i%2) // profiles 1 and 2 interleaved
		if _, err := j.AppendAdd(context.Background(), "up", id, []wire.AddEntry{{Timestamp: int64(i), Counts: []int64{1}}}); err != nil {
			t.Fatal(err)
		}
	}
	if wm := j.Watermark(); wm != 0 {
		t.Fatalf("watermark = %d, want 0", wm)
	}
	// Profile 2 holds lsns 1,3,5; profile 1 holds 2,4,6. Flushing profile 2
	// up to lsn 3 leaves lsn 2 (profile 1) as the lowest pending.
	j.NoteFlushed("up", 2, 3, 0)
	if wm := j.Watermark(); wm != 1 {
		t.Fatalf("watermark = %d, want 1", wm)
	}
	j.NoteFlushed("up", 1, 6, 0)
	if wm := j.Watermark(); wm != 4 {
		t.Fatalf("watermark = %d, want 4 (lsn 5 still pending)", wm)
	}
	sizeBefore := j.Stats().Size
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Size >= sizeBefore {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", sizeBefore, st.Size)
	}
	if st.Records != 1 { // lsn 5 retained; lsn 6 is retired though above the watermark
		t.Fatalf("retained %d records, want 1", st.Records)
	}
	// Appends still work after the rewrite and survive reopen.
	if _, err := j.AppendAdd(context.Background(), "up", 3, []wire.AddEntry{{Timestamp: 9, Counts: []int64{1}}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := openT(t, path, Options{})
	defer j2.Close()
	recs := recordsT(t, j2)
	if len(recs) != 2 {
		t.Fatalf("post-reopen records = %d, want 2", len(recs))
	}
	if recs[0].LSN != 5 || recs[1].LSN != 7 {
		t.Fatalf("post-reopen lsns = %d,%d", recs[0].LSN, recs[1].LSN)
	}
}

// TestJournalCompactDropsRetiredAboveStrandedRecord pins retention by
// record: one record that is never retired holds the watermark down, but
// the retired records logged after it must still leave the journal, or
// every rewrite copies everything since the stranded record.
func TestJournalCompactDropsRetiredAboveStrandedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j := openT(t, path, Options{CompactMinBytes: 1 << 40})
	// lsn 1 on profile 1 is never retired; profile 2 logs lsns 2..21 and
	// flushes them all.
	if _, err := j.AppendAdd(context.Background(), "up", 1, []wire.AddEntry{{Timestamp: 1, Counts: []int64{1}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := j.AppendAdd(context.Background(), "up", 2, []wire.AddEntry{{Timestamp: int64(i + 2), Counts: []int64{1}}}); err != nil {
			t.Fatal(err)
		}
	}
	j.NoteFlushed("up", 2, 21, 0)
	if wm := j.Watermark(); wm != 0 {
		t.Fatalf("watermark = %d, want 0 (lsn 1 pending)", wm)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Records != 1 || st.Pending != 1 {
		t.Fatalf("after compact: %d records, %d pending; want 1 and 1", st.Records, st.Pending)
	}
	j.Close()
	j2 := openT(t, path, Options{})
	defer j2.Close()
	recs := recordsT(t, j2)
	if len(recs) != 1 || recs[0].LSN != 1 || recs[0].Profile != 1 {
		t.Fatalf("post-reopen records = %+v, want only lsn 1 of profile 1", recs)
	}
	if lsn, err := j2.AppendDelete("up", 3); err != nil || lsn != 22 {
		t.Fatalf("next lsn after reopen = %d (%v), want 22", lsn, err)
	}
}

// TestJournalReopenAfterCompactContinuesLSNs pins that a rewrite which
// drops every record still carries the LSN sequence: profiles persisted
// the retired LSNs as their watermarks, so a reopened journal that
// restarted at 1 would hand out LSNs replay skips as already flushed.
func TestJournalReopenAfterCompactContinuesLSNs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j := openT(t, path, Options{CompactMinBytes: 1 << 40})
	for i := 1; i <= 3; i++ {
		if _, err := j.AppendAdd(context.Background(), "up", 1, []wire.AddEntry{{Timestamp: int64(i), Counts: []int64{1}}}); err != nil {
			t.Fatal(err)
		}
	}
	j.NoteFlushed("up", 1, 3, 0)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Records != 0 {
		t.Fatalf("retained %d records, want 0", st.Records)
	}
	j.Close()
	j2 := openT(t, path, Options{})
	defer j2.Close()
	if recs := recordsT(t, j2); len(recs) != 0 {
		t.Fatalf("post-reopen records = %d, want 0", len(recs))
	}
	if wm := j2.Watermark(); wm != 3 {
		t.Fatalf("post-reopen watermark = %d, want 3", wm)
	}
	lsn, err := j2.AppendAdd(context.Background(), "up", 1, []wire.AddEntry{{Timestamp: 9, Counts: []int64{1}}})
	if err != nil || lsn != 4 {
		t.Fatalf("next lsn after reopen = %d (%v), want 4", lsn, err)
	}
}

func TestJournalOffsetsSurviveCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j := openT(t, path, Options{CompactMinBytes: 1 << 40})
	if err := j.SaveOffsets("pipe", map[string][]int64{"t": {1}}); err != nil {
		t.Fatal(err)
	}
	if err := j.SaveOffsets("pipe", map[string][]int64{"t": {5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendAdd(context.Background(), "up", 1, []wire.AddEntry{{Timestamp: 1, Counts: []int64{1}}}); err != nil {
		t.Fatal(err)
	}
	j.NoteFlushed("up", 1, 3, 0)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := j.Offsets("pipe"); !reflect.DeepEqual(got, map[string][]int64{"t": {5}}) {
		t.Fatalf("offsets after compact = %+v", got)
	}
	j.Close()
	j2 := openT(t, path, Options{})
	defer j2.Close()
	if got := j2.Offsets("pipe"); !reflect.DeepEqual(got, map[string][]int64{"t": {5}}) {
		t.Fatalf("offsets after reopen = %+v", got)
	}
	if got := len(recordsT(t, j2)); got != 0 {
		t.Fatalf("flushed records survived compaction: %d", got)
	}
}

func TestJournalAutoCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j := openT(t, path, Options{CompactMinBytes: 64})
	defer j.Close()
	for i := 1; i <= 32; i++ {
		if _, err := j.AppendAdd(context.Background(), "up", 1, []wire.AddEntry{{Timestamp: int64(i), Counts: []int64{1}}}); err != nil {
			t.Fatal(err)
		}
		j.NoteFlushed("up", 1, uint64(i), 0)
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatal("auto-compaction never triggered")
	}
	if st.Records != 0 {
		t.Fatalf("retained %d flushed records", st.Records)
	}
}

func TestJournalSyncEvery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j := openT(t, path, Options{SyncEvery: 2})
	defer j.Close()
	for i := 0; i < 5; i++ {
		if _, err := j.AppendDelete("up", uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.Syncs != 2 {
		t.Fatalf("syncs = %d, want 2", st.Syncs)
	}
}

func TestJournalIsolatedStreamRetirement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j := openT(t, path, Options{CompactMinBytes: 1 << 40})
	e := []wire.AddEntry{{Timestamp: 1, Counts: []int64{1}}}
	if _, err := j.AppendAdd(context.Background(), "up", 1, e); err != nil { // lsn 1, main stream
		t.Fatal(err)
	}
	lsn2, err := j.AppendIsolatedAdd(context.Background(), "up", 1, e) // lsn 2, isolated stream
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 != 2 {
		t.Fatalf("isolated lsn = %d, want 2", lsn2)
	}
	// A main-stream flush whose watermark passed the isolated lsn (e.g. a
	// compaction bumped WalLSN) retires ONLY the main record; the isolated
	// one stays pending until the merged watermark vouches for it.
	j.NoteFlushed("up", 1, 3, 0)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	recs := recordsT(t, j)
	if len(recs) != 1 || !recs[0].Isolated || recs[0].LSN != 2 {
		t.Fatalf("after main-stream compact: %+v, want the lsn-2 isolated record", recs)
	}
	// The Isolated flag survives the wire format across reopen.
	j.Close()
	j2 := openT(t, path, Options{CompactMinBytes: 1 << 40})
	defer j2.Close()
	recs = recordsT(t, j2)
	if len(recs) != 1 || !recs[0].Isolated {
		t.Fatalf("after reopen: %+v, want isolated record", recs)
	}
	// The merged watermark is what retires it.
	j2.NoteFlushed("up", 1, 0, 2)
	if err := j2.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := len(recordsT(t, j2)); got != 0 {
		t.Fatalf("retained %d records after merged-watermark flush", got)
	}
}

func TestJournalCompactLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	j := openT(t, path, Options{CompactMinBytes: 1 << 40})
	defer j.Close()
	if _, err := j.AppendAdd(context.Background(), "up", 1, []wire.AddEntry{{Timestamp: 1, Counts: []int64{1}}}); err != nil {
		t.Fatal(err)
	}
	j.NoteFlushed("up", 1, 1, 0)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if de.Name() != "wal.log" {
			t.Fatalf("compaction left %q behind", de.Name())
		}
	}
	// The reopened handle after the rename is live: appends land in the
	// renamed file, not the unlinked inode.
	if _, err := j.AppendAdd(context.Background(), "up", 2, []wire.AddEntry{{Timestamp: 2, Counts: []int64{1}}}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("post-compact append vanished (stale fd?)")
	}
}

// TestLiveAppendsRetainFramesOnly: a live journal keeps a record's frame,
// not its decoded form — above all not the caller's Entries slice, which
// it used to pin until the next Compact. Records() decodes on demand and
// must equal what reopening the file yields, and the heap the journal
// retains per add must stay within twice its frame bytes.
func TestLiveAppendsRetainFramesOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	j := openT(t, path, Options{CompactMinBytes: 1 << 40})
	defer j.Close()

	const adds, perAdd, profiles = 20_000, 4, 64
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < adds; i++ {
		// Entries of the shape a caller hands in: a fresh slice, each entry
		// with its own Counts. Nothing else references them after the call.
		entries := make([]wire.AddEntry, perAdd)
		for k := range entries {
			entries[k] = wire.AddEntry{
				Timestamp: int64(1_700_000_000_000 + i), Slot: 1, Type: uint32(k),
				FID: uint64(i*perAdd + k), Counts: []int64{int64(i), 1, 0},
			}
		}
		var err error
		if i%2 == 0 {
			_, err = j.AppendAdd(context.Background(), "user_profile", uint64(i%profiles), entries)
		} else {
			_, err = j.AppendIsolatedAdd(context.Background(), "user_profile", uint64(i%profiles), entries)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	retainedHeap := int64(heap()) - int64(before)
	frameBytes := j.Stats().AppendBytes
	perAddHeap, perAddFrame := retainedHeap/adds, frameBytes/adds
	t.Logf("retained heap %d B/add, frame %d B/add", perAddHeap, perAddFrame)
	if perAddHeap > 2*perAddFrame {
		t.Fatalf("journal retains %d heap bytes per add for a %d-byte frame (limit 2x): decoded entries pinned?", perAddHeap, perAddFrame)
	}

	live := recordsT(t, j)
	j2 := openT(t, path, Options{CompactMinBytes: 1 << 40})
	defer j2.Close()
	reopened := recordsT(t, j2)
	if len(live) != adds {
		t.Fatalf("live journal reports %d records, want %d", len(live), adds)
	}
	if !reflect.DeepEqual(live, reopened) {
		t.Fatal("Records() of the live journal differs from what reopening the file yields")
	}
	last := live[adds-1]
	if !last.Isolated || len(last.Entries) != perAdd || last.Entries[perAdd-1].FID != uint64(adds*perAdd-1) {
		t.Fatalf("last record decoded wrong: %+v", last)
	}
}
