package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"ips/internal/config"
	"ips/internal/wire"
)

// seedRecords are the record shapes the journal writes: one per Op.
func seedRecords() []*Record {
	cfg := config.Default()
	cfg.Truncate.MaxSlices = 11
	return []*Record{
		{LSN: 1, Op: OpAdd, Table: "up", Profile: 7, Entries: []wire.AddEntry{
			{Timestamp: 1000, Slot: 1, Type: 2, FID: 42, Counts: []int64{1, 0, 3}},
			{Timestamp: 2000, Slot: 1, Type: 2, FID: 43, Counts: []int64{0, 5, 0}},
		}},
		{LSN: 2, Op: OpAdd, Table: "up", Profile: 8, Isolated: true, Entries: []wire.AddEntry{{Timestamp: 1, Counts: []int64{1}}}},
		{LSN: 3, Op: OpDelete, Table: "up", Profile: 9},
		{LSN: 4, Op: OpCompact, Table: "up", Profile: 7, Now: 123456, Cfg: &cfg},
		func() *Record { r := offsetsRecord(); r.LSN = 5; return r }(),
	}
}

func frameOf(rec *Record) []byte { return buildFrame(rec.Op, rec.LSN, encodePayload(rec)) }

func readBytes(data []byte) (Record, int, error) {
	return readFrame(bufio.NewReader(bytes.NewReader(data)), int64(len(data)))
}

// FuzzReadFrame feeds arbitrary bytes to the journal's frame reader. It
// must never panic, never claim more bytes than it was given, and every
// frame it accepts must survive a rewrite: the decoded record, framed
// again, reads back with the same LSN, op and payload bytes.
func FuzzReadFrame(f *testing.F) {
	for _, rec := range seedRecords() {
		frame := frameOf(rec)
		got, n, err := readBytes(frame)
		if err != nil || n != len(frame) || got.LSN != rec.LSN || got.Op != rec.Op ||
			!bytes.Equal(encodePayload(&got), encodePayload(rec)) {
			f.Fatalf("written frame for op %d does not read back: %+v, %v", rec.Op, got, err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	torn := make([]byte, frameHdrLen)
	binary.LittleEndian.PutUint32(torn[13:], maxPayload)
	f.Add(torn)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := readBytes(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		payload := encodePayload(&rec)
		again, _, err := readBytes(buildFrame(rec.Op, rec.LSN, payload))
		if err != nil {
			t.Fatalf("rewritten frame rejected: %v", err)
		}
		if again.LSN != rec.LSN || again.Op != rec.Op || !bytes.Equal(encodePayload(&again), payload) {
			t.Fatalf("rewritten frame reads back differently: %+v vs %+v", again, rec)
		}
	})
}

// TestTornHeaderAllocatesNothingForPayload pins the reader's allocation to
// the bytes present: a lone header whose length field claims 1 GiB is a
// torn record, reported without allocating the payload it claims.
func TestTornHeaderAllocatesNothingForPayload(t *testing.T) {
	hdr := make([]byte, frameHdrLen)
	binary.LittleEndian.PutUint32(hdr[13:], maxPayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readBytes(hdr)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("torn header accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a torn 1 GiB header allocated %d bytes, want < 1 MiB", got)
	}
}
