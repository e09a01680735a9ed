package kv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

func readRecordBytes(data []byte) (record, int, error) {
	return readRecord(bufio.NewReader(bytes.NewReader(data)), int64(len(data)))
}

// FuzzReadRecord feeds arbitrary bytes to the log's record reader. It
// must never panic, never claim more bytes than it was given, and every
// record it accepts must survive a rewrite byte for byte.
func FuzzReadRecord(f *testing.F) {
	seeds := []record{
		{op: opSet, version: 1, key: "good", value: []byte("data")},
		{op: opSet, version: 2, key: "k0", value: []byte{}},
		{op: opDelete, key: "gone"},
	}
	for _, rec := range seeds {
		raw := appendRecord(nil, rec.op, rec.version, rec.key, rec.value)
		got, n, err := readRecordBytes(raw)
		if err != nil || n != len(raw) || got.op != rec.op || got.version != rec.version ||
			got.key != rec.key || !bytes.Equal(got.value, rec.value) {
			f.Fatalf("written record %q does not read back: %+v, %v", rec.key, got, err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{0xde, 0xad, 0xbe})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := readRecordBytes(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if raw := appendRecord(nil, rec.op, rec.version, rec.key, rec.value); !bytes.Equal(raw, data[:n]) {
			t.Fatalf("accepted record rewrites differently:\n got %x\nwant %x", raw, data[:n])
		}
	})
}

// TestTornHeaderAllocatesNothingForKey pins the reader's allocation to the
// bytes present: a lone header whose key length claims 1 GiB is a
// truncated record, reported without allocating the key it claims.
func TestTornHeaderAllocatesNothingForKey(t *testing.T) {
	hdr := make([]byte, 4+1+8+4)
	hdr[4] = opSet
	binary.LittleEndian.PutUint32(hdr[13:], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readRecordBytes(hdr)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("torn header accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a torn 1 GiB header allocated %d bytes, want < 1 MiB", got)
	}
}
