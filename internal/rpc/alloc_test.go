package rpc

// Allocation gates for the frame layer: encode into a reused buffer,
// read+parse through the connection's fixed read buffer. These are the
// transport stages of the zero-allocation read path; the end-to-end gate
// lives in internal/server.

import (
	"bytes"
	"testing"
)

// loopReader replays one encoded frame forever, standing in for a
// socket that keeps delivering identical requests.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func TestFrameCodecAllocFree(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 256)
	encoded, err := appendFrame(nil, outFrame{seq: 42, kind: kindRequest, method: "ips.query.topk", payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	rd := frameReader{r: &loopReader{data: encoded}}
	var out []byte
	var fr frame
	for i := 0; i < 8; i++ {
		if fr, err = rd.next(); err != nil {
			t.Fatal(err)
		}
		if out, err = appendFrame(out[:0], outFrame{seq: fr.seq, kind: kindRequest, method: "ips.query.topk", payload: fr.payload}); err != nil {
			t.Fatal(err)
		}
	}
	if fr.seq != 42 || string(fr.method) != "ips.query.topk" || !bytes.Equal(fr.payload, payload) {
		t.Fatalf("frame roundtrip corrupted: seq=%d method=%q", fr.seq, fr.method)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if fr, err = rd.next(); err != nil {
			t.Fatal(err)
		}
		if out, err = appendFrame(out[:0], outFrame{seq: fr.seq, kind: kindRequest, method: "ips.query.topk", payload: fr.payload}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed frame read+parse+encode: %.2f allocs/run, want 0", allocs)
	}
}

func BenchmarkFrameEncode(b *testing.B) {
	payload := bytes.Repeat([]byte{0xAB}, 256)
	var out []byte
	var err error
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out, err = appendFrame(out[:0], outFrame{seq: uint64(i), kind: kindRequest, method: "ips.query.topk", payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameReadParse(b *testing.B) {
	payload := bytes.Repeat([]byte{0xAB}, 256)
	encoded, err := appendFrame(nil, outFrame{seq: 42, kind: kindRequest, method: "ips.query.topk", payload: payload})
	if err != nil {
		b.Fatal(err)
	}
	rd := frameReader{r: &loopReader{data: encoded}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err = rd.next(); err != nil {
			b.Fatal(err)
		}
	}
}
