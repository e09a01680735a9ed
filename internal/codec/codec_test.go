package codec

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	var e Buffer
	e.Uint64(1, 42)
	e.Int64(2, -7)
	e.Uint32(3, math.MaxUint32)
	e.Bool(4, true)
	e.Float64(5, 3.5)
	e.String(6, "alice")
	e.Raw(7, []byte{0xde, 0xad})

	r := NewReader(e.Bytes())

	f, wt, err := r.Next()
	if err != nil || f != 1 || wt != Varint {
		t.Fatalf("field 1: f=%d wt=%d err=%v", f, wt, err)
	}
	if v, _ := r.Uint64(); v != 42 {
		t.Fatalf("field 1 value = %d", v)
	}

	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Int64(); v != -7 {
		t.Fatalf("field 2 value = %d", v)
	}

	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Uint32(); v != math.MaxUint32 {
		t.Fatalf("field 3 value = %d", v)
	}

	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Bool(); !v {
		t.Fatal("field 4 should be true")
	}

	f, wt, err = r.Next()
	if err != nil || f != 5 || wt != Fixed64 {
		t.Fatalf("field 5: f=%d wt=%d err=%v", f, wt, err)
	}
	if v, _ := r.Float64(); v != 3.5 {
		t.Fatalf("field 5 value = %v", v)
	}

	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.String(); v != "alice" {
		t.Fatalf("field 6 value = %q", v)
	}

	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Bytes(); !bytes.Equal(v, []byte{0xde, 0xad}) {
		t.Fatalf("field 7 value = %x", v)
	}

	if !r.Done() {
		t.Fatal("reader should be done")
	}
}

func TestNestedMessage(t *testing.T) {
	var e Buffer
	e.Uint64(1, 9)
	e.Message(2, func(inner *Buffer) {
		inner.String(1, "nested")
		inner.Message(2, func(inner2 *Buffer) {
			inner2.Int64(1, -100)
		})
	})
	e.Uint64(3, 10)

	r := NewReader(e.Bytes())
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Uint64(); v != 9 {
		t.Fatalf("outer field 1 = %d", v)
	}
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	var sub Reader
	if err := r.Sub(&sub); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sub.Next(); err != nil {
		t.Fatal(err)
	}
	if v, _ := sub.String(); v != "nested" {
		t.Fatalf("nested string = %q", v)
	}
	if _, _, err := sub.Next(); err != nil {
		t.Fatal(err)
	}
	var sub2 Reader
	if err := sub.Sub(&sub2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sub2.Next(); err != nil {
		t.Fatal(err)
	}
	if v, _ := sub2.Int64(); v != -100 {
		t.Fatalf("deep int = %d", v)
	}
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Uint64(); v != 10 {
		t.Fatalf("outer field 3 = %d", v)
	}
}

func TestPacked(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64}
	var e Buffer
	e.Packed64(1, vals)
	r := NewReader(e.Bytes())
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := r.Packed64()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("len = %d, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
}

func TestPackedLongPayload(t *testing.T) {
	// Payload length > 127 exercises the length-rewrite shift path.
	vals := make([]uint64, 200)
	for i := range vals {
		vals[i] = uint64(i) * 1_000_003
	}
	var e Buffer
	e.Packed64(7, vals)
	e.Uint64(8, 999) // field after the shifted payload must survive
	r := NewReader(e.Bytes())
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := r.Packed64()
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
	if f, _, err := r.Next(); err != nil || f != 8 {
		t.Fatalf("trailing field = %d err=%v", f, err)
	}
	if v, _ := r.Uint64(); v != 999 {
		t.Fatalf("trailing value = %d", v)
	}
}

func TestPackedI64(t *testing.T) {
	vals := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, -123456}
	var e Buffer
	e.PackedI64(1, vals)
	r := NewReader(e.Bytes())
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := r.PackedI64()
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Small magnitudes must encode small.
	if zigzag(-1) != 1 || zigzag(1) != 2 || zigzag(0) != 0 {
		t.Fatal("zigzag encoding of small values is wrong")
	}
}

func TestInt64RoundTripProperty(t *testing.T) {
	f := func(v int64) bool {
		var e Buffer
		e.Int64(1, v)
		r := NewReader(e.Bytes())
		if _, _, err := r.Next(); err != nil {
			return false
		}
		got, err := r.Int64()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSkip(t *testing.T) {
	var e Buffer
	e.Uint64(1, 5)
	e.Float64(2, 1.5)
	e.Raw(3, []byte("skipme"))
	e.Uint64(4, 6)
	r := NewReader(e.Bytes())
	for i := 0; i < 3; i++ {
		_, wt, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Skip(wt); err != nil {
			t.Fatal(err)
		}
	}
	f, _, err := r.Next()
	if err != nil || f != 4 {
		t.Fatalf("after skips f=%d err=%v", f, err)
	}
	if v, _ := r.Uint64(); v != 6 {
		t.Fatalf("value = %d", v)
	}
}

func TestTruncatedErrors(t *testing.T) {
	var e Buffer
	e.Raw(1, []byte("hello"))
	full := e.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_, wt, err := r.Next()
		if err != nil {
			continue // tag itself truncated: fine
		}
		if _, err := r.Bytes(); err == nil && cut < len(full) {
			t.Fatalf("cut=%d: expected truncation error, wt=%d", cut, wt)
		}
	}
}

func TestReaderNeverPanicsProperty(t *testing.T) {
	f := func(junk []byte) bool {
		r := NewReader(junk)
		for !r.Done() {
			_, wt, err := r.Next()
			if err != nil {
				return true
			}
			if err := r.Skip(wt); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferReset(t *testing.T) {
	var e Buffer
	e.Uint64(1, 1)
	if e.Len() == 0 {
		t.Fatal("buffer should be nonempty")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("reset should empty the buffer")
	}
	e.Grow(1024)
	if cap(e.b) < 1024 {
		t.Fatal("grow should reserve capacity")
	}
}

func TestMessageScratchReuse(t *testing.T) {
	// Encoding many sibling messages should not grow the free list beyond
	// the nesting depth and must produce correct output.
	var e Buffer
	for i := 0; i < 100; i++ {
		e.Message(1, func(inner *Buffer) {
			inner.Uint64(1, uint64(i))
		})
	}
	r := NewReader(e.Bytes())
	for i := 0; i < 100; i++ {
		if _, _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		var sub Reader
		if err := r.Sub(&sub); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sub.Next(); err != nil {
			t.Fatal(err)
		}
		v, _ := sub.Uint64()
		if v != uint64(i) {
			t.Fatalf("message %d: got %d", i, v)
		}
	}
	if e.free == nil || len(*e.free) > 2 {
		t.Fatalf("free list = %v; scratch reuse is broken", e.free)
	}
}

func BenchmarkEncodeProfileShaped(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Buffer
		for s := 0; s < 10; s++ {
			e.Message(1, func(slice *Buffer) {
				slice.Uint64(1, uint64(s))
				for f := 0; f < 20; f++ {
					slice.Message(2, func(feat *Buffer) {
						feat.Uint64(1, uint64(f))
						feat.PackedI64(2, []int64{1, 2, 3})
					})
				}
			})
		}
	}
}
