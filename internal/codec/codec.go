// Package codec implements the binary wire format IPS uses to serialize the
// profile hierarchy for persistence (§III-E). It plays the role Protocol
// Buffers plays in the paper: a compact tag/varint encoding of nested
// records, implemented from scratch on the standard library.
//
// The format is a stream of fields. Each field starts with a tag byte
// combining a field number and a wire type:
//
//	tag     = fieldNumber<<3 | wireType (as uvarint)
//	VARINT  = unsigned LEB128 integer
//	BYTES   = uvarint length followed by raw bytes (also used for nested
//	          messages, which are themselves encoded field streams)
//	FIXED64 = 8 little-endian bytes
//
// Signed integers use zigzag encoding so small negative counts stay small
// on the wire.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// WireType identifies how a field's payload is encoded.
type WireType byte

// Wire types.
const (
	Varint  WireType = 0
	Fixed64 WireType = 1
	Bytes   WireType = 2
)

// Errors returned by the decoder.
var (
	ErrTruncated = errors.New("codec: truncated input")
	ErrOverflow  = errors.New("codec: varint overflows 64 bits")
	ErrBadWire   = errors.New("codec: unknown wire type")
)

// Buffer accumulates an encoded message. The zero value is ready to use.
type Buffer struct {
	b []byte
	// free points to a scratch pool shared across the whole message tree:
	// nested buffers at any depth return their storage here, so encoding
	// a deep hierarchy allocates one scratch buffer per level, total.
	free *[][]byte
}

// Bytes returns the encoded contents. The slice aliases the buffer.
//
//ips:hotpath
func (e *Buffer) Bytes() []byte { return e.b }

// Len returns the number of encoded bytes.
//
//ips:hotpath
func (e *Buffer) Len() int { return len(e.b) }

// Reset clears the buffer for reuse, retaining capacity.
//
//ips:hotpath
func (e *Buffer) Reset() { e.b = e.b[:0] }

// Attach points the buffer at caller-owned storage: subsequent fields
// append after dst's current length. With Detach this lets encoders
// build directly into pooled slices instead of copying out of an
// internal buffer.
//
//ips:hotpath
func (e *Buffer) Attach(dst []byte) { e.b = dst }

// Detach returns the accumulated bytes and releases the buffer's hold
// on them. The pair `e.Attach(dst); ...; return e.Detach()` is the
// allocation-free replacement for `append([]byte(nil), e.Bytes()...)`.
//
//ips:hotpath
func (e *Buffer) Detach() []byte {
	b := e.b
	e.b = nil
	return b
}

// Grow ensures capacity for at least n more bytes.
//
//ips:hotpath-trust growth into a pooled buffer is amortized away by reuse
func (e *Buffer) Grow(n int) {
	if cap(e.b)-len(e.b) < n {
		nb := make([]byte, len(e.b), len(e.b)+n)
		copy(nb, e.b)
		e.b = nb
	}
}

//ips:hotpath
func (e *Buffer) tag(field uint32, wt WireType) {
	e.uvarint(uint64(field)<<3 | uint64(wt))
}

//ips:hotpath
func (e *Buffer) uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}

// Uint64 encodes an unsigned varint field.
//
//ips:hotpath
func (e *Buffer) Uint64(field uint32, v uint64) {
	e.tag(field, Varint)
	e.uvarint(v)
}

// Int64 encodes a signed varint field using zigzag encoding.
//
//ips:hotpath
func (e *Buffer) Int64(field uint32, v int64) {
	e.Uint64(field, zigzag(v))
}

// Uint32 encodes a 32-bit unsigned varint field.
//
//ips:hotpath
func (e *Buffer) Uint32(field uint32, v uint32) { e.Uint64(field, uint64(v)) }

// Bool encodes a boolean as a 0/1 varint field.
//
//ips:hotpath
func (e *Buffer) Bool(field uint32, v bool) {
	var x uint64
	if v {
		x = 1
	}
	e.Uint64(field, x)
}

// Float64 encodes a float as a fixed64 field.
//
//ips:hotpath
func (e *Buffer) Float64(field uint32, v float64) {
	e.tag(field, Fixed64)
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

// Raw encodes a length-delimited byte field.
//
//ips:hotpath
func (e *Buffer) Raw(field uint32, v []byte) {
	e.tag(field, Bytes)
	e.uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

// String encodes a length-delimited string field.
//
//ips:hotpath
func (e *Buffer) String(field uint32, v string) {
	e.tag(field, Bytes)
	e.uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

// BeginMessage starts a nested message field without the closure (and
// the per-level scratch shuffling) Message takes: it writes the tag and
// a one-byte length placeholder and returns the payload start to hand
// back to EndMessage. The hot response encoder uses this pair so a
// per-feature nested message costs zero allocations.
//
//ips:hotpath
func (e *Buffer) BeginMessage(field uint32) int {
	e.tag(field, Bytes)
	e.b = append(e.b, 0) // length placeholder
	return len(e.b)
}

// EndMessage patches the placeholder written by the matching
// BeginMessage, shifting the payload right only when its length needs
// more than one varint byte (payloads over 127 bytes).
//
//ips:hotpath
func (e *Buffer) EndMessage(payloadStart int) {
	payload := len(e.b) - payloadStart
	var lenBuf [binary.MaxVarintLen64]byte
	ln := binary.PutUvarint(lenBuf[:], uint64(payload))
	if ln == 1 {
		e.b[payloadStart-1] = lenBuf[0]
		return
	}
	for i := 1; i < ln; i++ {
		e.b = append(e.b, 0)
	}
	copy(e.b[payloadStart+ln-1:], e.b[payloadStart:payloadStart+payload])
	copy(e.b[payloadStart-1:], lenBuf[:ln])
}

// Message encodes a nested message field by invoking fn on a scratch buffer.
// Scratch buffers are reused per parent Buffer (one per nesting level), so
// sequential siblings in a deep profile hierarchy encode without per-message
// allocations.
func (e *Buffer) Message(field uint32, fn func(*Buffer)) {
	if e.free == nil {
		e.free = new([][]byte)
	}
	nested := Buffer{b: e.scratch(), free: e.free}
	fn(&nested)
	e.Raw(field, nested.b)
	e.releaseScratch(nested.b)
}

func (e *Buffer) scratch() []byte {
	if n := len(*e.free); n > 0 {
		s := (*e.free)[n-1]
		*e.free = (*e.free)[:n-1]
		return s[:0]
	}
	return make([]byte, 0, 256)
}

func (e *Buffer) releaseScratch(s []byte) {
	if cap(s) <= 1<<20 {
		*e.free = append(*e.free, s)
	}
}

// Packed64 encodes a packed repeated uint64 field. It encodes in place
// through the BeginMessage/EndMessage placeholder mechanics.
//
//ips:hotpath
func (e *Buffer) Packed64(field uint32, vs []uint64) {
	payloadStart := e.BeginMessage(field)
	for _, v := range vs {
		e.uvarint(v)
	}
	e.EndMessage(payloadStart)
}

// PackedI64 encodes a packed repeated int64 field with zigzag encoding,
// in place via the same placeholder mechanics as Packed64.
//
//ips:hotpath
func (e *Buffer) PackedI64(field uint32, vs []int64) {
	payloadStart := e.BeginMessage(field)
	for _, v := range vs {
		e.uvarint(zigzag(v))
	}
	e.EndMessage(payloadStart)
}

//ips:hotpath
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

//ips:hotpath
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Reader decodes an encoded message field by field. The zero value is
// an empty Reader; Reset points an existing value at new input, so hot
// decoders keep Reader values on the stack or in pooled scratch instead
// of allocating through NewReader.
type Reader struct {
	b   []byte
	pos int
}

// NewReader creates a Reader over b. The Reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Reset points the Reader at b and rewinds it, retaining no state.
//
//ips:hotpath
func (r *Reader) Reset(b []byte) {
	r.b = b
	r.pos = 0
}

// Done reports whether the entire input has been consumed.
//
//ips:hotpath
func (r *Reader) Done() bool { return r.pos >= len(r.b) }

// Next reads the next field tag, returning the field number and wire type.
//
//ips:hotpath
func (r *Reader) Next() (field uint32, wt WireType, err error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, 0, err
	}
	wt = WireType(v & 0x7)
	if wt > Bytes {
		//ipslint:ignore hotpathalloc malformed-input error formatting is off the steady-state path
		return 0, 0, fmt.Errorf("%w: %d", ErrBadWire, wt)
	}
	f := v >> 3
	if f > math.MaxUint32 {
		//ipslint:ignore hotpathalloc malformed-input error formatting is off the steady-state path
		return 0, 0, fmt.Errorf("codec: field number %d too large", f)
	}
	return uint32(f), wt, nil
}

//ips:hotpath
func (r *Reader) uvarint() (uint64, error) {
	// One byte: every tag, and most lengths and counts. Longer varints
	// take uvarintLong.
	if b := r.b[r.pos:]; len(b) > 0 && b[0] < 0x80 {
		r.pos++
		return uint64(b[0]), nil
	}
	return r.uvarintLong()
}

//ips:hotpath
func (r *Reader) uvarintLong() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n == 0 {
		return 0, ErrTruncated
	}
	if n < 0 {
		return 0, ErrOverflow
	}
	r.pos += n
	return v, nil
}

// Uint64 reads a varint payload.
//
//ips:hotpath
func (r *Reader) Uint64() (uint64, error) { return r.uvarint() }

// Int64 reads a zigzag varint payload.
//
//ips:hotpath
func (r *Reader) Int64() (int64, error) {
	u, err := r.uvarint()
	return unzigzag(u), err
}

// Uint32 reads a varint payload, failing if it exceeds 32 bits.
//
//ips:hotpath
func (r *Reader) Uint32() (uint32, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if u > math.MaxUint32 {
		//ipslint:ignore hotpathalloc malformed-input error formatting is off the steady-state path
		return 0, fmt.Errorf("codec: value %d overflows uint32", u)
	}
	return uint32(u), nil
}

// Bool reads a boolean payload.
//
//ips:hotpath
func (r *Reader) Bool() (bool, error) {
	u, err := r.uvarint()
	return u != 0, err
}

// Float64 reads a fixed64 payload as a float.
//
//ips:hotpath
func (r *Reader) Float64() (float64, error) {
	if r.pos+8 > len(r.b) {
		return 0, ErrTruncated
	}
	u := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return math.Float64frombits(u), nil
}

// Bytes reads a length-delimited payload. The returned slice aliases the
// Reader's input.
//
//ips:hotpath
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.pos) {
		return nil, ErrTruncated
	}
	out := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

// String reads a length-delimited payload as a string (copied).
func (r *Reader) String() (string, error) {
	b, err := r.Bytes()
	return string(b), err
}

// Sub reads a nested message payload into a caller-owned Reader value,
// which decoders keep on the stack so that a nested message costs no
// allocation.
//
//ips:hotpath
func (r *Reader) Sub(sub *Reader) error {
	b, err := r.Bytes()
	if err != nil {
		return err
	}
	sub.Reset(b)
	return nil
}

// PackedLen returns the number of values in a well-formed packed
// payload: the number of bytes that end a varint, the ones below 0x80.
//
//ips:hotpath
func PackedLen(b []byte) int {
	n := 0
	for _, c := range b {
		if c < 0x80 {
			n++
		}
	}
	return n
}

// Packed64 reads a packed repeated uint64 payload into one slice sized
// by PackedLen, nil when the payload is empty.
func (r *Reader) Packed64() ([]uint64, error) {
	b, err := r.Bytes()
	if err != nil || len(b) == 0 {
		return nil, err
	}
	var sub Reader
	sub.Reset(b)
	out := make([]uint64, 0, PackedLen(b))
	for !sub.Done() {
		v, err := sub.uvarint()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// PackedI64 reads a packed repeated zigzag int64 payload into one slice
// sized by PackedLen.
func (r *Reader) PackedI64() ([]int64, error) {
	b, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	var sub Reader
	sub.Reset(b)
	out := make([]int64, 0, PackedLen(b))
	for !sub.Done() {
		u, err := sub.uvarint()
		if err != nil {
			return nil, err
		}
		out = append(out, unzigzag(u))
	}
	return out, nil
}

// Packed64Into reads a packed repeated uint64 payload by appending
// into dst's storage (dst[:0]); allocation-free when dst has capacity.
//
//ips:hotpath
func (r *Reader) Packed64Into(dst []uint64) ([]uint64, error) {
	b, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	var sub Reader
	sub.Reset(b)
	out := dst[:0]
	for !sub.Done() {
		u, err := sub.uvarint()
		if err != nil {
			return nil, err
		}
		out = append(out, u)
	}
	return out, nil
}

// PackedI64Into reads a packed repeated zigzag int64 payload by
// appending into dst's storage (dst[:0]); when dst has enough capacity
// the read is allocation-free, which is how the hot response decoder
// reuses one arena across requests.
//
//ips:hotpath
func (r *Reader) PackedI64Into(dst []int64) ([]int64, error) {
	b, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	var sub Reader
	sub.Reset(b)
	out := dst[:0]
	for !sub.Done() {
		u, err := sub.uvarint()
		if err != nil {
			return nil, err
		}
		out = append(out, unzigzag(u))
	}
	return out, nil
}

// Skip discards the payload of a field with the given wire type; decoders
// use it for forward compatibility with unknown field numbers.
//
//ips:hotpath
func (r *Reader) Skip(wt WireType) error {
	switch wt {
	case Varint:
		_, err := r.uvarint()
		return err
	case Fixed64:
		if r.pos+8 > len(r.b) {
			return ErrTruncated
		}
		r.pos += 8
		return nil
	case Bytes:
		_, err := r.Bytes()
		return err
	default:
		return ErrBadWire
	}
}
