// Package wire provides the bounds-checked binary primitives shared by the
// snapshot encoders in internal/ic, internal/exec and internal/snapshot.
// Everything is little-endian; integers are LEB128 varints (unsigned) or
// zigzag varints (signed), so the common small operands of an instruction
// stream cost one byte each.
//
// The Reader is the load-bearing half: it is total over arbitrary input.
// Every read is bounds-checked, length prefixes are validated against the
// bytes actually remaining before any allocation, and the first malformed
// read latches a sticky error that turns every subsequent read into a
// zero-value no-op. A decoder built on Reader can therefore run over
// attacker-controlled bytes and never panic or balloon — it finishes its
// field walk mechanically and reports the latched error at the end.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrTruncated reports input that ended inside a value.
var ErrTruncated = errors.New("wire: truncated input")

// ErrMalformed reports a structurally invalid value (overlong varint, or a
// length prefix exceeding the bytes that remain).
var ErrMalformed = errors.New("wire: malformed input")

// Writer accumulates an encoded byte stream. The zero value is ready to
// use; methods never fail.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded stream (aliasing the writer's buffer).
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Grow makes room for n more bytes, so a writer that knows its output size
// appends without copying.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Raw appends raw bytes verbatim.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// I64 appends a signed (zigzag) varint.
func (w *Writer) I64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Count appends a non-negative collection length as an unsigned varint —
// the writer-side pair of Reader.Len. Counts must not go through Int: the
// signed zigzag encoding and Len's unsigned decoding disagree on the wire.
func (w *Writer) Count(n int) { w.U64(uint64(n)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes32 appends a fixed-width little-endian uint32 (used for the header
// fields that must stay the same width across format versions).
func (w *Writer) Bytes32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// Bytes64 appends a fixed-width little-endian uint64.
func (w *Writer) Bytes64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Reader consumes an encoded byte stream with a sticky error: after the
// first malformed read every subsequent read returns the zero value and
// the original error is preserved for Err.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the sticky error, or nil if every read so far succeeded.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes have not been consumed yet.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// fail latches err (first one wins) and returns it. It also parks the
// cursor at end-of-input, so the inlined fast paths — which only test
// bounds, not the error field — miss and fall into the slow helpers that
// honour the sticky error.
func (r *Reader) fail(err error) error {
	if r.err == nil {
		r.err = fmt.Errorf("%w (at offset %d)", err, r.off)
		r.off = len(r.b)
	}
	return r.err
}

// Byte reads one raw byte. The in-bounds, no-error case is shaped to stay
// under the inlining budget — these accessors run once per operand field
// of every decoded instruction.
func (r *Reader) Byte() byte {
	if off := r.off; uint(off) < uint(len(r.b)) {
		r.off = off + 1
		return r.b[off]
	}
	return r.byteSlow()
}

func (r *Reader) byteSlow() byte {
	if r.err == nil {
		r.fail(ErrTruncated)
	}
	return 0
}

// U64 reads an unsigned varint. The single-byte case — the overwhelming
// majority of instruction-stream operands — is inlined; longer encodings
// take the generic path.
func (r *Reader) U64() uint64 {
	if off := r.off; uint(off) < uint(len(r.b)) && r.b[off] < 0x80 {
		r.off = off + 1
		return uint64(r.b[off])
	}
	return r.u64Slow()
}

func (r *Reader) u64Slow() uint64 {
	if r.err != nil {
		return 0
	}
	b := r.b[r.off:]
	// The inline fast path already consumed single-byte encodings, so a
	// well-formed value here has its continuation bit set; two-byte values
	// (the bulk of branch targets and pc fields) are decoded directly.
	if len(b) >= 2 && b[1] < 0x80 {
		r.off += 2
		return uint64(b[0]&0x7f) | uint64(b[1])<<7
	}
	v, n := binary.Uvarint(b)
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.fail(ErrMalformed)
		}
		return 0
	}
	r.off += n
	return v
}

// I64 reads a signed (zigzag) varint, with the same one-byte fast path as
// U64.
func (r *Reader) I64() int64 {
	if off := r.off; uint(off) < uint(len(r.b)) && r.b[off] < 0x80 {
		r.off = off + 1
		b := r.b[off]
		return int64(b>>1) ^ -int64(b&1)
	}
	return r.i64Slow()
}

func (r *Reader) i64Slow() int64 {
	// A signed varint is the zigzag decode of the unsigned one, so the
	// unsigned slow path (with its two-byte shortcut) does the byte work.
	v := r.u64Slow()
	return int64(v>>1) ^ -int64(v&1)
}

// Int reads an int-sized signed varint, rejecting values that do not fit
// the platform int.
func (r *Reader) Int() int {
	v := r.I64()
	if int64(int(v)) != v {
		r.fail(ErrMalformed)
		return 0
	}
	return int(v)
}

// Bool reads a boolean byte (only 0 and 1 are valid).
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.fail(ErrMalformed)
		return false
	}
	return b == 1
}

// Len reads a length prefix and validates it against the bytes remaining,
// so a corrupted length can never drive a giant allocation: every counted
// element must occupy at least minElem bytes of the input (use 1 for
// variable-size elements).
func (r *Reader) Len(minElem int) int {
	v := r.U64()
	if r.err != nil {
		return 0
	}
	if minElem < 1 {
		minElem = 1
	}
	if v > uint64(r.Remaining()/minElem) {
		r.fail(ErrMalformed)
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len(1)
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// Raw reads exactly n raw bytes (aliasing the input buffer).
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// Bytes32 reads a fixed-width little-endian uint32.
func (r *Reader) Bytes32() uint32 {
	b := r.Raw(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Bytes64 reads a fixed-width little-endian uint64.
func (r *Reader) Bytes64() uint64 {
	b := r.Raw(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Expect fails the reader with ErrMalformed unless cond holds. It is the
// decoder-side assertion primitive: semantic validation expressed in the
// same sticky-error discipline as the structural reads.
func (r *Reader) Expect(cond bool) {
	if r.err == nil && !cond {
		r.fail(ErrMalformed)
	}
}
