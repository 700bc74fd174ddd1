// Package tsdb implements the persistent Storage Backend: an embedded
// time-series engine standing in for the Cassandra deployment of the
// production DCDB stack (paper §IV-A).
//
// Readings enter through a shared write-ahead log and an in-memory head
// block per series; a background janitor periodically flushes heads into
// immutable, time-partitioned segment files compressed with the Gorilla
// scheme (delta-of-delta timestamps, XOR float values) and enforces
// time-based retention by dropping expired segments. Opening a database
// replays the WAL, so a crash — even mid-write — loses nothing that
// reached the log.
//
// File layout under the database directory:
//
//	wal/00000001.wal   append-only CRC-framed reading batches
//	seg/00000001.seg   immutable compressed segments (chunks + index)
package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"github.com/dcdb/wintermute/internal/sensor"
)

// The chunk encoding follows Facebook's Gorilla paper (Pelkonen et al.,
// VLDB 2015), adapted for nanosecond timestamps: the first sample is
// stored raw, the second stores a zigzag-varint time delta, and every
// further timestamp stores only the delta-of-delta in one of four
// variable-width buckets (regularly sampled sensors collapse to a single
// zero bit per sample). Values store the XOR against the previous value,
// reusing the previous leading/trailing-zero window when it still fits.

// bitWriter appends bits MSB-first to a byte slice through a 64-bit
// accumulator: bits collect left-aligned in acc and spill to b eight
// bytes at a time, so a sample costs a few shifts instead of a loop over
// its bytes.
type bitWriter struct {
	b   []byte
	acc uint64 // pending bits, left-aligned; the bits below them are zero
	n   uint8  // pending bit count, always < 64
}

func (w *bitWriter) writeBit(bit uint64) {
	if bit != 0 {
		w.acc |= 1 << (63 - w.n)
	}
	if w.n++; w.n == 64 {
		w.b = binary.BigEndian.AppendUint64(w.b, w.acc)
		w.acc, w.n = 0, 0
	}
}

// writeBits appends the n low bits of v (n <= 64), most significant
// first.
func (w *bitWriter) writeBits(v uint64, n uint8) {
	if n < 64 {
		v &= 1<<n - 1
	}
	free := 64 - w.n
	if n < free {
		w.acc |= v << (free - n)
		w.n += n
		return
	}
	rem := n - free // bits of v that do not fit the accumulator
	w.b = binary.BigEndian.AppendUint64(w.b, w.acc|v>>rem)
	w.acc, w.n = 0, rem
	if rem > 0 {
		w.acc = v << (64 - rem)
	}
}

// writeVarint appends a zigzag varint byte-by-byte into the bit stream.
func (w *bitWriter) writeVarint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], zigzag(v))
	for _, b := range tmp[:n] {
		w.writeBits(uint64(b), 8)
	}
}

// appendTo appends the stream written so far to dst, the last byte
// padded with zero bits. The writer's state is untouched.
func (w *bitWriter) appendTo(dst []byte) []byte {
	dst = append(dst, w.b...)
	for acc, n := w.acc, int(w.n); n > 0; n -= 8 {
		dst = append(dst, byte(acc>>56))
		acc <<= 8
	}
	return dst
}

// reset empties the writer, keeping its buffer.
func (w *bitWriter) reset() { w.b, w.acc, w.n = w.b[:0], 0, 0 }

// bitReader consumes bits MSB-first from a byte slice through a 64-bit
// window, refilled a whole word at a time whenever it runs empty.
type bitReader struct {
	b   []byte
	off int    // next byte of b to load
	acc uint64 // loaded, unread bits, left-aligned; the bits below them are zero
	n   uint8  // count of those bits
}

var errShortChunk = fmt.Errorf("tsdb: truncated chunk")

// refill loads the next (up to) eight bytes into the empty window.
func (r *bitReader) refill() {
	if r.off+8 <= len(r.b) {
		r.acc, r.n = binary.BigEndian.Uint64(r.b[r.off:]), 64
		r.off += 8
		return
	}
	for ; r.off < len(r.b); r.off++ {
		r.acc |= uint64(r.b[r.off]) << (56 - r.n)
		r.n += 8
	}
}

func (r *bitReader) readBit() (uint64, error) {
	if r.n == 0 {
		if r.refill(); r.n == 0 {
			return 0, errShortChunk
		}
	}
	bit := r.acc >> 63
	r.acc <<= 1
	r.n--
	return bit, nil
}

// readBits consumes n <= 64 bits.
func (r *bitReader) readBits(n uint8) (uint64, error) {
	if n > r.n {
		return r.readBitsRefill(n)
	}
	v := r.acc >> (64 - n)
	r.acc <<= n
	r.n -= n
	return v, nil
}

// readBitsRefill is readBits across a window boundary: it drains the
// window, refills it and takes the rest.
func (r *bitReader) readBitsRefill(n uint8) (uint64, error) {
	var v uint64
	need := n - r.n
	if r.n > 0 {
		v = r.acc >> (64 - r.n)
	}
	r.acc, r.n = 0, 0
	if r.refill(); need > r.n {
		return 0, errShortChunk
	}
	v = v<<need | r.acc>>(64-need)
	r.acc <<= need
	r.n -= need
	return v, nil
}

func (r *bitReader) readVarint() (int64, error) {
	var u uint64
	for shift := uint(0); ; shift += 7 {
		if shift >= 64 {
			return 0, fmt.Errorf("tsdb: varint overflow")
		}
		b, err := r.readBits(8)
		if err != nil {
			return 0, err
		}
		u |= (b & 0x7f) << shift
		if b&0x80 == 0 {
			break
		}
	}
	return unzigzag(u), nil
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// dod buckets: control prefix + payload width (signed, two's complement).
var dodBuckets = []struct {
	ctrl     uint64
	ctrlBits uint8
	valBits  uint8
}{
	{0b10, 2, 14},
	{0b110, 3, 24},
	{0b1110, 4, 34},
	{0b1111, 4, 64},
}

// invalidWindow marks the leading/trailing window as not yet established.
const invalidWindow = 0xff

// Appender encodes one series chunk sample by sample. Samples must be
// appended in non-decreasing time order (segment writers flush sorted
// head blocks, so this holds by construction). Reset readies it for the
// next chunk with its buffer kept.
type Appender struct {
	w        bitWriter
	n        int
	t        int64
	tDelta   int64
	v        uint64
	leading  uint8
	trailing uint8
}

// NewAppender returns an empty chunk appender.
func NewAppender() *Appender {
	return &Appender{leading: invalidWindow}
}

// Reset empties the appender for a new chunk, reusing its buffer.
func (a *Appender) Reset() {
	a.w.reset()
	*a = Appender{w: a.w, leading: invalidWindow}
}

// Count returns the number of samples appended so far.
func (a *Appender) Count() int { return a.n }

// Append encodes one reading.
func (a *Appender) Append(r sensor.Reading) {
	switch a.n {
	case 0:
		a.w.writeBits(uint64(r.Time), 64)
		a.w.writeBits(math.Float64bits(r.Value), 64)
	case 1:
		a.tDelta = r.Time - a.t
		a.w.writeVarint(a.tDelta)
		a.writeValue(math.Float64bits(r.Value))
	default:
		delta := r.Time - a.t
		dod := delta - a.tDelta
		a.tDelta = delta
		if dod == 0 {
			a.w.writeBit(0)
		} else {
			for _, bk := range dodBuckets {
				if bk.valBits == 64 || fitsSigned(dod, bk.valBits) {
					a.w.writeBits(bk.ctrl, bk.ctrlBits)
					a.w.writeBits(uint64(dod), bk.valBits)
					break
				}
			}
		}
		a.writeValue(math.Float64bits(r.Value))
	}
	a.t = r.Time
	if a.n == 0 {
		a.v = math.Float64bits(r.Value)
	}
	a.n++
}

// fitsSigned reports whether v is representable in n two's-complement bits.
func fitsSigned(v int64, n uint8) bool {
	lim := int64(1) << (n - 1)
	return v >= -lim && v < lim
}

func (a *Appender) writeValue(v uint64) {
	xor := v ^ a.v
	a.v = v
	if xor == 0 {
		a.w.writeBit(0)
		return
	}
	a.w.writeBit(1)
	leading := uint8(bits.LeadingZeros64(xor))
	if leading > 31 {
		leading = 31 // 5-bit field; larger windows gain almost nothing
	}
	trailing := uint8(bits.TrailingZeros64(xor))
	if a.leading != invalidWindow && leading >= a.leading && trailing >= a.trailing {
		// Previous window still covers the significant bits: reuse it.
		a.w.writeBit(0)
		a.w.writeBits(xor>>a.trailing, 64-a.leading-a.trailing)
		return
	}
	a.leading, a.trailing = leading, trailing
	sig := 64 - leading - trailing
	a.w.writeBit(1)
	a.w.writeBits(uint64(leading), 5)
	a.w.writeBits(uint64(sig-1), 6) // sig in [1,64] stored as sig-1
	a.w.writeBits(xor>>trailing, sig)
}

// Bytes returns the finished chunk: a uvarint sample count followed by
// the bit stream. The appender may keep receiving samples afterwards;
// Bytes snapshots the current state.
func (a *Appender) Bytes() []byte {
	return a.AppendTo(make([]byte, 0, binary.MaxVarintLen64+len(a.w.b)+8))
}

// AppendTo appends the chunk Bytes would return to dst.
func (a *Appender) AppendTo(dst []byte) []byte {
	return a.w.appendTo(binary.AppendUvarint(dst, uint64(a.n)))
}

// Iter decodes a chunk produced by Appender.
type Iter struct {
	r        bitReader
	n        int
	read     int
	t        int64
	tDelta   int64
	v        uint64
	leading  uint8
	trailing uint8
	err      error
}

// NewIter parses the chunk header and returns a sample iterator.
func NewIter(chunk []byte) (*Iter, error) {
	count, n := binary.Uvarint(chunk)
	// Every sample takes at least one bit: a count past that is forged,
	// and converted to int it could wrap negative and read as empty.
	if n <= 0 || count > 8*uint64(len(chunk)-n) {
		return nil, fmt.Errorf("tsdb: bad chunk header")
	}
	return &Iter{r: bitReader{b: chunk[n:]}, n: int(count), leading: invalidWindow}, nil
}

// Count returns the total number of samples in the chunk.
func (it *Iter) Count() int { return it.n }

// Next advances to the next sample, returning false at the end of the
// chunk or on a decoding error (see Err).
func (it *Iter) Next() bool {
	if it.err != nil || it.read >= it.n {
		return false
	}
	var err error
	switch it.read {
	case 0:
		var tv, vv uint64
		if tv, err = it.r.readBits(64); err == nil {
			it.t = int64(tv)
			if vv, err = it.r.readBits(64); err == nil {
				it.v = vv
			}
		}
	case 1:
		if it.tDelta, err = it.r.readVarint(); err == nil {
			it.t += it.tDelta
			err = it.readValue()
		}
	default:
		if err = it.readDoD(); err == nil {
			err = it.readValue()
		}
	}
	if err != nil {
		it.err = err
		return false
	}
	it.read++
	return true
}

func (it *Iter) readDoD() error {
	bit, err := it.r.readBit()
	if err != nil {
		return err
	}
	if bit == 0 {
		it.t += it.tDelta
		return nil
	}
	var width uint8
	for i, bk := range dodBuckets {
		if i+1 < len(dodBuckets) {
			if bit, err = it.r.readBit(); err != nil {
				return err
			}
			if bit == 0 {
				width = bk.valBits
				break
			}
			continue
		}
		width = bk.valBits
	}
	raw, err := it.r.readBits(width)
	if err != nil {
		return err
	}
	dod := int64(raw)
	if width < 64 && raw&(1<<(width-1)) != 0 {
		dod = int64(raw) - int64(1)<<width // sign-extend
	}
	it.tDelta += dod
	it.t += it.tDelta
	return nil
}

func (it *Iter) readValue() error {
	bit, err := it.r.readBit()
	if err != nil {
		return err
	}
	if bit == 0 {
		return nil // identical value
	}
	if bit, err = it.r.readBit(); err != nil {
		return err
	}
	if bit != 0 {
		lead, err := it.r.readBits(5)
		if err != nil {
			return err
		}
		sigm1, err := it.r.readBits(6)
		if err != nil {
			return err
		}
		it.leading = uint8(lead)
		it.trailing = 64 - it.leading - uint8(sigm1) - 1
	} else if it.leading == invalidWindow {
		return fmt.Errorf("tsdb: chunk reuses value window before defining one")
	}
	sig := 64 - it.leading - it.trailing
	xor, err := it.r.readBits(sig)
	if err != nil {
		return err
	}
	it.v ^= xor << it.trailing
	return nil
}

// At returns the current sample.
func (it *Iter) At() sensor.Reading {
	return sensor.Reading{Time: it.t, Value: math.Float64frombits(it.v)}
}

// Err reports a decoding failure, if any.
func (it *Iter) Err() error { return it.err }
