// Package tsdb implements the persistent Storage Backend: an embedded
// time-series engine standing in for the Cassandra deployment of the
// production DCDB stack (paper §IV-A).
//
// Readings enter through a shared write-ahead log and an in-memory head
// block per series; a background janitor periodically flushes heads into
// immutable, time-partitioned segment files and enforces time-based
// retention by dropping expired segments. A segment holds one compressed
// chunk per series: delta-of-delta timestamps, and values either as the
// deltas of integers at a decimal scale — a monitoring value such as
// 231.7 W is 2317 tenths — or, for a chunk whose values have no such
// scale, as Gorilla XOR of their float64 bits. Opening a database
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

// The timestamp encoding follows Facebook's Gorilla paper (Pelkonen et
// al., VLDB 2015), adapted for nanosecond timestamps: the first sample is
// stored raw, the second stores a zigzag-varint time delta, and every
// further timestamp stores only the delta-of-delta on a ladder of four
// variable-width buckets (regularly sampled sensors collapse to a single
// zero bit per sample). The encoder picks each chunk's value codec from
// its data: the decimal codec when every value is k/10^e for integers k
// and one scale e, storing the first k and then the deltas of k on a
// second ladder; otherwise Gorilla XOR against the previous value,
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

// bucket is one rung of a ladder: a control prefix and the width of the
// signed two's-complement payload that follows it.
type bucket struct {
	ctrl     uint64
	ctrlBits uint8
	valBits  uint8
}

// A ladder codes a signed integer as a single 0 bit when it is zero,
// else as the first bucket whose payload holds it. dodBuckets codes a
// timestamp's delta-of-delta; kBuckets codes the step between two
// decimal integers, its first rung a step of up to ±7 in 6 bits.
var (
	dodBuckets = []bucket{{0b10, 2, 14}, {0b110, 3, 24}, {0b1110, 4, 34}, {0b1111, 4, 64}}
	kBuckets   = []bucket{{0b10, 2, 4}, {0b110, 3, 12}, {0b1110, 4, 24}, {0b1111, 4, 64}}
)

// fitsSigned reports whether v is representable in n two's-complement bits.
func fitsSigned(v int64, n uint8) bool {
	lim := int64(1) << (n - 1)
	return v >= -lim && v < lim
}

// writeLadder appends v on ladder. Hot loops write a zero's single bit
// themselves: this call does not inline.
func (w *bitWriter) writeLadder(v int64, ladder []bucket) {
	if v == 0 {
		w.writeBit(0)
		return
	}
	for _, bk := range ladder {
		if bk.valBits == 64 {
			w.writeBits(bk.ctrl, bk.ctrlBits)
			w.writeBits(uint64(v), 64)
			return
		}
		if fitsSigned(v, bk.valBits) {
			w.writeBits(bk.ctrl<<bk.valBits|uint64(v)&(1<<bk.valBits-1), bk.ctrlBits+bk.valBits)
			return
		}
	}
}

// skipZero consumes the next bit if the window holds it and it is 0: a
// ladder's zero, which hot loops take before calling readLadder.
func (r *bitReader) skipZero() bool {
	if r.n == 0 || r.acc>>63 != 0 {
		return false
	}
	r.acc <<= 1
	r.n--
	return true
}

// readLadder consumes one value writeLadder appended on ladder: the
// first rung straight from the window when it is there whole, else bit
// by bit.
func (r *bitReader) readLadder(ladder []bucket) (int64, error) {
	first := ladder[0]
	if w := first.ctrlBits + first.valBits; r.n >= w {
		if top := r.acc >> (64 - w); top>>first.valBits == first.ctrl {
			r.acc <<= w
			r.n -= w
			return signExtend(top&(1<<first.valBits-1), first.valBits), nil
		}
	}
	bit, err := r.readBit()
	if err != nil || bit == 0 {
		return 0, err
	}
	var width uint8
	for i, bk := range ladder {
		if i+1 < len(ladder) {
			if bit, err = r.readBit(); err != nil {
				return 0, err
			}
			if bit == 0 {
				width = bk.valBits
				break
			}
			continue
		}
		width = bk.valBits
	}
	raw, err := r.readBits(width)
	if err != nil {
		return 0, err
	}
	return signExtend(raw, width), nil
}

// signExtend reads the low n bits of raw as a two's-complement integer.
func signExtend(raw uint64, n uint8) int64 {
	if n < 64 && raw&(1<<(n-1)) != 0 {
		return int64(raw) - int64(1)<<n
	}
	return int64(raw)
}

// Chunk value codecs: the byte that follows a chunk's sample count.
const (
	codecXOR     = 0 // Gorilla XOR of the values' float64 bits
	codecDecimal = 1 // codecDecimal+e: deltas of integers at decimal scale e

	// maxScale is the largest decimal scale: 10^22 is the largest power
	// of ten a float64 holds exactly.
	maxScale = 22
	// maxK bounds a decimal integer's magnitude: a float64 holds every
	// integer below it exactly.
	maxK = 1 << 53
)

// pow10 holds 10^e for every decimal scale, each exact.
var pow10 = func() (p [maxScale + 1]float64) {
	p[0] = 1
	for e := 1; e <= maxScale; e++ {
		p[e] = p[e-1] * 10
	}
	return p
}()

// decimalFit returns an integer k, |k| < 2^53, for which k/10^e is v
// bit for bit, if there is one. −0, NaN, ±Inf and subnormals have none.
func decimalFit(v float64, e int) (int64, bool) {
	p := pow10[e]
	x := math.RoundToEven(v * p)
	if !(x > -maxK-4 && x < maxK+4) {
		return 0, false // NaN, ±Inf, or beyond every candidate
	}
	k := int64(x)
	for i, c := range [...]int64{k, k - 1, k + 1, k - 2, k + 2} {
		if c > -maxK && c < maxK && math.Float64bits(float64(c)/p) == math.Float64bits(v) {
			return c, true
		}
		// v·10^e is k off by two roundings: under half a unit while
		// |k| < 2^50, so no other integer fits; up to two units near 2^53.
		if i == 0 && x > -1<<50 && x < 1<<50 {
			break
		}
	}
	return 0, false
}

// invalidWindow marks the leading/trailing window as not yet established.
const invalidWindow = 0xff

// Encoder encodes sealed runs of readings into chunks, one run per
// chunk. Its zero value is ready to use; reused, it keeps its buffers.
type Encoder struct {
	w  bitWriter
	ks []int64 // the decimal integers of the run being encoded
}

// AppendChunk appends the chunk holding rs to dst and returns it with
// the chunk's codec byte. rs must be in non-decreasing time order
// (segment writers flush sorted head blocks, so this holds by
// construction).
func (e *Encoder) AppendChunk(dst []byte, rs []sensor.Reading) ([]byte, byte) {
	codec := e.scan(rs)
	w := &e.w
	w.reset()
	xc := xorCoder{leading: invalidWindow}
	var t, tDelta int64
	for i, r := range rs {
		// Timestamps: the first raw, the second as a zigzag-varint
		// delta, every later one as its delta-of-delta.
		if i > 1 {
			delta := r.Time - t
			if dod := delta - tDelta; dod == 0 {
				w.writeBit(0)
			} else {
				w.writeLadder(dod, dodBuckets)
			}
			tDelta = delta
		} else if i == 1 {
			tDelta = r.Time - t
			w.writeVarint(tDelta)
		} else {
			w.writeBits(uint64(r.Time), 64)
		}
		t = r.Time
		switch {
		case codec == codecXOR:
			xc.write(w, i, math.Float64bits(r.Value))
		case i == 0:
			w.writeVarint(e.ks[0])
		case e.ks[i] == e.ks[i-1]:
			w.writeBit(0)
		default:
			w.writeLadder(e.ks[i]-e.ks[i-1], kBuckets)
		}
	}
	dst = append(binary.AppendUvarint(dst, uint64(len(rs))), codec)
	return w.appendTo(dst), codec
}

// scan picks the codec of the chunk holding rs: decimal at the smallest
// scale every value fits, their integers left in e.ks, else XOR. A value
// that fits at scale e fits at every larger one (k·10 over 10^(e+1) is
// the same quotient), so the scale only rises, and the integers already
// taken rise with it.
func (e *Encoder) scan(rs []sensor.Reading) byte {
	if cap(e.ks) < len(rs) {
		e.ks = make([]int64, len(rs))
	}
	ks, scale, p := e.ks[:len(rs)], 0, 1.0
	for i, r := range rs {
		v := r.Value
		if i > 0 && math.Float64bits(v) == math.Float64bits(rs[i-1].Value) {
			ks[i] = ks[i-1]
			continue
		}
		// The common case, decimalFit's first try inline: below 2^50
		// the rounded product is the only integer that can fit. (The
		// round trip through int64 turns −0 into +0, which then differs.)
		if x := math.RoundToEven(v * p); x > -1<<50 && x < 1<<50 {
			if k := int64(x); math.Float64bits(float64(k)/p) == math.Float64bits(v) {
				ks[i] = k
				continue
			}
		}
		k, ok := decimalFit(v, scale)
		if !ok {
			from := scale
			for !ok && scale < maxScale {
				scale++
				k, ok = decimalFit(v, scale)
			}
			if !ok || !rescale(ks[:i], rs, from, scale) {
				return codecXOR
			}
			p = pow10[scale]
		}
		ks[i] = k
	}
	return codecDecimal + byte(scale)
}

// rescale moves ks, the integers of the values rs[:len(ks)] at scale
// from, to scale to, reporting false when one of them no longer fits.
// Each lands on the integer decimalFit would pick, so the chunk's bytes
// depend on its values alone.
func rescale(ks []int64, rs []sensor.Reading, from, to int) bool {
	m := pow10[to-from]
	for i, k := range ks {
		// Below 2^50 the product is exact and the only integer that
		// fits; nearer 2^53 several may fit, and decimalFit picks one.
		if x := float64(k) * m; x > -1<<50 && x < 1<<50 {
			ks[i] = int64(x)
			continue
		}
		var ok bool
		if ks[i], ok = decimalFit(rs[i].Value, to); !ok {
			return false
		}
	}
	return true
}

// xorCoder writes an XOR chunk's values: the first as its raw bits,
// every later one as its XOR against the one before.
type xorCoder struct {
	v                 uint64
	leading, trailing uint8
}

func (c *xorCoder) write(w *bitWriter, i int, v uint64) {
	xor := v ^ c.v
	c.v = v
	if i == 0 {
		w.writeBits(v, 64)
		return
	}
	if xor == 0 {
		w.writeBit(0)
		return
	}
	w.writeBit(1)
	leading := uint8(bits.LeadingZeros64(xor))
	if leading > 31 {
		leading = 31 // 5-bit field; larger windows gain almost nothing
	}
	trailing := uint8(bits.TrailingZeros64(xor))
	if c.leading != invalidWindow && leading >= c.leading && trailing >= c.trailing {
		// Previous window still covers the significant bits: reuse it.
		w.writeBit(0)
		w.writeBits(xor>>c.trailing, 64-c.leading-c.trailing)
		return
	}
	c.leading, c.trailing = leading, trailing
	sig := 64 - leading - trailing
	w.writeBit(1)
	w.writeBits(uint64(leading), 5)
	w.writeBits(uint64(sig-1), 6) // sig in [1,64] stored as sig-1
	w.writeBits(xor>>trailing, sig)
}

// Iter decodes a chunk produced by Encoder.
type Iter struct {
	r      bitReader
	n      int
	read   int
	t      int64
	tDelta int64
	v      uint64 // the current value's float64 bits

	leading, trailing uint8 // XOR value window

	p float64 // 10^e of a decimal chunk at scale e; 0 for an XOR chunk
	k int64   // the current decimal integer

	err error
}

var errBadChunkHeader = fmt.Errorf("tsdb: bad chunk header")

// NewIter parses the chunk header and returns a sample iterator.
func NewIter(chunk []byte) (*Iter, error) { return newIter(chunk, true) }

// newIter parses a chunk. Without a codec byte — a chunk of a version 2
// segment — the chunk is XOR.
func newIter(chunk []byte, hasCodec bool) (*Iter, error) {
	it := &Iter{leading: invalidWindow}
	count, n := binary.Uvarint(chunk)
	if n > 0 && hasCodec {
		if n == len(chunk) || chunk[n] > codecDecimal+maxScale {
			return nil, errBadChunkHeader
		}
		if c := chunk[n]; c != codecXOR {
			it.p = pow10[c-codecDecimal]
		}
		n++
	}
	// Every sample takes at least one bit: a count past that is forged,
	// and converted to int it could wrap negative and read as empty.
	if n <= 0 || count > 8*uint64(len(chunk)-n) {
		return nil, errBadChunkHeader
	}
	it.r, it.n = bitReader{b: chunk[n:]}, int(count)
	return it, nil
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
		var tv uint64
		tv, err = it.r.readBits(64)
		it.t = int64(tv)
	case 1:
		it.tDelta, err = it.r.readVarint()
		it.t += it.tDelta
	default:
		if !it.r.skipZero() {
			var dod int64
			dod, err = it.r.readLadder(dodBuckets)
			it.tDelta += dod
		}
		it.t += it.tDelta
	}
	if err == nil {
		if it.p == 0 {
			err = it.readXOR()
		} else {
			var d int64
			if it.read == 0 {
				d, err = it.r.readVarint()
			} else if !it.r.skipZero() {
				d, err = it.r.readLadder(kBuckets)
			}
			// An unchanged value keeps its bits; the first starts from
			// k = 0, whose value +0 has bits 0.
			if d != 0 {
				it.k += d
				it.v = math.Float64bits(float64(it.k) / it.p)
			}
		}
	}
	if err != nil {
		it.err = err
		return false
	}
	it.read++
	return true
}

func (it *Iter) readXOR() error {
	if it.read == 0 {
		var err error
		it.v, err = it.r.readBits(64)
		return err
	}
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
