package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"github.com/dcdb/wintermute/internal/sensor"
)

// The chunk codec as it stood before the 64-bit accumulator kernel: a
// bit- and byte-at-a-time writer and reader (types renamed ref*), kept
// as the reference the differential property test in compress_test.go
// holds the production kernel to, and extended by the decimal codec:
// refCodec picks the scale by trying every scale on every value, and
// the decimal samples go through the same bit-at-a-time writer and
// reader. Not built into the binary.

// refBitWriter appends bits MSB-first to a byte slice.
type refBitWriter struct {
	b    []byte
	free uint8 // unused low bits in the last byte
}

func (w *refBitWriter) writeBit(bit uint64) {
	if w.free == 0 {
		w.b = append(w.b, 0)
		w.free = 8
	}
	w.free--
	if bit != 0 {
		w.b[len(w.b)-1] |= 1 << w.free
	}
}

// writeBits appends the n low bits of v, most significant first.
func (w *refBitWriter) writeBits(v uint64, n uint8) {
	for n > 0 {
		if w.free == 0 {
			w.b = append(w.b, 0)
			w.free = 8
		}
		take := w.free
		if n < take {
			take = n
		}
		n -= take
		w.free -= take
		w.b[len(w.b)-1] |= byte(v>>n&(1<<take-1)) << w.free
	}
}

// writeVarint appends a zigzag varint byte-by-byte into the bit stream.
func (w *refBitWriter) writeVarint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], zigzag(v))
	for _, b := range tmp[:n] {
		w.writeBits(uint64(b), 8)
	}
}

// refBitReader consumes bits MSB-first from a byte slice.
type refBitReader struct {
	b    []byte
	off  int   // next byte
	used uint8 // consumed high bits of b[off]
}

func (r *refBitReader) readBit() (uint64, error) {
	if r.off >= len(r.b) {
		return 0, errShortChunk
	}
	bit := uint64(r.b[r.off]>>(7-r.used)) & 1
	r.used++
	if r.used == 8 {
		r.used = 0
		r.off++
	}
	return bit, nil
}

func (r *refBitReader) readBits(n uint8) (uint64, error) {
	var v uint64
	for n > 0 {
		if r.off >= len(r.b) {
			return 0, errShortChunk
		}
		avail := 8 - r.used
		take := avail
		if n < take {
			take = n
		}
		v = v<<take | uint64(r.b[r.off]>>(avail-take))&(1<<take-1)
		r.used += take
		n -= take
		if r.used == 8 {
			r.used = 0
			r.off++
		}
	}
	return v, nil
}

func (r *refBitReader) readVarint() (int64, error) {
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

// refFits reports whether some integer k, |k| < 2^53, has k/10^e equal
// to v bit for bit, trying every integer within two of v·10^e, and
// returns the first that does of round-half-even(v·10^e), then −1, +1,
// −2, +2 (docs/FORMATS.md §3.1).
func refFits(v float64, e int) (int64, bool) {
	p := math.Pow(10, float64(e))
	x := math.RoundToEven(v * p)
	if math.IsNaN(x) || math.Abs(x) > 1<<54 {
		return 0, false
	}
	for _, d := range []int64{0, -1, 1, -2, 2} {
		k := int64(x) + d
		if k > -1<<53 && k < 1<<53 && math.Float64bits(float64(k)/p) == math.Float64bits(v) {
			return k, true
		}
	}
	return 0, false
}

// refCodec is the codec a chunk of rs takes: decimal at the smallest
// scale every value fits, else XOR.
func refCodec(rs []sensor.Reading) byte {
	for e := 0; e <= maxScale; e++ {
		all := true
		for _, r := range rs {
			if _, ok := refFits(r.Value, e); !ok {
				all = false
				break
			}
		}
		if all {
			return codecDecimal + byte(e)
		}
	}
	return codecXOR
}

// refEncode encodes rs as one chunk.
func refEncode(rs []sensor.Reading) []byte {
	a := newRefAppender(refCodec(rs))
	for _, r := range rs {
		a.Append(r)
	}
	return a.Bytes()
}

// refWriteLadder appends v on ladder: a 0 bit for zero, else the
// first bucket whose payload holds it.
func refWriteLadder(w *refBitWriter, v int64, ladder []bucket) {
	if v == 0 {
		w.writeBit(0)
		return
	}
	for _, bk := range ladder {
		if bk.valBits == 64 || fitsSigned(v, bk.valBits) {
			w.writeBits(bk.ctrl, bk.ctrlBits)
			w.writeBits(uint64(v), bk.valBits)
			return
		}
	}
}

// refAppender encodes one series chunk sample by sample, in the codec
// it was made for. Samples must be appended in non-decreasing time
// order (segment writers flush sorted head blocks, so this holds by
// construction), and fit the codec's scale.
type refAppender struct {
	w        refBitWriter
	codec    byte
	n        int
	t        int64
	tDelta   int64
	v        uint64
	k        int64
	leading  uint8
	trailing uint8
}

// newRefAppender returns an empty chunk appender for codec.
func newRefAppender(codec byte) *refAppender {
	return &refAppender{codec: codec, leading: invalidWindow}
}

// Count returns the number of samples appended so far.
func (a *refAppender) Count() int { return a.n }

// Append encodes one reading.
func (a *refAppender) Append(r sensor.Reading) {
	switch a.n {
	case 0:
		a.w.writeBits(uint64(r.Time), 64)
	case 1:
		a.tDelta = r.Time - a.t
		a.w.writeVarint(a.tDelta)
	default:
		delta := r.Time - a.t
		refWriteLadder(&a.w, delta-a.tDelta, dodBuckets)
		a.tDelta = delta
	}
	a.t = r.Time
	if a.codec != codecXOR {
		k, ok := refFits(r.Value, int(a.codec-codecDecimal))
		if !ok {
			panic(fmt.Sprintf("refAppender: %v does not fit codec %d", r.Value, a.codec))
		}
		if a.n == 0 {
			a.w.writeVarint(k)
		} else {
			refWriteLadder(&a.w, k-a.k, kBuckets)
		}
		a.k = k
	} else if a.n == 0 {
		a.w.writeBits(math.Float64bits(r.Value), 64)
		a.v = math.Float64bits(r.Value)
	} else {
		a.writeValue(math.Float64bits(r.Value))
	}
	a.n++
}

func (a *refAppender) writeValue(v uint64) {
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

// Bytes returns the finished chunk: a uvarint sample count and the
// codec byte, followed by the bit stream. The appender may keep
// receiving samples afterwards; Bytes snapshots the current state.
func (a *refAppender) Bytes() []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(a.n))
	out := make([]byte, 0, n+1+len(a.w.b))
	out = append(out, hdr[:n]...)
	out = append(out, a.codec)
	return append(out, a.w.b...)
}

// refIter decodes a chunk produced by refAppender.
type refIter struct {
	r        refBitReader
	codec    byte
	n        int
	read     int
	t        int64
	tDelta   int64
	v        uint64
	k        int64
	leading  uint8
	trailing uint8
	err      error
}

// newRefIter parses the chunk header and returns a sample iterator.
func newRefIter(chunk []byte) (*refIter, error) {
	count, n := binary.Uvarint(chunk)
	if n <= 0 || n == len(chunk) || chunk[n] > codecDecimal+maxScale {
		return nil, fmt.Errorf("tsdb: bad chunk header")
	}
	codec := chunk[n]
	n++
	// Every sample takes at least one bit: a count past that is forged,
	// and converted to int it could wrap negative and read as empty.
	if count > 8*uint64(len(chunk)-n) {
		return nil, fmt.Errorf("tsdb: bad chunk header")
	}
	return &refIter{r: refBitReader{b: chunk[n:]}, codec: codec, n: int(count), leading: invalidWindow}, nil
}

// Count returns the total number of samples in the chunk.
func (it *refIter) Count() int { return it.n }

// Next advances to the next sample, returning false at the end of the
// chunk or on a decoding error (see Err).
func (it *refIter) Next() bool {
	if it.err != nil || it.read >= it.n {
		return false
	}
	var err error
	switch it.read {
	case 0:
		var tv uint64
		if tv, err = it.r.readBits(64); err == nil {
			it.t = int64(tv)
		}
	case 1:
		if it.tDelta, err = it.r.readVarint(); err == nil {
			it.t += it.tDelta
		}
	default:
		var dod int64
		if dod, err = refReadLadder(&it.r, dodBuckets); err == nil {
			it.tDelta += dod
			it.t += it.tDelta
		}
	}
	if err == nil {
		switch {
		case it.codec != codecXOR:
			var d int64
			if it.read == 0 {
				d, err = it.r.readVarint()
			} else {
				d, err = refReadLadder(&it.r, kBuckets)
			}
			it.k += d
			it.v = math.Float64bits(float64(it.k) / math.Pow(10, float64(it.codec-codecDecimal)))
		case it.read == 0:
			it.v, err = it.r.readBits(64)
		default:
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

// refReadLadder consumes one value refWriteLadder appended on ladder.
func refReadLadder(r *refBitReader, ladder []bucket) (int64, error) {
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
	v := int64(raw)
	if width < 64 && raw&(1<<(width-1)) != 0 {
		v = int64(raw) - int64(1)<<width // sign-extend
	}
	return v, nil
}

func (it *refIter) readValue() error {
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
func (it *refIter) At() sensor.Reading {
	return sensor.Reading{Time: it.t, Value: math.Float64frombits(it.v)}
}

// Err reports a decoding failure, if any.
func (it *refIter) Err() error { return it.err }
