package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"github.com/dcdb/wintermute/internal/sensor"
)

// The chunk codec as it stood before the 64-bit accumulator kernel: a
// bit- and byte-at-a-time writer and reader, kept verbatim (types
// renamed ref*) as the reference the differential property test in
// compress_test.go holds the production kernel to. Not built into the
// binary.

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

// refAppender encodes one series chunk sample by sample. Samples must be
// appended in non-decreasing time order (segment writers flush sorted
// head blocks, so this holds by construction).
type refAppender struct {
	w        refBitWriter
	n        int
	t        int64
	tDelta   int64
	v        uint64
	leading  uint8
	trailing uint8
}

// newRefAppender returns an empty chunk appender.
func newRefAppender() *refAppender {
	return &refAppender{leading: invalidWindow}
}

// Count returns the number of samples appended so far.
func (a *refAppender) Count() int { return a.n }

// Append encodes one reading.
func (a *refAppender) Append(r sensor.Reading) {
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

// Bytes returns the finished chunk: a uvarint sample count followed by
// the bit stream. The appender may keep receiving samples afterwards;
// Bytes snapshots the current state.
func (a *refAppender) Bytes() []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(a.n))
	out := make([]byte, 0, n+len(a.w.b))
	out = append(out, hdr[:n]...)
	return append(out, a.w.b...)
}

// refIter decodes a chunk produced by refAppender.
type refIter struct {
	r        refBitReader
	n        int
	read     int
	t        int64
	tDelta   int64
	v        uint64
	leading  uint8
	trailing uint8
	err      error
}

// newRefIter parses the chunk header and returns a sample iterator.
func newRefIter(chunk []byte) (*refIter, error) {
	count, n := binary.Uvarint(chunk)
	// Every sample takes at least one bit: a count past that is forged,
	// and converted to int it could wrap negative and read as empty.
	if n <= 0 || count > 8*uint64(len(chunk)-n) {
		return nil, fmt.Errorf("tsdb: bad chunk header")
	}
	return &refIter{r: refBitReader{b: chunk[n:]}, n: int(count), leading: invalidWindow}, nil
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

func (it *refIter) readDoD() error {
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
