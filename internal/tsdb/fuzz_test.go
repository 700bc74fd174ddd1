package tsdb

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/reclog"
	"github.com/dcdb/wintermute/internal/sensor"
)

// The decoders of the three on-disk encodings (docs/FORMATS.md §2, §3,
// §3.1) must be total over arbitrary bytes: never panic, do work bounded
// by the input's length, and whatever they accept must survive a
// re-encode. CRCs stop a coverage-guided fuzzer cold, so each target
// also frames the fuzzed bytes under a correct CRC — the bytes a decoder
// sees when the file is intact but was not produced by this code.
//
// Seeds: the f.Add calls below (real encoder output) and the named
// crashers under testdata/fuzz/. `make fuzz-smoke` runs each target for
// a few seconds; plain `go test` replays the seeds.

// memFS serves one in-memory file to replayWAL and openSegment.
type memFS struct {
	FS
	data []byte
}

func (m memFS) ReadFile(string) ([]byte, error) { return m.data, nil }
func (m memFS) Open(string) (File, error)       { return memFile{bytes.NewReader(m.data)}, nil }

type memFile struct{ *bytes.Reader }

func (memFile) Write([]byte) (int, error)    { return 0, fs.ErrPermission }
func (memFile) Close() error                 { return nil }
func (memFile) Sync() error                  { return nil }
func (f memFile) Stat() (fs.FileInfo, error) { return memInfo(f.Size()), nil }

type memInfo int64

func (memInfo) Name() string       { return "fuzz" }
func (i memInfo) Size() int64      { return int64(i) }
func (memInfo) Mode() fs.FileMode  { return 0o444 }
func (memInfo) ModTime() time.Time { return time.Time{} }
func (memInfo) IsDir() bool        { return false }
func (memInfo) Sys() any           { return nil }

// fuzzSeries takes the XOR codec (±Inf, NaN, −0); its first three
// readings and fuzzDecimal take the decimal codec, at scales 1 and 3.
var (
	fuzzSeries = []sensor.Reading{
		{Time: 1_000_000_000, Value: 240.5}, {Time: 2_000_000_000, Value: 240.5},
		{Time: 3_000_000_000, Value: 251}, {Time: 4_000_000_100, Value: math.Inf(1)},
		{Time: 4_000_000_100, Value: math.NaN()}, {Time: math.MaxInt64, Value: math.Copysign(0, -1)},
	}
	fuzzDecimal = []sensor.Reading{
		{Time: 1_000_000_000, Value: 21.375}, {Time: 2_000_000_000, Value: 21.5},
		{Time: 3_000_000_000, Value: -3}, {Time: 3_000_000_000, Value: 1e9},
		{Time: 5_000_000_000, Value: 1e9}, {Time: 6_000_000_000, Value: 0},
	}
)

func sameReadings(a, b []sensor.Reading) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Time != b[i].Time || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// FuzzReplayWAL: data is replayed as a WAL file, and again as the
// payload of one CRC-valid record. Whatever replays re-encodes to a WAL
// that replays the same records and skips none.
func FuzzReplayWAL(f *testing.F) {
	three := appendWALRecord(nil, "/r01/c01/s01/power", fuzzSeries)
	three = appendWALRecord(three, "/r01/c01/s01/temp", fuzzSeries[:1])
	three = appendWALRecord(three, "/r01/c01/s01/power", fuzzSeries[3:])
	f.Add(three[:len(three):len(three)])
	f.Add(appendWALRecord(nil, "", nil))
	damaged := append([]byte(nil), three...)
	damaged[len(appendWALRecord(nil, "/r01/c01/s01/power", fuzzSeries))+reclog.HeaderSize+3] ^= 0x40 // the middle record's CRC fails
	f.Add(damaged)
	f.Add(append(append(three[:len(three):len(three)], make([]byte, 64)...), three...)) // a zero hole ends the log
	f.Fuzz(func(t *testing.T, data []byte) {
		framed := binary.LittleEndian.AppendUint32(nil, uint32(len(data)))
		framed = binary.LittleEndian.AppendUint32(framed, crc32.ChecksumIEEE(data))
		framed = append(framed, data...)
		for _, file := range [][]byte{data, framed} {
			type rec struct {
				topic sensor.Topic
				rs    []sensor.Reading
			}
			var recs []rec
			var again []byte
			total := 0
			_, _, err := replayWAL(memFS{data: file}, "", func(topic sensor.Topic, rs []sensor.Reading) {
				// rs is replay's decode buffer, reused for the next record.
				recs = append(recs, rec{topic, append([]sensor.Reading(nil), rs...)})
				again = appendWALRecord(again, topic, rs)
				total += len(topic) + 9*len(rs)
			})
			if err != nil {
				t.Fatalf("replay of an in-memory file failed: %v", err)
			}
			if total > len(file) {
				t.Fatalf("replay produced %d bytes' worth of topics and readings from a %d-byte file", total, len(file))
			}
			i := 0
			skipped, _, _ := replayWAL(memFS{data: again}, "", func(topic sensor.Topic, rs []sensor.Reading) {
				if i >= len(recs) || topic != recs[i].topic || !sameReadings(rs, recs[i].rs) {
					t.Fatalf("record %d changed across re-encode", i)
				}
				i++
			})
			if i != len(recs) || skipped != 0 {
				t.Fatalf("re-encoded WAL replays %d records and skips %d, original %d", i, skipped, len(recs))
			}
		}
	})
}

// FuzzChunkIter: data is decoded as one chunk.
func FuzzChunkIter(f *testing.F) {
	f.Add(encodeChunk(fuzzSeries))
	f.Add(encodeChunk(fuzzSeries[:3]))
	f.Add(encodeChunk(fuzzDecimal))
	f.Add(encodeChunk(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		it, err := NewIter(data)
		if err != nil {
			return
		}
		if it.Count() < 0 || it.Count() > 8*len(data) {
			t.Fatalf("chunk of %d bytes claims %d samples", len(data), it.Count())
		}
		var got []sensor.Reading
		for it.Next() {
			got = append(got, it.At())
		}
		if len(got) > it.Count() {
			t.Fatalf("decoded %d samples from a chunk claiming %d", len(got), it.Count())
		}
		if it.Err() != nil {
			return
		}
		// A chunk that decoded whole re-encodes to the same samples
		// (the writer requires non-decreasing timestamps; a forged chunk
		// need not honour that, and such a chunk is not re-encoded).
		for i := 1; i < len(got); i++ {
			if got[i].Time < got[i-1].Time {
				return
			}
		}
		it2, err := NewIter(encodeChunk(got))
		if err != nil {
			t.Fatalf("re-encoded chunk: %v", err)
		}
		var got2 []sensor.Reading
		for it2.Next() {
			got2 = append(got2, it2.At())
		}
		if it2.Err() != nil || !sameReadings(got, got2) {
			t.Fatalf("chunk changed across re-encode (%v): %d samples, then %d", it2.Err(), len(got), len(got2))
		}
	})
}

// fuzzSegmentFile assembles header | chunks | index | footer with a
// correct index CRC.
func fuzzSegmentFile(chunks, index []byte) []byte {
	buf := append([]byte(nil), segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, segVersion)
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	buf = append(buf, chunks...)
	indexOff := len(buf)
	buf = append(buf, index...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(indexOff))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(index))
	return append(buf, segMagic...)
}

// fuzzIndexEntry encodes one index entry (docs/FORMATS.md §3).
func fuzzIndexEntry(dst []byte, topic string, count uint64, minT, maxT int64, off, length uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(topic)))
	dst = append(dst, topic...)
	dst = binary.AppendUvarint(dst, count)
	dst = binary.AppendVarint(dst, minT)
	dst = binary.AppendVarint(dst, maxT)
	dst = binary.AppendUvarint(dst, off)
	dst = binary.AppendUvarint(dst, length)
	return append(dst, make([]byte, 24)...)
}

// FuzzOpenSegment: raw opens chunks as a whole segment file; otherwise
// chunks and index are framed into a CRC-valid file. If Open accepts,
// every read path over every series must neither panic nor return a
// negative count.
func FuzzOpenSegment(f *testing.F) {
	one := binary.LittleEndian.AppendUint32(nil, 1)
	for _, rs := range [][]sensor.Reading{fuzzSeries[:4], fuzzDecimal} {
		chunk := encodeChunk(rs)
		good := fuzzIndexEntry(one, "/n/power", uint64(len(rs)), rs[0].Time, rs[len(rs)-1].Time, segHeader, uint64(len(chunk)))
		f.Add(chunk, good, false)
		f.Add(fuzzSegmentFile(chunk, good), []byte(nil), true)
	}
	// A version 2 file: chunks without a codec byte.
	v2, err := os.ReadFile(filepath.Join("testdata", "segment-v2.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2, []byte(nil), true)
	f.Fuzz(func(t *testing.T, chunks, index []byte, raw bool) {
		file := chunks
		if !raw {
			file = fuzzSegmentFile(chunks, index)
		}
		seg, err := openSegment(memFS{data: file}, "", 1)
		if err != nil {
			return
		}
		defer seg.close()
		budget := 8 * len(file)
		for topic, ss := range seg.series {
			if ss.count <= 0 || ss.count > budget {
				t.Fatalf("series %q: index count %d in a %d-byte file", topic, ss.count, len(file))
			}
			rs, _ := seg.appendRange(topic, math.MinInt64, math.MaxInt64, nil)
			if len(rs) > ss.count {
				t.Fatalf("series %q: %d readings from a chunk indexed at %d", topic, len(rs), ss.count)
			}
			_, _, _ = seg.latest(topic, math.MinInt64)
			for _, floor := range []int64{math.MinInt64, ss.minT, ss.minT + 1, ss.maxT, math.MaxInt64} {
				if n, _ := seg.countFrom(topic, floor); n < 0 || n > ss.count {
					t.Fatalf("series %q: countFrom(%d) = %d of %d", topic, floor, n, ss.count)
				}
			}
		}
		for _, cutoff := range []int64{math.MinInt64, seg.minT, seg.minT + 1, seg.maxT, math.MaxInt64} {
			if n, _ := seg.countBelow(cutoff); n < 0 {
				t.Fatalf("countBelow(%d) = %d", cutoff, n)
			}
		}
	})
}
