package transport

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/dcdb/wintermute/internal/reclog"
	"github.com/dcdb/wintermute/internal/sensor"
)

// The hand-written decoders of the wire protocol and the disk spool
// (docs/FORMATS.md §1, §4) must be total over arbitrary bytes: never
// panic, produce nothing larger than their input, and whatever they
// accept must survive a re-encode.
//
// Seeds: the f.Add calls below (real encoder output) and the named
// crashers under testdata/fuzz/. `make fuzz-smoke` runs each target for
// a few seconds; plain `go test` replays the seeds.

var fuzzMessage = Message{
	Topic: "/r01/c01/s01/power",
	Readings: []sensor.Reading{
		{Value: 240.5, Time: 1_000_000_000}, {Value: math.NaN(), Time: -1}, {Value: math.Inf(-1), Time: math.MaxInt64},
	},
	Epoch: 0x1122334455667788,
	Seq:   300,
}

func sameMessage(a, b Message) bool {
	if a.Topic != b.Topic || a.Epoch != b.Epoch || a.Seq != b.Seq || len(a.Readings) != len(b.Readings) {
		return false
	}
	for i := range a.Readings {
		if a.Readings[i].Time != b.Readings[i].Time ||
			math.Float64bits(a.Readings[i].Value) != math.Float64bits(b.Readings[i].Value) {
			return false
		}
	}
	return true
}

// FuzzDecodePublish reads data as each payload the protocol carries: a
// v1 PUBLISH, a v2 PUBLISH (delivery prefix + v1 body) and a PubAck.
func FuzzDecodePublish(f *testing.F) {
	f.Add(EncodePublish(fuzzMessage))
	f.Add(EncodePublishV2(fuzzMessage))
	f.Add(encodePubAck(nil, fuzzMessage.Epoch, fuzzMessage.Seq))
	f.Add(EncodePublishV2(Message{Topic: fuzzMessage.Topic, Epoch: 1, Seq: 1}))         // an empty batch
	f.Add([]byte{2, '/', 'a', 1, 0x40, 0x45, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7}) // FORMATS.md §1 golden
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodePublish(data); err == nil {
			if len(m.Topic)+16*len(m.Readings) > len(data) {
				t.Fatalf("v1: %d-byte topic and %d readings from %d bytes", len(m.Topic), len(m.Readings), len(data))
			}
			m2, err := DecodePublish(EncodePublish(m))
			if err != nil || !sameMessage(m, m2) {
				t.Fatalf("v1: message changed across re-encode (%v)", err)
			}
			// The broker's allocation-free variant must agree.
			m3, err := decodePublishInto(data, make([]sensor.Reading, 0, 4), map[string]*TopicRef{})
			if err != nil || !sameMessage(m, m3) {
				t.Fatalf("v1: decodePublishInto disagrees with DecodePublish (%v)", err)
			}
		}
		if epoch, seq, off, err := decodePublishV2Prefix(data); err == nil {
			if off > len(data) {
				t.Fatalf("v2 prefix: body offset %d in %d bytes", off, len(data))
			}
			e2, s2, err := decodePubAck(encodePubAck(nil, epoch, seq))
			if err != nil || e2 != epoch || s2 != seq {
				t.Fatalf("puback: (%x, %d) changed across re-encode (%v)", epoch, seq, err)
			}
			if m, err := DecodePublish(data[off:]); err == nil {
				m.Epoch, m.Seq = epoch, seq
				enc := EncodePublishV2(m)
				if !bytes.Equal(enc, append(encodePubAck(nil, epoch, seq), refEncodePublish(m)...)) {
					t.Fatal("v2: not the (epoch, seq) uvarints followed by the reference v1 encoding")
				}
				e3, s3, off3, err := decodePublishV2Prefix(enc)
				if err != nil {
					t.Fatalf("v2: re-encoded prefix: %v", err)
				}
				m2, err := DecodePublish(enc[off3:])
				m2.Epoch, m2.Seq = e3, s3
				if err != nil || !sameMessage(m, m2) {
					t.Fatalf("v2: message changed across re-encode (%v)", err)
				}
			}
		}
	})
}

// FuzzReadFrame reads data as a stream of frames. Accepted frames
// re-encode to exactly the bytes consumed, and reading allocates in
// proportion to the bytes that arrived, never to a length a header only
// declares: at most 4·len(data) + 2·frameReadStep bytes (a body is read
// in steps that double what has arrived, starting at frameReadStep).
func FuzzReadFrame(f *testing.F) {
	var stream bytes.Buffer
	_ = writeFrame(&stream, frameConnect, nil)
	_ = writeFrame(&stream, framePublish, EncodePublish(fuzzMessage))
	_ = writeFrame(&stream, framePubAck, encodePubAck(nil, 1, 2))
	f.Add(stream.Bytes())
	f.Add([]byte{framePublish, 0xff, 0xff, 0xff, 0xff}) // forged oversize length
	f.Add([]byte{framePublish, 0x01, 0x00, 0x00, 0x00}) // 5 bytes declaring maxFrameSize: must not buy 16 MiB
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		var again bytes.Buffer
		again.Grow(len(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			typ, payload, err := readFrameReuse(r, &buf)
			if err != nil {
				break
			}
			if err := writeFrame(&again, typ, payload); err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+2*frameReadStep); got > limit {
			t.Fatalf("reading %d bytes of input allocated %d bytes, limit %d", len(data), got, limit)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("re-encoded frames are not the consumed prefix of the input")
		}
	})
}

// spoolRecord frames payload as one disk spool record with a correct CRC.
func spoolRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// FuzzDiskSpoolScan writes data as a spool file — and again as the
// payload of one CRC-valid record, which a coverage-guided fuzzer would
// never forge — and opens it under a cap smaller than some records, as
// a restarted client does. A file in the old SPL1 format is refused and
// left as it was. Otherwise the scan keeps exactly the located prefix,
// after which no record locates; loading reads every record the scan
// counted, each one delivered or skipped as corrupt, never failed, to
// the end of that prefix; and a second open finds what the first one
// left. Opening allocates the scan's 64 KiB read buffer and bookkeeping,
// never a length a record header only declares.
func FuzzDiskSpoolScan(f *testing.F) {
	two := spoolRecord(nil, EncodePublishV2(fuzzMessage))
	f.Add(spoolRecord(two, EncodePublishV2(Message{Topic: "/t", Epoch: 1, Seq: 2})))
	f.Add(append(two[:len(two):len(two)], two[:7]...)) // torn tail
	// An 8-byte header declaring maxFrameSize and nothing after it: must
	// not buy 16 MiB.
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, maxFrameSize), 0))
	three := spoolRecord(two, EncodePublishV2(Message{Topic: "/t", Epoch: 1, Seq: 3}))
	damaged := append([]byte(nil), three...)
	damaged[len(two)+reclog.HeaderSize+1] ^= 0x40 // the middle record's CRC fails
	f.Add(damaged)
	f.Add(append(append(two[:len(two):len(two)], make([]byte, 16)...), two...)) // a zero hole ends the log
	f.Add(append([]byte(oldSpoolPrefix), two...))
	path := filepath.Join(f.TempDir(), "pusher.spool") // one file per worker process, rewritten per input
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, spoolRecord(nil, data)} {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := openDiskSpool(path, 64)
			runtime.ReadMemStats(&after)
			kept, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if bytes.HasPrefix(file, []byte(oldSpoolPrefix)) {
				if err == nil || !bytes.Equal(kept, file) {
					t.Fatalf("open of an SPL1 file: err %v, %d of its %d bytes kept; want refused, untouched", err, len(kept), len(file))
				}
				continue
			}
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(128<<10); got > limit {
				t.Fatalf("scanning a %d-byte spool allocated %d bytes, limit %d", len(file), got, limit)
			}
			pending, size := d.pending, d.size
			if size > int64(len(file)) || !bytes.Equal(kept, file[:size]) {
				t.Fatalf("scan kept %d bytes that are not the input's %d-byte located prefix", len(kept), size)
			}
			if _, ok := reclog.Locate(file[size:], size, int64(len(file))); ok {
				t.Fatalf("scan stopped at offset %d, where a record locates", size)
			}
			var frame []byte
			for loaded := 0; loaded < pending; loaded++ {
				var lost int
				if frame, _, _, lost = d.load(frame); lost > 1 || d.pending != pending-loaded-1 {
					t.Fatalf("record %d of %d after a clean scan: %d lost, %d left pending", loaded+1, pending, lost, d.pending)
				}
			}
			if d.pending != 0 || d.readOff != size {
				t.Fatalf("loading %d records left %d pending, read to %d of %d bytes", pending, d.pending, d.readOff, size)
			}
			if err := d.close(); err != nil {
				t.Fatal(err)
			}
			d2, err := openDiskSpool(path, 64)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if d2.pending != pending || d2.size != size {
				t.Fatalf("reopen found %d records in %d bytes, first open %d in %d", d2.pending, d2.size, pending, size)
			}
			d2.close()
		}
	})
}
