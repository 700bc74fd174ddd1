package tsdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// Segment files are immutable and time-partitioned: each one holds every
// reading flushed from the heads in one janitor pass, one compressed
// chunk per series, with a CRC-protected index at the tail:
//
//	header:  magic "WTSG" | u32le version | u64le covered WAL seq
//	chunks:  concatenated per-series chunks
//	index:   u32le series count, then per series
//	         uvarint topic len | topic | uvarint count |
//	         varint minT | varint maxT | uvarint offset | uvarint length |
//	         f64le min value | f64le max value | f64le value sum
//	footer:  u64le index offset | u32le index CRC-32 | magic "WTSG"
//
// The covered WAL sequence records the newest WAL file whose contents are
// fully represented by this segment and its predecessors; recovery uses
// it to decide which WAL files still need replaying.
//
// The per-chunk value pre-aggregates (min/max/sum, beside the count) are
// recorded once at flush time. They let an aggregation query answer a
// fully-covered chunk from index metadata in O(1) without touching the
// chunk bytes; only chunks the window boundary or retention watermark
// cuts through are decoded.
//
// Only segVersion is written. Open also reads version 2, whose chunks
// carry no codec byte and are all XOR.

const (
	segMagic   = "WTSG"
	segVersion = 3
	segV2      = 2
	segHeader  = 4 + 4 + 8
	segFooter  = 8 + 4 + 4
)

// segSeries locates one series' chunk inside a segment file, together
// with the chunk's pre-aggregates.
type segSeries struct {
	count      int
	minT, maxT int64
	off        int64
	length     int64

	// Per-chunk value pre-aggregates, recorded at flush time.
	vmin, vmax, vsum float64
}

// segment is one open, immutable segment file.
type segment struct {
	path       string
	seq        uint64
	coveredWAL uint64
	version    uint32
	minT, maxT int64
	size       int64
	series     map[sensor.Topic]segSeries
	f          File

	// prunedCount is the number of readings in this segment already
	// counted as removed by DB.Prune (retention watermark bookkeeping).
	prunedCount int

	// decodes, when set by the owning DB, counts chunk decodes into the
	// DB's telemetry (queries, counts and prune bookkeeping all pay it).
	decodes *telemetry.Counter
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.seg", seq))
}

// segWriteBuf is the segment writer's buffer: the most of a segment a
// flush holds in memory beyond the heads it is draining, whatever the
// segment's size.
const segWriteBuf = 256 << 10

// writeSegment persists data, each topic's run of time-sorted blocks
// (a head's sealed run), as segment file seq, fsyncing file and
// directory around the atomic rename, and returns the opened segment.
// Series chunks are encoded in sorted topic order for determinism. The
// file is streamed: nothing proportional to its size is built in
// memory. A failure at any step leaves no file behind — neither the
// .tmp staging twin nor, past the rename, the live segment — so the
// flush's error path can unseal the same readings in their heads without
// the next flush duplicating them. decimal is how many of its chunks
// took the decimal codec; the rest are XOR.
func writeSegment(fs FS, dir string, seq, coveredWAL uint64, data map[sensor.Topic][][]sensor.Reading) (seg *segment, decimal int, err error) {
	topics := make([]sensor.Topic, 0, len(data))
	for t, run := range data {
		if len(run) > 0 && len(run[0]) > 0 {
			topics = append(topics, t)
		}
	}
	if len(topics) == 0 {
		return nil, 0, nil
	}
	sort.Slice(topics, func(i, j int) bool { return topics[i] < topics[j] })

	path := segPath(dir, seq)
	if err := writeDurably(fs, path, func(f File) (err error) {
		decimal, err = streamSegment(f, coveredWAL, topics, data)
		return err
	}); err != nil {
		return nil, 0, err
	}
	if seg, err = openSegment(fs, path, seq); err != nil {
		fs.Remove(path)
		return nil, 0, err
	}
	return seg, decimal, nil
}

// writeDurably writes the file at path through write, under a .tmp
// name first, fsyncing the file before the atomic rename and its
// directory after it, so an OS crash leaves the old file or the whole
// new one. A failure at any step leaves no file behind: neither the
// .tmp nor, past the rename, the one at path.
func writeDurably(fs FS, path string, write func(File) error) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err == nil {
		if err = write(f); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		fs.Remove(path)
		return err
	}
	return nil
}

// streamSegment writes header, chunks, index and footer to f through one
// fixed-size buffer and one reused chunk encoder, stopping at the first
// failed write. Each topic's run must hold at least one block and no
// empty block. It returns how many chunks took the decimal codec.
func streamSegment(f File, coveredWAL uint64, topics []sensor.Topic, data map[sensor.Topic][][]sensor.Reading) (decimal int, err error) {
	bw := bufio.NewWriterSize(f, segWriteBuf)
	hdr := append(make([]byte, 0, segHeader), segMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, segVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, coveredWAL)
	if _, err := bw.Write(hdr); err != nil {
		return 0, err
	}
	off := uint64(segHeader)

	index := make([]byte, 0, len(topics)*56)
	index = binary.LittleEndian.AppendUint32(index, uint32(len(topics)))
	var enc Encoder
	var chunk []byte
	for _, topic := range topics {
		run := data[topic]
		var agg store.AggResult
		for _, b := range run {
			agg.ObserveAll(b)
		}
		var codec byte
		if chunk, codec = enc.AppendChunk(chunk[:0], run...); codec != codecXOR {
			decimal++
		}
		if _, err := bw.Write(chunk); err != nil {
			return 0, err
		}
		tail := run[len(run)-1]
		index = binary.AppendUvarint(index, uint64(len(topic)))
		index = append(index, topic...)
		index = binary.AppendUvarint(index, uint64(agg.Count))
		index = binary.AppendVarint(index, run[0][0].Time)
		index = binary.AppendVarint(index, tail[len(tail)-1].Time)
		index = binary.AppendUvarint(index, off)
		index = binary.AppendUvarint(index, uint64(len(chunk)))
		index = binary.LittleEndian.AppendUint64(index, math.Float64bits(agg.Min))
		index = binary.LittleEndian.AppendUint64(index, math.Float64bits(agg.Max))
		index = binary.LittleEndian.AppendUint64(index, math.Float64bits(agg.Sum))
		off += uint64(len(chunk))
	}
	if _, err := bw.Write(index); err != nil {
		return 0, err
	}
	foot := binary.LittleEndian.AppendUint64(make([]byte, 0, segFooter), off)
	foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(index))
	foot = append(foot, segMagic...)
	if _, err := bw.Write(foot); err != nil {
		return 0, err
	}
	return decimal, bw.Flush()
}

// listSegments opens every segment file in dir, sorted by sequence.
// Leftover .tmp files from an interrupted flush are removed.
func listSegments(fs FS, dir string) ([]*segment, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []*segment
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			fs.Remove(filepath.Join(dir, name))
			continue
		}
		if e.IsDir() || !strings.HasSuffix(name, ".seg") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64)
		if err != nil {
			continue
		}
		seg, err := openSegment(fs, filepath.Join(dir, name), seq)
		if err != nil {
			for _, s := range segs {
				s.close()
			}
			return nil, fmt.Errorf("tsdb: opening segment %s: %w", name, err)
		}
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// openSegment memory-loads a segment's index and keeps the file open for
// on-demand chunk reads.
func openSegment(fs FS, path string, seq uint64) (*segment, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size < segHeader+segFooter {
		f.Close()
		return nil, fmt.Errorf("file too small (%d bytes)", size)
	}
	hdr := make([]byte, segHeader)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	if string(hdr[:4]) != segMagic {
		f.Close()
		return nil, fmt.Errorf("bad magic")
	}
	version := binary.LittleEndian.Uint32(hdr[4:])
	if version != segVersion && version != segV2 {
		f.Close()
		return nil, fmt.Errorf("unsupported version %d", version)
	}
	coveredWAL := binary.LittleEndian.Uint64(hdr[8:])

	foot := make([]byte, segFooter)
	if _, err := f.ReadAt(foot, size-segFooter); err != nil {
		f.Close()
		return nil, err
	}
	if string(foot[12:]) != segMagic {
		f.Close()
		return nil, fmt.Errorf("bad footer magic")
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot))
	indexCRC := binary.LittleEndian.Uint32(foot[8:])
	if indexOff < segHeader || indexOff > size-segFooter {
		f.Close()
		return nil, fmt.Errorf("index offset out of bounds")
	}
	index := make([]byte, size-segFooter-indexOff)
	if _, err := f.ReadAt(index, indexOff); err != nil {
		f.Close()
		return nil, err
	}
	if crc32.ChecksumIEEE(index) != indexCRC {
		f.Close()
		return nil, fmt.Errorf("index checksum mismatch")
	}

	seg := &segment{
		path:       path,
		seq:        seq,
		coveredWAL: coveredWAL,
		version:    version,
		size:       size,
		series:     make(map[sensor.Topic]segSeries),
		f:          f,
	}
	if len(index) < 4 {
		f.Close()
		return nil, fmt.Errorf("short index")
	}
	nSeries := binary.LittleEndian.Uint32(index)
	p := index[4:]
	bad := func() (*segment, error) {
		f.Close()
		return nil, fmt.Errorf("corrupt index entry")
	}
	uvar := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	svar := func() (int64, bool) {
		v, n := binary.Varint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	first := true
	for i := uint32(0); i < nSeries; i++ {
		tlen, ok := uvar()
		if !ok || uint64(len(p)) < tlen {
			return bad()
		}
		topic := sensor.Topic(p[:tlen])
		p = p[tlen:]
		count, ok1 := uvar()
		minT, ok2 := svar()
		maxT, ok3 := svar()
		off, ok4 := uvar()
		length, ok5 := uvar()
		if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || len(p) < 24 {
			return bad()
		}
		// The chunk must lie between the header and the index: readChunk
		// allocates length bytes and reads them at off unchecked.
		if off < segHeader || off > uint64(indexOff) || length > uint64(indexOff)-off {
			return bad()
		}
		// The count feeds Count, TotalReadings and the O(1) aggregate
		// path without the chunk ever being read: it must be a number of
		// samples the chunk could hold (each takes at least one bit;
		// length is bounded by the file size, so 8*length cannot wrap).
		if count == 0 || count > 8*length {
			return bad()
		}
		seg.series[topic] = segSeries{
			count: int(count), minT: minT, maxT: maxT,
			off: int64(off), length: int64(length),
			vmin: math.Float64frombits(binary.LittleEndian.Uint64(p)),
			vmax: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
			vsum: math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
		}
		p = p[24:]
		if first || minT < seg.minT {
			seg.minT = minT
		}
		if first || maxT > seg.maxT {
			seg.maxT = maxT
		}
		first = false
	}
	return seg, nil
}

// readChunk loads and parses one series' chunk.
func (s *segment) readChunk(ss segSeries) (*Iter, error) {
	if s.decodes != nil {
		s.decodes.Inc()
	}
	chunk := make([]byte, ss.length)
	if _, err := s.f.ReadAt(chunk, ss.off); err != nil {
		return nil, err
	}
	it, err := newIter(chunk, s.version != segV2)
	if err == nil && it.Count() != ss.count {
		err = fmt.Errorf("tsdb: chunk holds %d samples, index says %d", it.Count(), ss.count)
	}
	return it, err
}

// appendRange appends the series' readings within [t0, t1] to dst.
func (s *segment) appendRange(topic sensor.Topic, t0, t1 int64, dst []sensor.Reading) ([]sensor.Reading, error) {
	ss, ok := s.series[topic]
	if !ok || ss.maxT < t0 || ss.minT > t1 {
		return dst, nil
	}
	it, err := s.readChunk(ss)
	if err != nil {
		return dst, err
	}
	for it.Next() {
		r := it.At()
		if r.Time > t1 {
			break
		}
		if r.Time >= t0 {
			dst = append(dst, r)
		}
	}
	return dst, it.Err()
}

// latest returns the series' newest reading at or after floor.
func (s *segment) latest(topic sensor.Topic, floor int64) (sensor.Reading, bool, error) {
	ss, ok := s.series[topic]
	if !ok || ss.maxT < floor {
		return sensor.Reading{}, false, nil
	}
	it, err := s.readChunk(ss)
	if err != nil {
		return sensor.Reading{}, false, err
	}
	var last sensor.Reading
	found := false
	for it.Next() {
		if r := it.At(); r.Time >= floor {
			last = r
			found = true
		}
	}
	return last, found, it.Err()
}

// countFrom returns how many of the series' readings are at or after
// floor, decoding the chunk only when the watermark cuts through it.
func (s *segment) countFrom(topic sensor.Topic, floor int64) (int, error) {
	ss, ok := s.series[topic]
	if !ok || ss.maxT < floor {
		return 0, nil
	}
	if ss.minT >= floor {
		return ss.count, nil
	}
	it, err := s.readChunk(ss)
	if err != nil {
		return 0, err
	}
	n := 0
	for it.Next() {
		if it.At().Time >= floor {
			n++
		}
	}
	return n, it.Err()
}

// countBelow returns how many readings across all series are strictly
// older than cutoff.
func (s *segment) countBelow(cutoff int64) (int, error) {
	if s.minT >= cutoff {
		return 0, nil
	}
	if s.maxT < cutoff {
		total := 0
		for _, ss := range s.series {
			total += ss.count
		}
		return total, nil
	}
	total := 0
	for topic, ss := range s.series {
		if ss.minT >= cutoff {
			continue
		}
		if ss.maxT < cutoff {
			total += ss.count
			continue
		}
		n, err := s.countFrom(topic, cutoff)
		if err != nil {
			return 0, err
		}
		total += ss.count - n
	}
	return total, nil
}

// close releases the underlying file.
func (s *segment) close() error { return s.f.Close() }
