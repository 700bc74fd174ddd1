package tsdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/testseed"
)

// The burst is only a grouping: InsertBatches must leave exactly the
// bytes and answers that its batches, inserted one by one, leave; and
// the streamed segment writer must produce exactly the file the
// whole-buffer writer it replaced produced.

// randomBursts draws bursts over a few topics: batches of 0–12 readings,
// mostly in time order, some late, topics repeating inside a burst.
func randomBursts(rng *rand.Rand, n int) [][]store.Batch {
	next := map[sensor.Topic]int64{}
	bursts := make([][]store.Batch, n)
	for i := range bursts {
		bursts[i] = make([]store.Batch, 1+rng.Intn(20))
		for j := range bursts[i] {
			topic := sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", rng.Intn(2), rng.Intn(4)))
			rs := make([]sensor.Reading, rng.Intn(13))
			for k := range rs {
				next[topic] += 1 + rng.Int63n(1000)
				rs[k] = sensor.Reading{Time: next[topic], Value: float64(rng.Intn(500)) / 10}
				if rng.Intn(50) == 0 {
					rs[k].Time -= rng.Int63n(5000) // a late arrival
				}
			}
			bursts[i][j] = store.Batch{Topic: topic, Readings: rs}
		}
	}
	return bursts
}

func readOnlyFile(t *testing.T, dir, pattern string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(names) != 1 {
		t.Fatalf("%s/%s: %v, %v; want one file", dir, pattern, names, err)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestInsertBatchesMatchesInsertBatch(t *testing.T) {
	bursts := randomBursts(testseed.Rand(t), 60)
	open := func() (*DB, string) {
		dir := t.TempDir()
		db, err := Open(dir, Options{FlushEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return db, dir
	}
	burstDB, burstDir := open()
	defer burstDB.Close()
	singleDB, singleDir := open()
	defer singleDB.Close()
	for _, bs := range bursts {
		burstDB.InsertBatches(bs)
		for _, b := range bs {
			singleDB.InsertBatch(b.Topic, b.Readings)
		}
	}
	if a, b := readOnlyFile(t, burstDir, "wal/*.wal"), readOnlyFile(t, singleDir, "wal/*.wal"); !bytes.Equal(a, b) {
		t.Fatalf("WAL bytes differ: %d bytes by the burst, %d one by one", len(a), len(b))
	}
	sameAnswers := func(when string) {
		t.Helper()
		topics := burstDB.Topics()
		if other := singleDB.Topics(); fmt.Sprint(topics) != fmt.Sprint(other) {
			t.Fatalf("%s: topics %v by the burst, %v one by one", when, topics, other)
		}
		for _, topic := range topics {
			if a, b := burstDB.Count(topic), singleDB.Count(topic); a != b {
				t.Fatalf("%s: %s holds %d readings by the burst, %d one by one", when, topic, a, b)
			}
			a := burstDB.Range(topic, math.MinInt64, math.MaxInt64, nil)
			b := singleDB.Range(topic, math.MinInt64, math.MaxInt64, nil)
			if !sameReadings(a, b) {
				t.Fatalf("%s: %s ranges differ", when, topic)
			}
		}
	}
	sameAnswers("in the heads")
	if err := burstDB.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := singleDB.Flush(); err != nil {
		t.Fatal(err)
	}
	if a, b := readOnlyFile(t, burstDir, "seg/*.seg"), readOnlyFile(t, singleDir, "seg/*.seg"); !bytes.Equal(a, b) {
		t.Fatalf("segment bytes differ: %d bytes by the burst, %d one by one", len(a), len(b))
	}
	sameAnswers("in the segment")
}

// TestTornBurstReplaysWholeRecordPrefix cuts the WAL at every byte of a
// group of records that one InsertBatches call wrote with one write:
// whatever the cut, replay yields exactly the records that end at or
// before it — a tear in the middle of a burst loses the tail of the
// burst, never a record before it and never half a record.
func TestTornBurstReplaysWholeRecordPrefix(t *testing.T) {
	burst := randomBursts(rand.New(rand.NewSource(7)), 1)[0]
	dir := t.TempDir()
	db, err := Open(dir, Options{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.InsertBatches(burst)
	db.Abandon()
	file := readOnlyFile(t, dir, "wal/*.wal")

	var ends []int // end offset of each record in the file
	var want []store.Batch
	off := 0
	for _, b := range burst {
		if len(b.Readings) > 0 {
			off += len(appendWALRecord(nil, b.Topic, b.Readings))
			ends = append(ends, off)
			want = append(want, b)
		}
	}
	if off != len(file) {
		t.Fatalf("the burst's records sum to %d bytes, the WAL file holds %d", off, len(file))
	}
	if len(ends) < 3 {
		t.Fatalf("burst of %d records is too small to tear", len(ends))
	}
	for cut := 0; cut <= len(file); cut++ {
		whole := sort.SearchInts(ends, cut+1)
		i := 0
		skipped, _, err := replayWAL(memFS{data: file[:cut]}, "", func(topic sensor.Topic, rs []sensor.Reading) {
			if i >= whole || topic != want[i].Topic || !sameReadings(rs, want[i].Readings) {
				t.Fatalf("cut at %d of %d: record %d is not the burst's (whole records before the cut: %d)", cut, len(file), i, whole)
			}
			i++
		})
		if err != nil || i != whole || skipped != 0 {
			t.Fatalf("cut at %d of %d: replayed %d records and skipped %d (%v), want the %d whole ones and no skip", cut, len(file), i, skipped, err, whole)
		}
	}
}

// oneBlock gives every series of data as a run of one block, the shape
// writeSegment takes.
func oneBlock(data map[sensor.Topic][]sensor.Reading) map[sensor.Topic][][]sensor.Reading {
	runs := make(map[sensor.Topic][][]sensor.Reading, len(data))
	for t, rs := range data {
		runs[t] = [][]sensor.Reading{rs}
	}
	return runs
}

// goldenSegmentInput is the fixed input testdata/segment-v2.golden and
// testdata/segment-v3.golden were written from.
func goldenSegmentInput() map[sensor.Topic][]sensor.Reading {
	regular := make([]sensor.Reading, 40)
	for i := range regular {
		regular[i] = sensor.Reading{Time: 1_700_000_000_000_000_000 + int64(i)*1_000_000_000, Value: 240 + 0.5*float64(i%5)}
	}
	return map[sensor.Topic][]sensor.Reading{
		"/r01/n01/power": regular,
		"/r01/n01/temp": {
			{Time: -5, Value: math.Inf(1)}, {Time: 0, Value: math.Inf(-1)}, {Time: 1, Value: math.Copysign(0, -1)},
			{Time: 3, Value: 0}, {Time: 3, Value: math.MaxFloat64}, {Time: 1 << 40, Value: 1e-300}, {Time: math.MaxInt64, Value: 42},
		},
		"/r02/n07/instr": {{Time: 12345, Value: 7}},
		"/empty":         nil,
	}
}

// TestStreamedSegmentMatchesGolden: testdata/segment-v3.golden is the
// file writeSegment wrote for this input, as segment 7 covering WAL 3,
// when the decimal codec came in: two decimal chunks (scales 1 and 0)
// and one XOR chunk. The format has not moved by a byte since.
func TestStreamedSegmentMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "segment-v3.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seg, decimal, err := writeSegment(OSFS, dir, 7, 3, oneBlock(goldenSegmentInput()))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	if got := readOnlyFile(t, dir, "*.seg"); !bytes.Equal(got, golden) {
		t.Fatalf("segment differs from the golden file: %d bytes, golden %d", len(got), len(golden))
	}
	if decimal != 2 {
		t.Fatalf("%d decimal chunks, want 2", decimal)
	}
}

// TestOpenSegmentV2Golden: testdata/segment-v2.golden is the file the
// writer of format version 2 — no codec byte, every chunk XOR — wrote
// for the same input. A database holding it opens, as an upgraded agent
// finds its history, and answers exactly the readings it was written
// from, aggregates included.
func TestOpenSegmentV2Golden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "segment-v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "seg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(filepath.Join(dir, "seg"), 7), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, Options{FlushEvery: -1})
	if err != nil {
		t.Fatalf("Open with a version 2 segment: %v", err)
	}
	defer db.Close()
	for topic, want := range goldenSegmentInput() {
		got := db.Range(topic, math.MinInt64, math.MaxInt64, nil)
		if !sameReadings(got, want) {
			t.Fatalf("%s: read back %v, written %v", topic, got, want)
		}
		if n := db.Count(topic); n != len(want) {
			t.Fatalf("%s: Count = %d, want %d", topic, n, len(want))
		}
	}
	// A boundary-cut aggregate decodes the XOR chunk; a covering one
	// answers from the index.
	if agg := db.Aggregate("/r01/n01/power", math.MinInt64, math.MaxInt64); agg.Count != 40 || agg.Sum != 40*240+8*(0+0.5+1+1.5+2) {
		t.Fatalf("covering aggregate = %+v", agg)
	}
	if agg := db.Aggregate("/r01/n01/power", 1_700_000_000_000_000_000, 1_700_000_004_000_000_000); agg.Count != 5 || agg.Max != 242 {
		t.Fatalf("cut aggregate = %+v", agg)
	}
}

// TestStreamedSegmentMatchesReference holds a segment several times the
// writer's buffer to a file assembled the old way: every chunk from the
// reference codec appended to one buffer, then the index.
func TestStreamedSegmentMatchesReference(t *testing.T) {
	rng := testseed.Rand(t)
	data := map[sensor.Topic][]sensor.Reading{}
	var topics []sensor.Topic
	for i := 0; i < 24; i++ {
		topic := sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", i/8, i%8))
		topics = append(topics, topic)
		// The largest chunks alone overflow the writer's buffer, the
		// smallest share one write with their neighbours.
		n := []int{1 + rng.Intn(50), 3000 + rng.Intn(3000), 30000 + rng.Intn(3000)}[i%3]
		data[topic] = codecSeries(rng, n)
	}
	sort.Slice(topics, func(i, j int) bool { return topics[i] < topics[j] })
	var chunks []byte
	index := binary.LittleEndian.AppendUint32(nil, uint32(len(topics)))
	for _, topic := range topics {
		rs := data[topic]
		var agg store.AggResult
		for _, r := range rs {
			agg.Observe(r.Value)
		}
		chunk := refEncode(rs)
		index = fuzzIndexEntry(index, string(topic), uint64(len(rs)), rs[0].Time, rs[len(rs)-1].Time, uint64(segHeader+len(chunks)), uint64(len(chunk)))
		index = index[:len(index)-24]
		for _, v := range []float64{agg.Min, agg.Max, agg.Sum} {
			index = binary.LittleEndian.AppendUint64(index, math.Float64bits(v))
		}
		chunks = append(chunks, chunk...)
	}
	want := fuzzSegmentFile(chunks, index)
	if len(want) < 3*segWriteBuf {
		t.Fatalf("reference segment is %d bytes: too small to span several buffered writes", len(want))
	}
	dir := t.TempDir()
	seg, _, err := writeSegment(OSFS, dir, 1, 0, oneBlock(data))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	if got := readOnlyFile(t, dir, "*.seg"); !bytes.Equal(got, want) {
		t.Fatalf("streamed segment differs from the reference assembly: %d bytes, reference %d", len(got), len(want))
	}
}
