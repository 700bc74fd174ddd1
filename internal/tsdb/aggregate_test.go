package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/testseed"
)

// The property suite: for randomized series — out-of-order arrivals,
// data straddling flush boundaries, every tier populated at once —
// the streaming aggregation engine must answer exactly like the naive
// materializing Range+reduce reference. Values are integer-valued
// floats, so every partial sum is exact regardless of summation order
// and the equivalence can be asserted bit for bit.

// buildRandomDB fills a janitor-less DB with nTopics random series,
// flushing at random points so data lands in several segments plus the
// live heads, with a slice of out-of-order stragglers inserted after
// flushes (straddling the flush boundary).
func buildRandomDB(t *testing.T, rng *rand.Rand, dir string, nTopics, perTopic int) (*DB, []sensor.Topic, int64) {
	t.Helper()
	db, err := Open(dir, Options{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	topics := make([]sensor.Topic, nTopics)
	for i := range topics {
		topics[i] = sensor.Topic(fmt.Sprintf("/rack%d/node%d/power", i/2, i))
	}
	var maxT int64
	for round := 0; round < 4; round++ {
		for _, tp := range topics {
			batch := make([]sensor.Reading, 0, perTopic/4)
			base := int64(round * perTopic / 4 * 10)
			for k := 0; k < perTopic/4; k++ {
				ts := base + int64(k*10) + rng.Int63n(7)
				if rng.Intn(8) == 0 && len(batch) > 0 {
					ts = batch[len(batch)-1].Time - rng.Int63n(30) // out of order
				}
				if ts < 0 {
					ts = 0
				}
				if ts > maxT {
					maxT = ts
				}
				batch = append(batch, sensor.Reading{Time: ts, Value: float64(rng.Intn(1000))})
			}
			db.InsertBatch(tp, batch)
		}
		if round < 3 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			// Stragglers older than the segment just written: the next
			// query window straddles the flush boundary.
			for _, tp := range topics {
				db.InsertBatch(tp, []sensor.Reading{{
					Time:  rng.Int63n(int64(round+1) * int64(perTopic) / 4 * 10),
					Value: float64(rng.Intn(1000)),
				}})
			}
		}
	}
	return db, topics, maxT
}

// checkAggEquivalence asserts, for a set of random windows and steps,
// that the native engine and the naive reference agree exactly.
func checkAggEquivalence(t *testing.T, rng *rand.Rand, db *DB, topics []sensor.Topic, maxT int64, label string) {
	t.Helper()
	for trial := 0; trial < 60; trial++ {
		t0 := rng.Int63n(maxT+100) - 50
		t1 := t0 + rng.Int63n(maxT/2+100)
		if trial%9 == 0 {
			t1 = t0 - 1 // inverted window
		}
		tp := topics[rng.Intn(len(topics))]
		got := db.Aggregate(tp, t0, t1)
		want := store.AggregateNaive(db, tp, t0, t1)
		if got != want {
			t.Fatalf("%s: Aggregate(%s, %d, %d) = %+v, naive = %+v", label, tp, t0, t1, got, want)
		}
		step := []int64{1, 3, 17, 100, 1000, maxT + 1}[rng.Intn(6)]
		gotB := db.Downsample(tp, t0, t1, step, nil)
		wantB := store.DownsampleNaive(db, tp, t0, t1, step, nil)
		if len(gotB) != len(wantB) {
			t.Fatalf("%s: Downsample(%s, %d, %d, %d): %d buckets, naive %d",
				label, tp, t0, t1, step, len(gotB), len(wantB))
		}
		for i := range gotB {
			if gotB[i] != wantB[i] {
				t.Fatalf("%s: Downsample(%s, %d, %d, %d) bucket %d = %+v, naive %+v",
					label, tp, t0, t1, step, i, gotB[i], wantB[i])
			}
		}
	}
}

func TestAggregateEquivalenceProperty(t *testing.T) {
	base := testseed.Seed(t)
	for i := 1; i <= 4; i++ {
		t.Run(fmt.Sprintf("round%d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(testseed.Derive(base, fmt.Sprintf("round%d", i))))
			db, topics, maxT := buildRandomDB(t, rng, t.TempDir(), 4, 800)
			defer db.Close()

			checkAggEquivalence(t, rng, db, topics, maxT, "live")

			// Retention watermark cutting through segments and heads: both
			// paths must clamp identically.
			db.Prune(maxT / 3)
			checkAggEquivalence(t, rng, db, topics, maxT, "pruned")
		})
	}
}

// TestAggregateEquivalenceAfterRecovery re-checks the property on both
// recovery shapes: a clean Close (all data in segments) and a simulated
// kill (WAL replay back into heads).
func TestAggregateEquivalenceAfterRecovery(t *testing.T) {
	for _, kill := range []bool{false, true} {
		name := "clean_close"
		if kill {
			name = "kill_wal_replay"
		}
		t.Run(name, func(t *testing.T) {
			rng := testseed.Rand(t)
			dir := t.TempDir()
			db, topics, maxT := buildRandomDB(t, rng, dir, 3, 400)
			if kill {
				db.Abandon()
			} else if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(dir, Options{FlushEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			checkAggEquivalence(t, rng, db2, topics, maxT, name)
		})
	}
}

// TestAggregateUsesChunkMetadata pins the O(1) fast path: aggregating a
// window that fully covers a flushed chunk must not read the chunk
// bytes at all. The segment file is truncated to its header after the
// index is loaded — metadata answers still work, decodes cannot.
func TestAggregateUsesChunkMetadata(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rs := make([]sensor.Reading, 100)
	for i := range rs {
		rs[i] = sensor.Reading{Time: int64(i), Value: float64(i)}
	}
	db.InsertBatch("/n/power", rs)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Sever the chunk bytes: replace the open file handle with one on
	// an empty scratch file. Only the in-memory index remains usable.
	db.mu.Lock()
	seg := db.segs[0]
	db.mu.Unlock()
	scratch, err := os.CreateTemp(dir, "severed")
	if err != nil {
		t.Fatal(err)
	}
	old := seg.f
	seg.f = scratch
	defer func() { seg.f = old; scratch.Close() }()

	got := db.Aggregate("/n/power", 0, 99)
	want := store.AggResult{Count: 100, Sum: 4950, Min: 0, Max: 99}
	if got != want {
		t.Fatalf("fully-covered aggregate = %+v, want %+v (metadata-only)", got, want)
	}
	if b := db.Downsample("/n/power", 0, 99, 1000, nil); len(b) != 1 || b[0].AggResult != want {
		t.Fatalf("single-bucket downsample = %+v, want one bucket %+v", b, want)
	}
	// A boundary window must decode — and with the bytes severed, the
	// chunk is skipped whole rather than answered partially.
	if got := db.Aggregate("/n/power", 10, 20); got.Count != 0 {
		t.Fatalf("boundary aggregate with severed chunk = %+v, want empty", got)
	}
}

// forgeSegment writes a single-series segment file with a chosen header
// version and a chosen index entry count and offset/length (off 0 means
// "where the chunk really is"; the true count is 50), always with a
// correct index CRC: what a decoder sees when the bytes are intact but
// were not produced by writeSegment.
func forgeSegment(t *testing.T, path string, version uint32, count, off, length uint64) {
	t.Helper()
	rs := make([]sensor.Reading, 50)
	for i := range rs {
		rs[i] = sensor.Reading{Time: int64(i * 10), Value: float64(i % 7)}
	}
	chunk := encodeChunk(rs)
	if off == 0 {
		off, length = segHeader, uint64(len(chunk))
	}
	index := fuzzIndexEntry(binary.LittleEndian.AppendUint32(nil, 1), "/n/power", count, 0, 490, off, length)
	buf := fuzzSegmentFile(chunk, index)
	binary.LittleEndian.PutUint32(buf[4:], version)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsUnsupportedSegmentVersion: a segment whose header
// carries any version but the current one and version 2 — the retired
// version 1 included — fails Open with an error naming the file and the
// version.
func TestOpenRejectsUnsupportedSegmentVersion(t *testing.T) {
	for _, version := range []uint32{1, segVersion + 1} {
		dir := t.TempDir()
		forgeSegment(t, segPath(filepath.Join(dir, "seg"), 1), version, 50, 0, 0)
		db, err := Open(dir, Options{FlushEvery: -1})
		if err == nil {
			db.Close()
			t.Fatalf("Open accepted a version-%d segment", version)
		}
		for _, want := range []string{"00000001.seg", fmt.Sprintf("version %d", version)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: error %q does not mention %q", version, err, want)
			}
		}
	}
}

// TestOpenRejectsOutOfBoundsIndexEntry forges CRC-valid indexes whose
// chunk offset/length point outside the chunk area, or whose reading
// count the chunk could not hold. Open must refuse them: readChunk would
// otherwise allocate length bytes (a length of 2^63 or more panics in
// make) or decode index bytes as chunk data, and Count, TotalReadings
// and the O(1) aggregate path report the index count unchecked (2^63
// reads back as -9223372036854775808).
func TestOpenRejectsOutOfBoundsIndexEntry(t *testing.T) {
	// The forger itself is sound: with the true offset the file opens.
	dir := t.TempDir()
	forgeSegment(t, segPath(filepath.Join(dir, "seg"), 1), segVersion, 50, 0, 0)
	db, err := Open(dir, Options{FlushEvery: -1})
	if err != nil {
		t.Fatalf("well-formed forged segment: %v", err)
	}
	if got := db.Range("/n/power", 0, 490, nil); len(got) != 50 {
		t.Fatalf("well-formed forged segment: %d readings, want 50", len(got))
	}
	db.Close()
	for name, e := range map[string]struct{ count, off, length uint64 }{
		"length>=2^63":       {50, segHeader, 1 << 63},
		"length=max":         {50, segHeader, math.MaxUint64},
		"off+length wraps":   {50, math.MaxUint64 - 1, 8},
		"off inside header":  {50, segHeader - 1, 4},
		"runs into index":    {50, segHeader, 1 << 20},
		"off past the index": {50, 1 << 40, 1},
		"count=2^63":         {1 << 63, 0, 0},
		"count=max":          {math.MaxUint64, 0, 0},
		"count=0":            {0, 0, 0},
		"count past 8*len":   {1 << 20, 0, 0},
	} {
		dir := t.TempDir()
		forgeSegment(t, segPath(filepath.Join(dir, "seg"), 1), segVersion, e.count, e.off, e.length)
		db, err := Open(dir, Options{FlushEvery: -1})
		if err == nil {
			db.Range("/n/power", 0, 490, nil)
			n := db.Count("/n/power")
			db.Close()
			t.Errorf("%s: Open accepted the forged index (Count = %d)", name, n)
			continue
		}
		if !strings.Contains(err.Error(), "corrupt index entry") {
			t.Errorf("%s: error %q, want corrupt index entry", name, err)
		}
	}
	// A count the chunk could hold but does not passes Open — only the
	// chunk knows — and is caught at the first read: the series
	// contributes nothing rather than 50 readings under a count of 51.
	dir = t.TempDir()
	forgeSegment(t, segPath(filepath.Join(dir, "seg"), 1), segVersion, 51, 0, 0)
	if db, err = Open(dir, Options{FlushEvery: -1}); err != nil {
		t.Fatalf("plausible forged count: %v", err)
	}
	defer db.Close()
	if got := db.Range("/n/power", 0, 490, nil); len(got) != 0 {
		t.Errorf("chunk of 50 under an index count of 51: Range returned %d readings, want the chunk skipped", len(got))
	}
	// A chunk header count its own bits could not hold.
	if _, err := NewIter(binary.AppendUvarint(nil, 1<<63)); err == nil {
		t.Error("NewIter accepted a count of 2^63 over an empty bit stream")
	}
}
