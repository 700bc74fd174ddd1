package tsdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/reclog"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// walOffsets returns where each record of a clean WAL file starts.
func walOffsets(file []byte) []int {
	var offsets []int
	for off := 0; off < len(file); off += reclog.HeaderSize + int(binary.LittleEndian.Uint32(file[off:])) {
		offsets = append(offsets, off)
	}
	return offsets
}

// damageWALRecord spoils the record at off of a WAL file: with
// crcMatches its payload stops decoding (a topic length beyond the
// payload) under a CRC that matches it, else a payload byte flips and
// the CRC no longer matches.
func damageWALRecord(file []byte, off int, crcMatches bool) {
	payload := file[off+reclog.HeaderSize : off+reclog.HeaderSize+int(binary.LittleEndian.Uint32(file[off:]))]
	if crcMatches {
		copy(payload, []byte{0xff, 0xff, 0xff, 0x0f})
		binary.LittleEndian.PutUint32(file[off+4:], crc32.ChecksumIEEE(payload))
	} else {
		payload[len(payload)/2] ^= 0x40
	}
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stderr := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = stderr }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestReplayAcrossShards: Open replays a WAL with one inserter per CPU,
// each owning some head shards. A WAL of topics in every shard, with
// equal timestamps and late readings across records, is damaged in its
// middle record, by a flipped payload byte (the CRC no longer matches)
// or by a payload that fails to decode under a matching CRC. Reopened
// at GOMAXPROCS 1, 2 and 8, every topic holds exactly the readings of
// every record but the damaged one, equal timestamps in file order.
func TestReplayAcrossShards(t *testing.T) {
	// Topics until every head shard has one, and at least 64.
	var topics []sensor.Topic
	for shards := map[uint32]bool{}; len(shards) < headShardCount || len(topics) < 64; {
		topic := sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", len(topics)/16, len(topics)%16))
		shards[headShardIdx(topic)] = true
		topics = append(topics, topic)
	}
	dir := t.TempDir()
	db := openTest(t, dir, Options{})
	type record struct {
		topic sensor.Topic
		rs    []sensor.Reading
	}
	var recs []record
	arrival := 0.0
	for r := 0; r < 40; r++ {
		for _, topic := range topics {
			// Each round's ten readings overlap the last round's five
			// newest: equal timestamps and late arrivals.
			rs := make([]sensor.Reading, 10)
			for j := range rs {
				arrival++
				rs[j] = sensor.Reading{Time: int64(r*5 + j), Value: arrival}
			}
			db.InsertBatch(topic, rs)
			recs = append(recs, record{topic, rs})
		}
	}
	db.Abandon()
	files, err := listWAL(OSFS, filepath.Join(dir, "wal"))
	if err != nil || len(files) != 1 {
		t.Fatalf("WAL files %v, %v: want one", files, err)
	}
	clean, err := os.ReadFile(files[0].path)
	if err != nil {
		t.Fatal(err)
	}
	offsets := walOffsets(clean)
	if len(offsets) != len(recs) {
		t.Fatalf("the WAL holds %d records, %d were written", len(offsets), len(recs))
	}
	bad := len(recs) / 2
	want := map[sensor.Topic][]sensor.Reading{}
	for i, rec := range recs {
		if i != bad {
			want[rec.topic] = append(want[rec.topic], rec.rs...)
		}
	}
	for _, rs := range want {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Time < rs[j].Time })
	}

	for _, damage := range []struct {
		name       string
		crcMatches bool
	}{{"crc", false}, {"malformed", true}} {
		file := append([]byte(nil), clean...)
		damageWALRecord(file, offsets[bad], damage.crcMatches)
		if err := os.WriteFile(files[0].path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", damage.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				db := openTest(t, dir, Options{})
				defer db.Abandon()
				total := 0
				for _, topic := range topics {
					if got := db.Range(topic, math.MinInt64, math.MaxInt64, nil); !sameReadings(got, want[topic]) {
						t.Fatalf("%s: replayed %d readings, want the %d of every record but the damaged one, in file order", topic, len(got), len(want[topic]))
					}
					total += len(want[topic])
				}
				if n := db.TotalReadings(); n != total {
					t.Fatalf("TotalReadings = %d, want %d", n, total)
				}
			})
		}
	}
}

// TestReplaySkipsDamagedRecord: a WAL of 20 one-reading records whose
// record 10 is damaged — its CRC fails, or its payload does not decode
// under a CRC that matches — replays the other 19. The skip is counted
// in dcdb_tsdb_wal_records_skipped_total and logged once, with the
// file's path and the record's offset.
func TestReplaySkipsDamagedRecord(t *testing.T) {
	const n, bad = 20, 10
	for _, damage := range []struct {
		name       string
		crcMatches bool
	}{{"crc", false}, {"malformed", true}} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openTest(t, dir, Options{})
			for i := 0; i < n; i++ {
				db.InsertBatch("/n01/power", []sensor.Reading{{Time: int64(i), Value: float64(i)}})
			}
			db.Abandon()
			path := walPath(filepath.Join(dir, "wal"), 1)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			offsets := walOffsets(file)
			damageWALRecord(file, offsets[bad], damage.crcMatches)
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			var re *DB
			log := captureStderr(t, func() { re = openTest(t, dir, Options{Metrics: reg}) })
			defer re.Abandon()
			var want []sensor.Reading
			for i := 0; i < n; i++ {
				if i != bad {
					want = append(want, sensor.Reading{Time: int64(i), Value: float64(i)})
				}
			}
			if got := re.Range("/n01/power", math.MinInt64, math.MaxInt64, nil); !sameReadings(got, want) {
				t.Fatalf("replayed %v, want every reading but record %d's", got, bad)
			}
			if v, _ := reg.Value("dcdb_tsdb_wal_records_skipped_total"); v != 1 {
				t.Fatalf("dcdb_tsdb_wal_records_skipped_total = %v, want 1", v)
			}
			if line := fmt.Sprintf("%s: skipped 1 damaged records, the first at offset %d\n", path, offsets[bad]); !strings.HasSuffix(log, line) || strings.Count(log, "\n") != 1 {
				t.Fatalf("stderr %q, want one line ending %q", log, line)
			}
		})
	}
}

// TestReplayEndsAtZeroPage: a crash can leave the WAL file's last page
// allocated but never written, all zeros. Its first header declares an
// empty record, which no writer writes: the log ends there, like at a
// torn tail, and nothing is counted as skipped.
func TestReplayEndsAtZeroPage(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, Options{})
	topic := sensor.Topic("/n01/power")
	var want []sensor.Reading
	for i := 0; i < 5; i++ {
		rs := []sensor.Reading{{Time: int64(i), Value: float64(i)}}
		db.InsertBatch(topic, rs)
		want = append(want, rs...)
	}
	db.Abandon()
	f, err := os.OpenFile(walPath(filepath.Join(dir, "wal"), 1), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var re *DB
	log := captureStderr(t, func() { re = openTest(t, dir, Options{Metrics: reg}) })
	defer re.Abandon()
	if got := re.Range(topic, math.MinInt64, math.MaxInt64, nil); !sameReadings(got, want) {
		t.Fatalf("replayed %v, want the %d records before the zero page", got, len(want))
	}
	if v, _ := reg.Value("dcdb_tsdb_wal_records_skipped_total"); v != 0 || log != "" {
		t.Fatalf("skipped %v, logged %q: a zero page is a tail, not damage", v, log)
	}
}

// goldenWALBurst is the burst testdata/wal-v1.golden holds: the golden
// segment input as one batch per topic, in topic order; the empty
// batch writes no record.
func goldenWALBurst() []store.Batch {
	in := goldenSegmentInput()
	var burst []store.Batch
	for topic, rs := range in {
		burst = append(burst, store.Batch{Topic: topic, Readings: rs})
	}
	sort.Slice(burst, func(i, j int) bool { return burst[i].Topic < burst[j].Topic })
	return burst
}

// TestWALGolden: testdata/wal-v1.golden is the WAL file an agent wrote
// for goldenWALBurst before the WAL and the disk spool shared a record
// log. The records encode to exactly those bytes, and a database whose
// WAL holds the file, as an upgraded agent finds a crashed one's,
// replays every reading.
func TestWALGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "wal-v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var enc []byte
	for _, b := range goldenWALBurst() {
		if len(b.Readings) > 0 {
			enc = appendWALRecord(enc, b.Topic, b.Readings)
		}
	}
	if !bytes.Equal(enc, golden) {
		t.Fatalf("the burst encodes to %d bytes that differ from the golden file's %d", len(enc), len(golden))
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(filepath.Join(dir, "wal"), 1), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	db := openTest(t, dir, Options{})
	defer db.Abandon()
	for _, b := range goldenWALBurst() {
		if got := db.Range(b.Topic, math.MinInt64, math.MaxInt64, nil); !sameReadings(got, b.Readings) {
			t.Fatalf("%s: replayed %d readings, wrote %d", b.Topic, len(got), len(b.Readings))
		}
	}
}

// BenchmarkOpenReplay times the recovery of a killed agent's WAL: 512
// topics × 14,400 readings, inserted 60 at a time as pushers that send
// once a minute would, replayed into fresh heads by Open. The WAL is
// written once; every iteration opens and abandons the same directory
// (Open replays without changing what it replays). ms/Mreading is the
// time of one Open per million readings recovered.
func BenchmarkOpenReplay(b *testing.B) {
	const topics, perTopic, batch = 512, 14400, 60
	dir := b.TempDir()
	db, err := Open(dir, Options{FlushEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]sensor.Topic, topics)
	for i := range names {
		names[i] = sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", i/16, i%16))
	}
	rs := make([]sensor.Reading, batch)
	for idx := 0; idx < perTopic; idx += batch {
		for i, topic := range names {
			for j := range rs {
				rs[j] = sensor.Reading{Time: int64(idx+j) * int64(time.Second), Value: float64((i+idx+j)%977) / 10}
			}
			db.InsertBatch(topic, rs)
		}
	}
	db.Abandon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(dir, Options{FlushEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := db.TotalReadings(); n != topics*perTopic {
			b.Fatalf("recovered %d readings, wrote %d", n, topics*perTopic)
		}
		db.Abandon()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N)/(topics*perTopic/1e6), "ms/Mreading")
}
