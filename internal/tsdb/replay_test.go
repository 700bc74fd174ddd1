package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// TestReplayAcrossShards: Open replays a WAL with one inserter per CPU,
// each owning some head shards. A WAL of topics in every shard, with
// equal timestamps and late readings across records, is damaged in its
// middle record, by a flipped payload byte (the CRC no longer matches)
// or by a payload that fails to decode under a matching CRC. Reopened
// at GOMAXPROCS 1, 2 and 8, every topic holds exactly the readings of
// the records before the damaged one, equal timestamps in file order.
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
	// offsets[k] is where record k's frame starts.
	var offsets []int
	for off := 0; off < len(clean); off += walHeaderSize + int(binary.LittleEndian.Uint32(clean[off:])) {
		offsets = append(offsets, off)
	}
	if len(offsets) != len(recs) {
		t.Fatalf("the WAL holds %d records, %d were written", len(offsets), len(recs))
	}
	bad := len(recs) / 2
	want := map[sensor.Topic][]sensor.Reading{}
	for _, rec := range recs[:bad] {
		want[rec.topic] = append(want[rec.topic], rec.rs...)
	}
	for _, rs := range want {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Time < rs[j].Time })
	}

	for _, damage := range []struct {
		name       string
		crcMatches bool
	}{{"crc", false}, {"malformed", true}} {
		file := append([]byte(nil), clean...)
		off := offsets[bad]
		payload := file[off+walHeaderSize : off+walHeaderSize+int(binary.LittleEndian.Uint32(file[off:]))]
		if damage.crcMatches {
			copy(payload, []byte{0xff, 0xff, 0xff, 0x0f}) // a topic length beyond the payload
			binary.LittleEndian.PutUint32(file[off+4:], crc32.ChecksumIEEE(payload))
		} else {
			payload[len(payload)/2] ^= 0x40
		}
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
						t.Fatalf("%s: replayed %d readings, want the %d of the records before the damaged one, in file order", topic, len(got), len(want[topic]))
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
