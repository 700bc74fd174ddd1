package tsdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/testseed"
)

// openTest opens a DB without the background janitor so tests control
// flush and retention timing deterministically.
func openTest(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	opts.FlushEvery = -1
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

const sec = int64(time.Second)

func TestInsertRangeLatestCount(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	for i := 0; i < 10; i++ {
		db.InsertBatch("/n/power", []sensor.Reading{{Value: float64(i), Time: int64(i * 100)}})
	}
	got := db.Range("/n/power", 200, 500, nil)
	if len(got) != 4 || got[0].Value != 2 || got[3].Value != 5 {
		t.Fatalf("Range = %+v", got)
	}
	if got := db.Range("/missing", 0, 100, nil); len(got) != 0 {
		t.Fatalf("missing topic = %+v", got)
	}
	if got := db.Range("/n/power", 500, 200, nil); len(got) != 0 {
		t.Fatalf("inverted range = %+v", got)
	}
	if r, ok := db.Latest("/n/power"); !ok || r.Value != 9 {
		t.Fatalf("Latest = %+v, %v", r, ok)
	}
	if db.Count("/n/power") != 10 {
		t.Fatalf("Count = %d", db.Count("/n/power"))
	}
}

func TestQueriesSpanFlushBoundary(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.InsertBatch("/x", []sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 100; i < 200; i++ {
		db.InsertBatch("/x", []sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
	}
	// Range crossing segment -> head.
	got := db.Range("/x", 90*sec, 110*sec, nil)
	if len(got) != 21 || got[0].Value != 90 || got[20].Value != 110 {
		t.Fatalf("boundary range: len=%d %+v", len(got), got[:min(3, len(got))])
	}
	if db.Count("/x") != 200 {
		t.Fatalf("Count = %d", db.Count("/x"))
	}
	if r, ok := db.Latest("/x"); !ok || r.Value != 199 {
		t.Fatalf("Latest = %+v", r)
	}
	// Latest served from segments once heads flush again.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if r, ok := db.Latest("/x"); !ok || r.Value != 199 {
		t.Fatalf("segment Latest = %+v, %v", r, ok)
	}
}

func TestOutOfOrderAcrossFlush(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	for i := 0; i < 10; i++ {
		db.InsertBatch("/x", []sensor.Reading{{Value: float64(i), Time: int64(10+i) * sec}})
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// A late reading older than the flushed segment lands in the head;
	// Range must still come back time-ordered.
	db.InsertBatch("/x", []sensor.Reading{{Value: -1, Time: 5 * sec}})
	got := db.Range("/x", 0, 100*sec, nil)
	if len(got) != 11 || got[0].Value != -1 {
		t.Fatalf("Range = %+v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatalf("unordered at %d: %+v", i, got)
		}
	}
}

func TestTopicsAndTotalReadings(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	for _, tp := range []sensor.Topic{"/c", "/a", "/b"} {
		db.InsertBatch(tp, []sensor.Reading{{Time: 1, Value: 1}})
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.InsertBatch("/d", []sensor.Reading{{Time: 2, Value: 2}})
	got := db.Topics()
	want := []sensor.Topic{"/a", "/b", "/c", "/d"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Topics = %v", got)
	}
	if db.TotalReadings() != 4 {
		t.Fatalf("TotalReadings = %d", db.TotalReadings())
	}
}

func TestPruneDropsSegmentsAndTrimsHeads(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	// Segment 1: t in [0, 9]s; segment 2: t in [10, 19]s; head: [20, 29]s.
	for batch := 0; batch < 2; batch++ {
		for i := 0; i < 10; i++ {
			ts := int64(batch*10+i) * sec
			db.InsertBatch("/x", []sensor.Reading{{Value: float64(batch*10 + i), Time: ts}})
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 20; i < 30; i++ {
		db.InsertBatch("/x", []sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
	}

	// Cut inside segment 2: segment 1 fully expires (10 readings), the
	// watermark hides 5 readings of segment 2.
	removed := db.Prune(15 * sec)
	if removed != 15 {
		t.Fatalf("Prune removed = %d, want 15", removed)
	}
	if db.Count("/x") != 15 {
		t.Fatalf("Count = %d, want 15", db.Count("/x"))
	}
	got := db.Range("/x", 0, 100*sec, nil)
	if len(got) != 15 || got[0].Value != 15 {
		t.Fatalf("Range after prune = %+v", got)
	}
	st := db.Stats()
	if st.Segments != 1 {
		t.Fatalf("Segments = %d, want 1 (expired segment not deleted)", st.Segments)
	}
	// Advancing the watermark again must not double-count segment 2's
	// already-hidden readings.
	if removed := db.Prune(16 * sec); removed != 1 {
		t.Fatalf("second Prune removed = %d, want 1", removed)
	}
	// Prune into the head.
	if removed := db.Prune(22 * sec); removed != 6 {
		t.Fatalf("head Prune removed = %d, want 6", removed)
	}
	if db.TotalReadings() != 8 {
		t.Fatalf("TotalReadings = %d, want 8", db.TotalReadings())
	}
}

func TestStats(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.InsertBatch("/a", []sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.InsertBatch("/b", []sensor.Reading{{Value: 1, Time: 200 * sec}})
	st := db.Stats()
	if st.Kind != "tsdb" || st.Topics != 2 || st.TotalReadings != 101 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.Segments != 1 || st.HeadReadings != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.DiskBytes <= 0 || st.WALFiles == 0 {
		t.Fatalf("Stats disk accounting = %+v", st)
	}
}

func TestJanitorFlushesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{
		FlushEvery: time.Hour, // passes driven manually below
		Retention:  10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	now := time.Now()
	for i := 0; i < 20; i++ {
		db.InsertBatch("/x", []sensor.Reading{{Value: float64(i), Time: now.Add(time.Duration(i-19) * time.Second).UnixNano()}})
	}
	// Twenty readings are far below the size threshold and a moment old:
	// a pass now leaves them buffered, a pass maxHeadAge later flushes.
	db.janitorPass(now)
	if st := db.Stats(); st.Segments != 0 || st.HeadReadings != 20 {
		t.Fatalf("after an early janitor pass: %+v", st)
	}
	db.janitorPass(now.Add(maxHeadAge + time.Second))
	st := db.Stats()
	if st.Segments != 1 || st.HeadReadings != 0 {
		t.Fatalf("after janitor pass: %+v", st)
	}
	// A pass an hour later expires everything.
	db.janitorPass(now.Add(time.Hour))
	if n := db.TotalReadings(); n != 0 {
		t.Fatalf("after retention pass: %d readings live", n)
	}
}

func TestConcurrentInsertFlushQuery(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	base := testseed.Seed(t)
	topics := []sensor.Topic{"/a", "/b", "/c", "/d"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				tp := topics[rng.Intn(len(topics))]
				db.InsertBatch(tp, []sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
			}
		}(testseed.Derive(base, fmt.Sprintf("writer-%d", w)))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := db.Flush(); err != nil {
				t.Errorf("Flush: %v", err)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		for _, tp := range topics {
			db.Range(tp, 0, int64(i)*sec, nil)
			db.Latest(tp)
		}
	}
	wg.Wait()
	total := 0
	for _, tp := range topics {
		total += db.Count(tp)
	}
	if total != 4*500 {
		t.Fatalf("total readings = %d, want 2000", total)
	}
}

func TestManyTopicsSurviveFlush(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	const topics, per = 64, 50
	for n := 0; n < topics; n++ {
		tp := sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", n/8, n%8))
		for i := 0; i < per; i++ {
			db.InsertBatch(tp, []sensor.Reading{{Value: float64(n*1000 + i), Time: int64(i) * sec}})
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < topics; n++ {
		tp := sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", n/8, n%8))
		rs := db.Range(tp, 0, per*sec, nil)
		if len(rs) != per {
			t.Fatalf("%s: %d readings", tp, len(rs))
		}
		if rs[per-1].Value != float64(n*1000+per-1) {
			t.Fatalf("%s: wrong tail %+v", tp, rs[per-1])
		}
	}
}

// TestLatestPrefersNewestAcrossTiers covers the out-of-order case where
// a late arrival leaves the head's newest reading older than a flushed
// segment's: Latest must still answer with the globally newest reading,
// matching the in-memory store's behaviour.
func TestLatestPrefersNewestAcrossTiers(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	db.InsertBatch("/x", []sensor.Reading{
		{Value: 1, Time: 100 * sec},
		{Value: 2, Time: 200 * sec},
	})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.InsertBatch("/x", []sensor.Reading{{Value: 3, Time: 150 * sec}}) // late arrival
	r, ok := db.Latest("/x")
	if !ok || r.Time != 200*sec || r.Value != 2 {
		t.Fatalf("Latest = %+v, %v; want the segment's T=200s reading", r, ok)
	}
	// And once the late arrival is flushed into its own segment too.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if r, ok := db.Latest("/x"); !ok || r.Time != 200*sec {
		t.Fatalf("Latest across segments = %+v, %v", r, ok)
	}
}

// TestQueriesNeverMissDataDuringFlush hammers Range/Latest/Count while
// flushes seal readings in their heads and relocate them to segments: a
// query must never observe fewer readings than have been fully
// inserted, and never duplicates.
func TestQueriesNeverMissDataDuringFlush(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	const total = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			db.InsertBatch("/x", []sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
			if i%100 == 99 {
				if err := db.Flush(); err != nil {
					t.Errorf("Flush: %v", err)
					return
				}
			}
		}
	}()
	prev := 0
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		rs := db.Range("/x", 0, total*sec, nil)
		if len(rs) < prev {
			t.Fatalf("Range shrank: %d -> %d readings (flush made data invisible)", prev, len(rs))
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].Time == rs[i-1].Time {
				t.Fatalf("duplicate reading at T=%d (tier overlap)", rs[i].Time)
			}
		}
		if c := db.Count("/x"); c < prev {
			t.Fatalf("Count shrank below %d: %d", prev, c)
		}
		prev = len(rs)
	}
	if got := db.Range("/x", 0, total*sec, nil); len(got) != total {
		t.Fatalf("final Range = %d readings, want %d", len(got), total)
	}
}

// headCount returns how many head blocks the shard maps hold.
func headCount(db *DB) int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		n += len(sh.heads)
		sh.mu.RUnlock()
	}
	return n
}

// TestEmptyHeadsLeaveShards: a head exists only while it holds readings.
// A flush drops the heads its segment emptied, a prune the ones it
// trimmed to nothing — so topic churn cannot grow the shard maps.
func TestEmptyHeadsLeaveShards(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	for n := 0; n < 200; n++ {
		db.InsertBatch(sensor.Topic(fmt.Sprintf("/job%03d/power", n)), []sensor.Reading{{Value: 1, Time: int64(n) * sec}})
	}
	db.InsertBatch("/busy", []sensor.Reading{{Value: 1, Time: 0}})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := headCount(db); n != 0 {
		t.Fatalf("%d heads left after a flush wrote all of them", n)
	}
	db.InsertBatch("/busy", []sensor.Reading{{Value: 2, Time: 300 * sec}})
	db.InsertBatch("/idle", []sensor.Reading{{Value: 2, Time: 1 * sec}})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.InsertBatch("/busy", []sensor.Reading{{Value: 3, Time: 301 * sec}})
	db.InsertBatch("/idle", []sensor.Reading{{Value: 3, Time: 2 * sec}})
	if removed := db.Prune(100 * sec); removed != 103 { // 100 jobs, /busy@0, /idle@1s and @2s
		t.Fatalf("Prune removed %d readings, want 103", removed)
	}
	if n := headCount(db); n != 1 {
		t.Fatalf("%d heads after the prune emptied /idle, want /busy's only", n)
	}
	if db.Count("/busy") != 2 || db.Count("/idle") != 0 {
		t.Fatalf("Count(/busy) = %d, Count(/idle) = %d after flushes and prune", db.Count("/busy"), db.Count("/idle"))
	}
}
