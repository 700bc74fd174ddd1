// The tier model test: one seeded script of everything that moves
// readings between the head blocks and the segments — inserts in and out
// of order, flushes that succeed, flushes that fail at each step of the
// segment write, retention passes, kills and restarts — run against a
// tsdb.DB and a store.Store fed the same readings, with every reader
// compared after every step and from inside the segment write itself,
// where sealed and fresh data coexist in the heads.
package tsdb_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/testseed"
	"github.com/dcdb/wintermute/internal/tsdb"
)

// tierModel is the script's state: the database under test, the
// reference store, and the one thing the reference cannot say — which
// readings are in no segment yet (Stats().HeadReadings).
type tierModel struct {
	t      *testing.T
	rng    *rand.Rand
	dir    string
	fs     *nthFaultFS
	db     *tsdb.DB
	ref    *store.Store
	topics []sensor.Topic
	next   map[sensor.Topic]int64 // next in-order timestamp per topic
	floor  int64                  // newest Prune cutoff
	head   []int64                // timestamps of the readings in no segment
	sealed int                    // inside Flush: head[:sealed] is being written
	checks int
}

func (m *tierModel) open() {
	m.t.Helper()
	db, err := tsdb.Open(m.dir, tsdb.Options{FS: m.fs, FlushEvery: -1})
	if err != nil {
		m.t.Fatalf("open: %v", err)
	}
	m.db = db
}

// put feeds one batch to both stores.
func (m *tierModel) put(topic sensor.Topic, rs []sensor.Reading) {
	m.db.InsertBatch(topic, rs)
	m.ref.InsertBatch(topic, rs)
	for _, r := range rs {
		m.head = append(m.head, r.Time)
	}
}

// value is integer-valued and small enough that any sum the script can
// build is exact in a float64 whatever the order of summation, and
// random enough that the codec cannot shrink it: 45 k readings fill more
// than one segment write buffer.
func (m *tierModel) value() float64 { return float64(m.rng.Int63n(1 << 32)) }

// insert appends n readings to one topic in timestamp order.
func (m *tierModel) insert(n int) {
	topic := m.topics[m.rng.Intn(len(m.topics))]
	ts := max(m.next[topic], m.floor)
	rs := make([]sensor.Reading, n)
	for i := range rs {
		ts += m.rng.Int63n(1000) // 0: equal timestamps happen
		rs[i] = sensor.Reading{Time: ts, Value: m.value()}
	}
	m.next[topic] = ts + 1
	m.put(topic, rs)
}

// insertLate gives one topic n readings behind its newest, in random
// order, every other one on a timestamp the topic already holds — in a
// sealed run, in a segment, wherever that reading is by now — so arrival
// order on equal timestamps is at stake in every tier.
func (m *tierModel) insertLate(n int) {
	topic := m.topics[m.rng.Intn(len(m.topics))]
	held := m.ref.Range(topic, m.floor, m.next[topic], nil)
	if len(held) == 0 {
		return
	}
	rs := make([]sensor.Reading, n)
	for i := range rs {
		ts := held[m.rng.Intn(len(held))].Time
		if i%2 == 1 {
			ts = max(m.floor, ts-m.rng.Int63n(1000))
		}
		rs[i] = sensor.Reading{Time: ts, Value: m.value()}
	}
	m.put(topic, rs)
}

// flush runs one Flush with the n-th occurrence of op failing ("" fails
// nothing), inserting and comparing from inside the segment write.
func (m *tierModel) flush(op string, n int) {
	m.t.Helper()
	// A failing step needs a segment to write, and a second write needs a
	// segment larger than the writer's buffer.
	for op != "" && len(m.head) < 1+45_000*(n-1) {
		m.insert(3000)
	}
	label := fmt.Sprintf("flush failing %q #%d", op, n)
	m.fs.op, m.fs.n, m.fs.count = op, n, map[string]int{}
	m.sealed = len(m.head)
	var sealedSum uint64
	m.fs.during = func(at string) {
		// The sealed runs are the segment writer's input from its first
		// step, create, to registration, which follows its last, syncdir:
		// nothing the inserts below do may change them.
		if sum := m.db.SealedChecksum(); at == "create" {
			sealedSum = sum
		} else if sum != sealedSum {
			m.t.Fatalf("%s, at %s #%d: the sealed runs changed while the segment was being written", label, at, m.fs.count[at])
		}
		if at != "write" && at != "rename" {
			return
		}
		switch m.rng.Intn(3) {
		case 0:
			m.insert(1 + m.rng.Intn(300))
		case 1:
			m.insertLate(1 + m.rng.Intn(20))
		}
		m.check(fmt.Sprintf("%s, inside %s #%d", label, at, m.fs.count[at]))
	}
	err := m.db.Flush()
	m.fs.during = nil
	if (err != nil) != (op != "") {
		m.t.Fatalf("%s: Flush returned %v (segment ops seen: %v)", label, err, m.fs.count)
	}
	if err == nil {
		m.head = append([]int64(nil), m.head[m.sealed:]...)
	}
	m.sealed = 0
	m.check(label)
}

// prune advances the retention watermark in both stores.
func (m *tierModel) prune() {
	newest := m.floor
	for _, ts := range m.next {
		newest = max(newest, ts)
	}
	if newest-m.floor < 8 {
		return
	}
	cutoff := m.floor + 1 + m.rng.Int63n((newest-m.floor)/4)
	got, want := m.db.Prune(cutoff), m.ref.Prune(cutoff)
	if got != want {
		m.t.Fatalf("Prune(%d) removed %d readings, reference %d", cutoff, got, want)
	}
	m.floor = cutoff
	live := m.head[:0]
	for _, ts := range m.head {
		if ts >= cutoff {
			live = append(live, ts)
		}
	}
	m.head = live
}

// check compares every reader against the reference.
func (m *tierModel) check(when string) {
	m.t.Helper()
	m.checks++
	fail := func(format string, args ...any) {
		m.t.Helper()
		m.t.Fatalf("%s: %s", when, fmt.Sprintf(format, args...))
	}
	if got, want := m.db.Topics(), m.ref.Topics(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		fail("Topics = %v, reference %v", got, want)
	}
	if got, want := m.db.TotalReadings(), m.ref.TotalReadings(); got != want {
		fail("TotalReadings = %d, reference %d", got, want)
	}
	if got := m.db.Stats().HeadReadings; got != len(m.head) {
		fail("Stats().HeadReadings = %d, model %d (%d of them sealed)", got, len(m.head), m.sealed)
	}
	whole := m.rng.Intn(len(m.topics)) // one series end to end, a window of each other
	for i, topic := range m.topics {
		end := m.next[topic] + 1000
		t0 := m.rng.Int63n(end) - 500
		windows := [][2]int64{{t0, t0 + m.rng.Int63n(end/4+1)}}
		if i == whole {
			windows = append(windows, [2]int64{0, end})
		}
		for _, w := range windows {
			got, want := m.db.Range(topic, w[0], w[1], nil), m.ref.Range(topic, w[0], w[1], nil)
			if len(got) != len(want) {
				fail("Range(%s, %d, %d): %d readings, reference %d", topic, w[0], w[1], len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					fail("Range(%s, %d, %d)[%d] = %+v, reference %+v (equal timestamps must keep arrival order)",
						topic, w[0], w[1], i, got[i], want[i])
				}
			}
			if got, want := m.db.Aggregate(topic, w[0], w[1]), m.ref.Aggregate(topic, w[0], w[1]); got != want {
				fail("Aggregate(%s, %d, %d) = %+v, reference %+v", topic, w[0], w[1], got, want)
			}
			step := []int64{5000, 60_000, end + 1}[m.rng.Intn(3)]
			gotB, wantB := m.db.Downsample(topic, w[0], w[1], step, nil), m.ref.Downsample(topic, w[0], w[1], step, nil)
			if len(gotB) != len(wantB) {
				fail("Downsample(%s, %d, %d, %d): %d buckets, reference %d", topic, w[0], w[1], step, len(gotB), len(wantB))
			}
			for i := range gotB {
				if gotB[i] != wantB[i] {
					fail("Downsample(%s, %d, %d, %d)[%d] = %+v, reference %+v", topic, w[0], w[1], step, i, gotB[i], wantB[i])
				}
			}
		}
		gotR, gotOK := m.db.Latest(topic)
		wantR, wantOK := m.ref.Latest(topic)
		if gotR != wantR || gotOK != wantOK {
			fail("Latest(%s) = %+v %v, reference %+v %v", topic, gotR, gotOK, wantR, wantOK)
		}
		if got, want := m.db.Count(topic), m.ref.Count(topic); got != want {
			fail("Count(%s) = %d, reference %d", topic, got, want)
		}
	}
}

func TestTierModel(t *testing.T) {
	base := testseed.Seed(t)
	for round := 1; round <= 5; round++ {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			m := &tierModel{
				t:    t,
				rng:  rand.New(rand.NewSource(testseed.Derive(base, fmt.Sprintf("round%d", round)))),
				dir:  t.TempDir(),
				fs:   &nthFaultFS{FS: tsdb.OSFS, count: map[string]int{}},
				ref:  store.New(0),
				next: map[sensor.Topic]int64{},
			}
			for i := 0; i < 6; i++ {
				m.topics = append(m.topics, sensor.Topic(fmt.Sprintf("/rack%d/node%d/power", i/3, i)))
			}
			m.open()
			defer func() { m.db.Abandon() }()

			// Every kind of step at least once, in a seeded order; a flush
			// step names the segment operation whose n-th occurrence fails.
			type step struct {
				kind string
				op   string
				n    int
			}
			var script []step
			for _, s := range []struct {
				step
				times int
			}{
				{step{kind: "insert"}, 14}, {step{kind: "late"}, 6}, {step{kind: "prune"}, 2},
				{step{kind: "kill"}, 2}, {step{kind: "close"}, 1}, {step{kind: "flush"}, 3},
				{step{"flush", "create", 1}, 1}, {step{"flush", "write", 1}, 1}, {step{"flush", "write", 2}, 1},
				{step{"flush", "sync", 1}, 1}, {step{"flush", "rename", 1}, 1}, {step{"flush", "syncdir", 1}, 1},
			} {
				for i := 0; i < s.times; i++ {
					script = append(script, s.step)
				}
			}
			m.rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
			for i, s := range script {
				when := fmt.Sprintf("step %d (%s %s %d)", i, s.kind, s.op, s.n)
				switch s.kind {
				case "insert":
					m.insert(1 + m.rng.Intn(3000))
				case "late":
					m.insertLate(1 + m.rng.Intn(50))
				case "flush":
					m.flush(s.op, s.n)
				case "prune":
					m.prune()
				case "kill":
					m.db.Abandon()
					m.open()
				case "close":
					if err := m.db.Close(); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					m.head = nil
					m.open()
				}
				m.check(when)
			}
			t.Logf("%d steps, %d comparisons, %d readings", len(script), m.checks, m.ref.TotalReadings())
		})
	}
}

// TestFailedFlushDoesNotStallReaders is the regression test for the
// query blackout a failed flush used to cause: with 4,096 series of
// 1,000 readings sealed and ingest continuing, the segment's rename
// fails. Taking the readings back must cost far less than the segment
// write that failed — it moves none of them when nothing older arrived —
// and no reader may wait for it: both the time from the failure to Flush
// returning and the longest Latest across it are held below the time the
// segment write itself took.
func TestFailedFlushDoesNotStallReaders(t *testing.T) {
	const series, per = 4096, 1000
	var created, failed atomic.Int64 // unix nanos
	fs := &nthFaultFS{FS: tsdb.OSFS, op: "rename", n: 1, count: map[string]int{}}
	fs.during = func(op string) {
		switch op {
		case "create":
			created.Store(time.Now().UnixNano())
		case "rename":
			failed.Store(time.Now().UnixNano())
		}
	}
	db, err := tsdb.Open(t.TempDir(), tsdb.Options{FS: fs, FlushEvery: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Abandon()
	topics := make([]sensor.Topic, series)
	rs := make([]sensor.Reading, per)
	for i := range topics {
		topics[i] = sensor.Topic(fmt.Sprintf("/r%02d/n%04d/power", i/128, i))
		for k := range rs {
			rs[k] = sensor.Reading{Time: int64(k), Value: float64(i + k)}
		}
		db.InsertBatch(topics[i], rs)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // ingest continues: every series keeps growing
		defer wg.Done()
		for ts := int64(per); !stop.Load(); ts += 10 {
			for _, topic := range topics {
				for k := range rs[:10] {
					rs[k] = sensor.Reading{Time: ts + int64(k), Value: float64(k)}
				}
				db.InsertBatch(topic, rs[:10])
			}
		}
	}()
	var longest time.Duration
	go func() { // a dashboard keeps asking
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			start := time.Now()
			if _, ok := db.Latest(topics[i%series]); !ok {
				t.Errorf("Latest(%s) found nothing", topics[i%series])
				return
			}
			end := time.Now()
			if at := failed.Load(); at != 0 && end.UnixNano() >= at {
				longest = max(longest, end.Sub(start))
			}
		}
	}()
	err = db.Flush()
	returned := time.Now().UnixNano()
	stop.Store(true)
	wg.Wait()
	if err == nil {
		t.Fatal("flush with a failing rename succeeded")
	}
	write := time.Duration(failed.Load() - created.Load())
	back := time.Duration(returned - failed.Load())
	t.Logf("segment write %v, failure to Flush returning %v, longest Latest across it %v", write, back, longest)
	if back >= write {
		t.Errorf("taking %d sealed readings back took %v, the segment write itself %v", series*per, back, write)
	}
	if longest >= write {
		t.Errorf("a Latest waited %v across the failed flush, the segment write itself took %v", longest, write)
	}
	for _, topic := range []sensor.Topic{topics[0], topics[series-1]} {
		if got := db.Range(topic, 0, per-1, nil); len(got) != per {
			t.Errorf("%s holds %d of its %d sealed readings after the failed flush", topic, len(got), per)
		}
	}
}
