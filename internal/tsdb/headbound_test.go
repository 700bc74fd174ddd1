package tsdb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// TestHeadBoundWakesJanitor: maxHeadReadings is enforced between janitor
// passes. With the timer an hour away, the insert that takes the heads
// across the bound gets them flushed; without a janitor (FlushEvery < 0)
// the same inserts flush nothing.
func TestHeadBoundWakesJanitor(t *testing.T) {
	// 64 topics × 8 bursts × 8,192 readings = maxHeadReadings exactly: the
	// last burst is the one that crosses.
	const topics, bursts, per = 64, 8, 8192
	fill := func(db *DB) {
		bs := make([]store.Batch, topics)
		for i := range bs {
			bs[i] = store.Batch{Topic: sensor.Topic(fmt.Sprintf("/r%02d/power", i)), Readings: make([]sensor.Reading, per)}
		}
		for b := 0; b < bursts; b++ {
			for _, batch := range bs {
				for k := range batch.Readings {
					batch.Readings[k] = sensor.Reading{Time: int64(b*per + k), Value: 1}
				}
			}
			if b == bursts-1 {
				if st := db.Stats(); st.Segments != 0 || st.HeadReadings != (bursts-1)*topics*per {
					t.Fatalf("below the bound: %d segments, %d head readings", st.Segments, st.HeadReadings)
				}
			}
			db.InsertBatches(bs)
		}
	}
	if topics*bursts*per != maxHeadReadings {
		t.Fatalf("the script inserts %d readings, the bound is %d", topics*bursts*per, maxHeadReadings)
	}

	t.Run("janitor", func(t *testing.T) {
		db, err := Open(t.TempDir(), Options{FlushEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		fill(db)
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
			if st := db.Stats(); st.Segments == 1 && st.HeadReadings == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("a minute after crossing the bound: %+v", db.Stats())
			}
		}
		if got := db.TotalReadings(); got != maxHeadReadings {
			t.Fatalf("TotalReadings = %d after the flush, want %d", got, maxHeadReadings)
		}
	})
	t.Run("no janitor", func(t *testing.T) {
		db := openTest(t, t.TempDir(), Options{})
		defer db.Abandon()
		fill(db)
		db.InsertBatch("/r00/power", []sensor.Reading{{Time: bursts * per, Value: 1}})
		if st := db.Stats(); st.Segments != 0 || st.HeadReadings != maxHeadReadings+1 {
			t.Fatalf("FlushEvery < 0 and something flushed: %+v", st)
		}
	})
}

// segCreateFS runs a hook at every segment-file Create, i.e. on the
// flushing goroutine after the heads are sealed and ingest is readmitted;
// an error from the hook fails the Create.
type segCreateFS struct {
	FS
	hook func() error
}

func (f *segCreateFS) Create(name string) (File, error) {
	if f.hook != nil && strings.HasSuffix(name, ".seg.tmp") {
		if err := f.hook(); err != nil {
			return nil, err
		}
	}
	return f.FS.Create(name)
}

// array identifies a run's backing array.
func array(rs []sensor.Reading) *sensor.Reading {
	if cap(rs) == 0 {
		return nil
	}
	return &rs[:1][0]
}

// TestHeadBuffersRecycled: a head alternates between two arrays — the
// run a flush wrote becomes the spare the next seal hands to data — so
// inserting into a warm head allocates nothing; an array much larger
// than what a cycle used is given up; and no array is ever reachable
// from two runs, whichever way a flush ends.
func TestHeadBuffersRecycled(t *testing.T) {
	fs := &segCreateFS{FS: OSFS}
	db := openTest(t, t.TempDir(), Options{FS: fs})
	defer db.Abandon()
	next := map[sensor.Topic]int64{}
	ref := map[sensor.Topic][]sensor.Reading{}
	put := func(topic sensor.Topic, rs ...sensor.Reading) {
		db.InsertBatch(topic, rs)
		ref[topic] = append(ref[topic], rs...)
	}
	inOrder := func(topic sensor.Topic, n int) {
		rs := make([]sensor.Reading, n)
		for i := range rs {
			rs[i] = sensor.Reading{Time: next[topic], Value: float64(next[topic])}
			next[topic]++
		}
		put(topic, rs...)
	}
	headOf := func(topic sensor.Topic) *head {
		return db.shards[headShardIdx(topic)].heads[topic]
	}
	// cycle is one flush interval of a topic: n readings, then a flush
	// during which one more arrives, so the head is never left empty and
	// stays in its map.
	cycle := func(topic sensor.Topic, n int) {
		t.Helper()
		inOrder(topic, n)
		fs.hook = func() error { inOrder(topic, 1); return nil }
		if err := db.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		fs.hook = nil
	}

	t.Run("warm head allocates nothing", func(t *testing.T) {
		const topic = sensor.Topic("/steady/power")
		cycle(topic, 1000)
		first := array(headOf(topic).spare)
		cycle(topic, 1000)
		h := headOf(topic)
		if array(h.data) != first || first == nil {
			t.Fatalf("after two cycles data does not use the array the first flush wrote")
		}
		if array(h.spare) == nil || array(h.spare) == first {
			t.Fatalf("after two cycles the spare is not the array the second flush wrote")
		}
		batch := make([]sensor.Reading, 400)
		ts := next[topic]
		// Two calls (one warm-up, one measured): 800 readings, inside what
		// either cycle used.
		allocs := testing.AllocsPerRun(1, func() {
			for i := range batch {
				batch[i] = sensor.Reading{Time: ts, Value: float64(ts)}
				ts++
			}
			db.insertHead(topic, batch)
		})
		if allocs != 0 {
			t.Fatalf("an in-order insert into a warm head made %v allocations", allocs)
		}
		db.headN.Add(ts - next[topic]) // insertHead leaves the count to its caller
		for ; next[topic] < ts; next[topic]++ {
			ref[topic] = append(ref[topic], sensor.Reading{Time: next[topic], Value: float64(next[topic])})
		}
	})

	t.Run("oversized spare is dropped", func(t *testing.T) {
		const topic = sensor.Topic("/slowing/power")
		cycle(topic, 1000)
		cycle(topic, 1000)
		if h := headOf(topic); cap(h.data) < 1000 || cap(h.spare) < 1000 {
			t.Fatalf("at the steady rate: cap(data) %d, cap(spare) %d", cap(h.data), cap(h.spare))
		}
		// The rate falls tenfold: the run the next flush writes used a
		// tenth of its array, which is not kept.
		cycle(topic, 100)
		if h := headOf(topic); h.spare != nil {
			t.Fatalf("a run of 101 in an array of %d was kept as the spare", cap(h.spare))
		}
		cycle(topic, 100)
		cycle(topic, 100)
		if h := headOf(topic); cap(h.data)+cap(h.spare) > 2*spareSlack*101 {
			t.Fatalf("three cycles after the rate fell: cap(data) %d, cap(spare) %d", cap(h.data), cap(h.spare))
		}
	})

	t.Run("failed flush aliases nothing", func(t *testing.T) {
		// Four heads meet a failing flush in the four states unseal
		// distinguishes: nothing new, only newer readings, an older one
		// (the merge), and a head created during the flush.
		quiet, newer, older, born := sensor.Topic("/f/quiet"), sensor.Topic("/f/newer"), sensor.Topic("/f/older"), sensor.Topic("/f/born")
		for _, topic := range []sensor.Topic{quiet, newer, older} {
			cycle(topic, 200)
			cycle(topic, 200)
		}
		fs.hook = func() error {
			inOrder(newer, 50)
			put(older, sensor.Reading{Time: 3, Value: -1}, sensor.Reading{Time: next[older] - 1, Value: -2})
			inOrder(born, 5)
			return errors.New("injected")
		}
		if err := db.Flush(); err == nil {
			t.Fatal("Flush with a failing segment create succeeded")
		}
		owner := map[*sensor.Reading]string{}
		for i := range db.shards {
			for topic, h := range db.shards[i].heads {
				if h.sealed != nil {
					t.Fatalf("%s still sealed after the failed flush", topic)
				}
				for name, run := range map[string][]sensor.Reading{"data": h.data, "spare": h.spare} {
					if a := array(run); a != nil {
						if prev, dup := owner[a]; dup {
							t.Fatalf("%s.%s and %s share an array", topic, name, prev)
						}
						owner[a] = fmt.Sprintf("%s.%s", topic, name)
					}
				}
			}
		}
		// The next flush succeeds with inserts landing in whatever each
		// seal handed to data; every series reads back whole, from the
		// heads and from the segments.
		for _, topic := range []sensor.Topic{quiet, newer, older, born} {
			cycle(topic, 30)
		}
	})

	for topic, want := range ref {
		got := db.Range(topic, 0, next[topic], nil)
		// The reference is in arrival order; the one late pair of /f/older
		// sorts in behind its equal timestamps.
		sorted := append([]sensor.Reading(nil), want...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
		if len(got) != len(sorted) {
			t.Fatalf("%s: %d readings, want %d", topic, len(got), len(sorted))
		}
		for i := range got {
			if got[i] != sorted[i] {
				t.Fatalf("%s[%d] = %+v, want %+v", topic, i, got[i], sorted[i])
			}
		}
	}
}
