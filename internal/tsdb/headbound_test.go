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

// array identifies a block's backing array.
func array(rs []sensor.Reading) *sensor.Reading {
	if cap(rs) == 0 {
		return nil
	}
	return &rs[:1][0]
}

// TestHeadBuffersRecycled: the blocks a flush wrote go to their shard's
// free list and the next inserts fill them, so inserting into a warm
// head allocates nothing; blocks a slower rate no longer fills are given
// back; and no block is ever reachable from two runs, or from a run and
// a free list, whichever way a flush ends.
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
		cycle(topic, 1000)
		batch := make([]sensor.Reading, 400)
		ts := next[topic]
		// Two calls (one warm-up, one measured): 800 readings, more than
		// a block, inside what either cycle used.
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

	t.Run("flushed block is reused", func(t *testing.T) {
		const topic = sensor.Topic("/reuse/power")
		inOrder(topic, 1000)
		flushed := map[*sensor.Reading]bool{}
		for _, b := range headOf(topic).blocks {
			flushed[array(b)] = true
		}
		fs.hook = func() error { inOrder(topic, 1); return nil }
		if err := db.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		fs.hook = nil
		inOrder(topic, 1000)
		reused := 0
		for _, b := range headOf(topic).blocks {
			if flushed[array(b)] {
				reused++
			}
		}
		if reused == 0 {
			t.Fatalf("none of the %d blocks the flush wrote took the next readings", len(flushed))
		}
	})

	t.Run("slower rate frees blocks", func(t *testing.T) {
		// A topic alone in its shard, so the shard's free list is its own.
		used := map[uint32]bool{}
		for _, other := range []sensor.Topic{"/steady/power", "/reuse/power", "/f/quiet", "/f/newer", "/f/older", "/f/born"} {
			used[headShardIdx(other)] = true
		}
		topic := sensor.Topic("/slowing/power")
		for i := 0; used[headShardIdx(topic)]; i++ {
			topic = sensor.Topic(fmt.Sprintf("/slowing%d/power", i))
		}
		sh := &db.shards[headShardIdx(topic)]
		cycle(topic, 2000)
		cycle(topic, 2000)
		if len(sh.free) < 3 {
			t.Fatalf("at 2,000 readings a cycle the free list holds %d blocks", len(sh.free))
		}
		// The rate falls fivefold: a cycle fits in one block, so the
		// series is sparse now. The blocks the fast cycles left on the
		// free list are given back at the next registration, and the
		// one full-size block a slow cycle fills is not kept.
		cycle(topic, 400)
		cycle(topic, 400)
		if len(sh.free) != 0 {
			t.Fatalf("two cycles after the rate fell the free list holds %d blocks", len(sh.free))
		}
		if n := len(headOf(topic).blocks); n != 1 {
			t.Fatalf("a head of a few readings holds %d blocks", n)
		}
	})

	t.Run("failed flush aliases nothing", func(t *testing.T) {
		// Four heads meet a failing flush in the four states unseal
		// distinguishes: nothing new, only newer readings, an older one
		// (the readings move back into the sealed run), and a head
		// created during the flush.
		quiet, newer, older, born := sensor.Topic("/f/quiet"), sensor.Topic("/f/newer"), sensor.Topic("/f/older"), sensor.Topic("/f/born")
		for _, topic := range []sensor.Topic{quiet, newer, older} {
			cycle(topic, 700)
			cycle(topic, 700)
		}
		fs.hook = func() error {
			inOrder(newer, 50)
			put(older, sensor.Reading{Time: 3, Value: -1}, sensor.Reading{Time: next[older] - 1, Value: -2})
			inOrder(older, 600)
			inOrder(born, 5)
			return errors.New("injected")
		}
		if err := db.Flush(); err == nil {
			t.Fatal("Flush with a failing segment create succeeded")
		}
		owner := map[*sensor.Reading]string{}
		claim := func(b []sensor.Reading, who string) {
			if a := array(b); a != nil {
				if prev, dup := owner[a]; dup {
					t.Fatalf("%s and %s share a block", who, prev)
				}
				owner[a] = who
			}
		}
		for i := range db.shards {
			sh := &db.shards[i]
			for topic, h := range sh.heads {
				if h.nsealed != 0 {
					t.Fatalf("%s still sealed after the failed flush", topic)
				}
				for k, b := range h.blocks {
					claim(b, fmt.Sprintf("%s block %d", topic, k))
				}
			}
			for k, b := range sh.free {
				claim(b, fmt.Sprintf("shard %d free block %d", i, k))
			}
		}
		// The next flush succeeds with inserts landing in whatever blocks
		// the failed one left; every series reads back whole, from the
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
