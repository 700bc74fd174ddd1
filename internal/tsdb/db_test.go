package tsdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
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

// TestReadsWholeAcrossFlushAndPrune runs every kind of read while one
// writer inserts /x with value i at i s, flushes every 100 readings and
// prunes behind itself, so whole segments expire and are deleted under
// the readers. What is live is always one contiguous run, so each answer
// checks itself: no gap, no duplicate, a start at a retention floor and
// an end no earlier than what was inserted before the read began.
//
// Every other flush and prune starts inside a read, at the seam between
// its two tiers, and the reads take those turns in order: a read that
// let go of db.mu between its tiers fails at its first turn.
func TestReadsWholeAcrossFlushAndPrune(t *testing.T) {
	// Twice as many Ps as CPUs: the OS then preempts a reader at any
	// instruction, not only where the Go scheduler does, so flushes land
	// inside reads far more often.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2 * runtime.NumCPU()))
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	// Every cutoff, i+1-trail after the flush of reading i, lies
	// flushEvery/2 s past a flush boundary.
	const total, flushEvery, trail, step = 4000, 100, 250, 30
	// The writer publishes the readings inserted and the prune cutoff, in
	// seconds, as each call begins and once it is done. A read must match
	// some instant between the done values before it and the begun values
	// after it.
	type state struct{ cut, ins int64 }
	var cutBegun, cutDone, insBegun, insDone atomic.Int64
	done := func() state { return state{cutDone.Load(), insDone.Load()} }
	begun := func() state { return state{cutBegun.Load(), insBegun.Load()} }
	put := func(i int64) {
		insBegun.Store(i + 1)
		db.InsertBatch("/x", []sensor.Reading{{Value: float64(i), Time: i * sec}})
		insDone.Store(i + 1)
	}
	// whole says why the run [first, last] was never live between b and
	// e, or "" if it was.
	whole := func(first, last int64, b, e state) string {
		if first < b.cut || first > e.cut || (first != 0 && first%flushEvery != flushEvery/2) {
			return fmt.Sprintf("starts at %d s, not at a retention floor in [%d, %d]", first, b.cut, e.cut)
		}
		if last+1 < b.ins || last+1 > e.ins {
			return fmt.Sprintf("ends at %d s, want in [%d, %d)", last, b.ins-1, e.ins)
		}
		return ""
	}
	// contiguous says why a holds no contiguous run of values, or "".
	contiguous := func(a store.AggResult) string {
		if a.Count == 0 || a.Max-a.Min+1 != float64(a.Count) || a.Sum != (a.Min+a.Max)*float64(a.Count)/2 {
			return fmt.Sprintf("%+v is no contiguous run", a)
		}
		return ""
	}
	// counted says why n was never the live count between b and e, or "".
	counted := func(n int, b, e state) string {
		if lo, hi := b.ins-e.cut, e.ins-b.cut; int64(n) < lo || int64(n) > hi {
			return fmt.Sprintf("= %d, want in [%d, %d]", n, lo, hi)
		}
		return ""
	}
	newest := int64(-1) // touched by the Latest reader alone
	reads := map[string]func(b state) string{
		"Range": func(b state) string {
			rs := db.Range("/x", 0, total*sec, nil)
			e := begun()
			if len(rs) == 0 {
				return "is empty"
			}
			for j, r := range rs {
				if r.Time != rs[0].Time+int64(j)*sec || r.Value != float64(r.Time/sec) {
					return fmt.Sprintf("has %v at %d s as reading %d of a run from %d s", r.Value, r.Time/sec, j, rs[0].Time/sec)
				}
			}
			return whole(rs[0].Time/sec, rs[len(rs)-1].Time/sec, b, e)
		},
		"Aggregate": func(b state) string {
			a := db.Aggregate("/x", 0, total*sec)
			e := begun()
			if msg := contiguous(a); msg != "" {
				return msg
			}
			return whole(int64(a.Min), int64(a.Max), b, e)
		},
		"Downsample": func(b state) string {
			bs := db.Downsample("/x", 0, total*sec, step*sec, nil)
			e := begun()
			if len(bs) == 0 {
				return "is empty"
			}
			for j, bk := range bs {
				if msg := contiguous(bk.AggResult); msg != "" {
					return fmt.Sprintf("bucket at %d s: %s", bk.Start/sec, msg)
				}
				if int64(bk.Min)*sec < bk.Start || int64(bk.Max)*sec >= bk.Start+step*sec {
					return fmt.Sprintf("bucket at %d s holds %v..%v", bk.Start/sec, bk.Min, bk.Max)
				}
				if j > 0 && (bk.Start != bs[j-1].Start+step*sec || bk.Min != bs[j-1].Max+1) {
					return fmt.Sprintf("bucket at %d s (from %v) does not follow the one at %d s (to %v)", bk.Start/sec, bk.Min, bs[j-1].Start/sec, bs[j-1].Max)
				}
			}
			return whole(int64(bs[0].Min), int64(bs[len(bs)-1].Max), b, e)
		},
		"Count": func(b state) string {
			n := db.Count("/x")
			return counted(n, b, begun())
		},
		"TotalReadings": func(b state) string {
			n := db.TotalReadings()
			return counted(n, b, begun())
		},
		"Latest": func(b state) string {
			r, ok := db.Latest("/x")
			e := begun()
			if !ok || r.Value != float64(r.Time/sec) || r.Time/sec < newest {
				return fmt.Sprintf("= %+v, %v after %d s", r, ok, newest)
			}
			newest = r.Time / sec
			if newest+1 < b.ins || newest+1 > e.ins {
				return fmt.Sprintf("is at %d s, want in [%d, %d)", newest, b.ins-1, e.ins)
			}
			return ""
		},
		"Topics": func(state) string {
			if ts := db.Topics(); len(ts) != 1 || ts[0] != "/x" {
				return fmt.Sprintf("= %v", ts)
			}
			return ""
		},
		"TopicsPrefix": func(state) string {
			if ts := db.TopicsPrefix("/"); len(ts) != 1 || ts[0] != "/x" {
				return fmt.Sprintf("= %v", ts)
			}
			return ""
		},
		"Stats": func(b state) string {
			st := db.Stats()
			if st.Topics != 1 {
				return fmt.Sprintf("counts %d topics", st.Topics)
			}
			// Every live segment holds flushEvery readings, but the oldest
			// may be cut in half by the floor.
			if st.TotalReadings < flushEvery*st.Segments-flushEvery/2 {
				return fmt.Sprintf("counts %d readings in %d segments", st.TotalReadings, st.Segments)
			}
			return counted(st.TotalReadings, b, begun())
		},
	}
	flushAndPrune := func(i int64) error {
		if err := db.Flush(); err != nil {
			return err
		}
		if cut := i + 1 - trail; cut > 0 {
			cutBegun.Store(cut)
			db.Prune(cut * sec)
			cutDone.Store(cut)
		}
		return nil
	}
	names := make([]string, 0, len(reads))
	for name := range reads {
		names = append(names, name)
	}
	sort.Strings(names)
	// A read at its turn holds gate alone, so the seam fires in that read
	// and no other. The seam starts the flush and prune on a goroutine of
	// their own and returns once they are done or one of them waits for
	// db.mu: a read that holds db.mu throughout finds neither between its
	// tiers, while one that let go of it finds both.
	var (
		gate    sync.RWMutex
		turn    atomic.Int64 // 1 + the index in names of the read whose turn it is, 0 for none
		armed   atomic.Bool
		seamAt  int64 // the reading the turn's flush follows, set before turn
		seamRan = make(chan error, 1)
	)
	runSeam := func() <-chan struct{} {
		ran := make(chan struct{})
		go func() {
			seamRan <- flushAndPrune(seamAt)
			close(ran)
		}()
		return ran
	}
	db.setSeam(func() {
		if !armed.CompareAndSwap(true, false) {
			return
		}
		ran := runSeam()
		for {
			select {
			case <-ran:
				return
			default:
			}
			if !db.mu.TryRLock() {
				return // a writer waits for db.mu
			}
			db.mu.RUnlock()
			runtime.Gosched()
		}
	})

	put(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for k, name := range names {
		read := reads[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				var msg string
				if turn.CompareAndSwap(int64(k+1), 0) {
					gate.Lock()
					armed.Store(true)
					msg = read(done())
					if armed.Swap(false) {
						runSeam() // a read with one tier
					}
					gate.Unlock()
				} else {
					gate.RLock()
					msg = read(done())
					gate.RUnlock()
				}
				if msg != "" && !failed {
					failed = true
					t.Errorf("%s %s", name, msg)
				}
			}
		}()
	}
	for i := int64(1); i < total; i++ {
		put(i)
		if (i+1)%flushEvery != 0 {
			continue
		}
		var err error
		if n := (i + 1) / flushEvery; n%2 == 0 {
			seamAt = i
			turn.Store(n/2%int64(len(names)) + 1)
			err = <-seamRan
		} else {
			err = flushAndPrune(i)
		}
		if err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	// The last cutoff, 3750 s, leaves three of the forty segments.
	if n := db.Stats().Segments; n != 3 {
		t.Fatalf("%d segments left, want 3", n)
	}
}

// segReadFS runs hook, once, at the next read from a segment file.
type segReadFS struct {
	FS
	hook func()
}

func (f *segReadFS) Open(name string) (File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return hookedReads{file, f}, nil
}

type hookedReads struct {
	File
	fs *segReadFS
}

func (r hookedReads) ReadAt(p []byte, off int64) (int, error) {
	if hook := r.fs.hook; hook != nil {
		r.fs.hook = nil
		hook()
	}
	return r.File.ReadAt(p, off)
}

// TestPruneIsOneStepForReads: reads that run while Prune decodes the
// chunk its cutoff cuts through see the prune wholly before or wholly
// after it, so TotalReadings, Count and Range agree.
func TestPruneIsOneStepForReads(t *testing.T) {
	fs := &segReadFS{FS: OSFS}
	db := openTest(t, t.TempDir(), Options{FS: fs})
	defer db.Close()
	rs := make([]sensor.Reading, 1000)
	for i := range rs {
		rs[i] = sensor.Reading{Value: float64(i), Time: int64(i) * sec}
	}
	db.InsertBatch("/x", rs)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	ran := false
	fs.hook = func() {
		ran = true
		total, count, n := db.TotalReadings(), db.Count("/x"), len(db.Range("/x", 0, 1000*sec, nil))
		if total != count || count != n {
			t.Errorf("during Prune: TotalReadings %d, Count %d, Range %d readings", total, count, n)
		}
	}
	if removed := db.Prune(500 * sec); removed != 500 {
		t.Fatalf("Prune removed %d readings, want 500", removed)
	}
	if !ran {
		t.Fatal("Prune decoded no chunk")
	}
}

// headCount returns how many heads the shard maps hold.
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

// TestWindowBelowRetentionFloor: a reading that arrives below the
// retention floor after a prune stays in its head until the next prune.
// A window wholly below the floor that ends before that reading answers
// empty. The head used to slice its run out of range there — with the
// shard's read lock held, so the panic also wedged every later insert
// into the shard.
func TestWindowBelowRetentionFloor(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	db.InsertBatch("/late", []sensor.Reading{{Value: 1, Time: 250 * sec}})
	db.Prune(200 * sec)
	db.InsertBatch("/late", []sensor.Reading{{Value: 2, Time: 150 * sec}})
	if got := db.Range("/late", 0, 100*sec, nil); len(got) != 0 {
		t.Fatalf("Range below the floor = %v", got)
	}
	if a := db.Aggregate("/late", 0, 100*sec); a.Count != 0 {
		t.Fatalf("Aggregate below the floor = %+v", a)
	}
	if b := db.Downsample("/late", 0, 100*sec, 10*sec, nil); len(b) != 0 {
		t.Fatalf("Downsample below the floor = %v", b)
	}
	if got := db.Range("/late", 0, 300*sec, nil); len(got) != 1 || got[0].Time != 250*sec {
		t.Fatalf("Range across the floor = %v, want the reading at 250 s", got)
	}
}
