// Fault-path tests: a real database on a chaos filesystem, verifying
// the WAL and segment error contracts the chaos harness relies on —
// no insert is ever dropped in-process, torn WAL tails recover to a
// clean prefix, and failed flushes leave the heads their data. External
// test package: internal/chaos imports tsdb, so these live outside the
// tsdb package proper.
package tsdb_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/chaos"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/testseed"
	"github.com/dcdb/wintermute/internal/tsdb"
)

// fill inserts n sequential readings for topic starting at timestamp
// from, value == timestamp, and returns the next free timestamp.
func fill(db *tsdb.DB, topic sensor.Topic, from int64, n int) int64 {
	rs := make([]sensor.Reading, n)
	for i := range rs {
		rs[i] = sensor.Reading{Time: from + int64(i), Value: float64(from + int64(i))}
	}
	db.InsertBatch(topic, rs)
	return from + int64(n)
}

// expectRange asserts the topic holds exactly the readings [0, upto)
// with value == timestamp.
func expectRange(t *testing.T, db *tsdb.DB, topic sensor.Topic, upto int64) {
	t.Helper()
	got := db.Range(topic, 0, upto+1, nil)
	if len(got) != int(upto) {
		t.Fatalf("range returned %d readings, want %d", len(got), upto)
	}
	for i, r := range got {
		if r.Time != int64(i) || r.Value != float64(i) {
			t.Fatalf("reading %d = {t:%d v:%g}, want {t:%d v:%d}", i, r.Time, r.Value, i, i)
		}
	}
}

// TestWALDegradeServesFromMemory: a failing WAL fsync must degrade the
// log (Stats reports it) without losing a single in-process reading and
// append nothing more to the log until a successful flush re-arms it,
// after which a kill and reopen recover every reading. With several
// writers the failing fsync is one they share.
func TestWALDegradeServesFromMemory(t *testing.T) {
	for _, writers := range []int{1, 8} {
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			dir := t.TempDir()
			fs := chaos.NewFS(nil, testseed.Seed(t))
			db, err := tsdb.Open(dir, tsdb.Options{FS: fs, WALSync: true})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			topics := make([]sensor.Topic, writers)
			for i := range topics {
				topics[i] = sensor.Topic(fmt.Sprintf("/n%02d/power", i))
			}
			next := int64(0)
			// fillAll has every writer insert the next n readings of its
			// own topic, all at once.
			fillAll := func(n int) {
				var wg sync.WaitGroup
				for _, topic := range topics {
					wg.Add(1)
					go func() {
						defer wg.Done()
						fill(db, topic, next, n)
					}()
				}
				wg.Wait()
				next += int64(n)
			}
			expectAll := func(db *tsdb.DB, when string) {
				t.Helper()
				for _, topic := range topics {
					if got := db.Count(topic); got != int(next) {
						t.Fatalf("%s: %s holds %d readings, want %d", when, topic, got, next)
					}
					expectRange(t, db, topic, next)
				}
			}
			fillAll(100)

			fs.Set(chaos.OpSync, chaos.ClassWAL, chaos.Fault{P: 1})
			fillAll(100) // fails the fsync, degrades the WAL
			fs.Clear(chaos.OpSync, chaos.ClassWAL)
			walBytes := db.Stats().WALBytes
			fillAll(100) // appended while degraded: memory only

			st := db.Stats()
			if !strings.Contains(st.Error, "WAL degraded") {
				t.Fatalf("stats after fsync failure = %q, want WAL degraded", st.Error)
			}
			if st.WALBytes != walBytes {
				t.Fatalf("the WAL grew from %d to %d bytes while degraded", walBytes, st.WALBytes)
			}
			expectAll(db, "degraded") // nothing lost in-process

			if err := db.Flush(); err != nil {
				t.Fatalf("flush after clearing fault: %v", err)
			}
			if st := db.Stats(); st.Error != "" {
				t.Fatalf("stats after successful flush = %q, want re-armed (empty)", st.Error)
			}
			// Nothing has been synced since the failure; the next rotation
			// must not wait for the writes it left unsynced.
			if err := db.Flush(); err != nil {
				t.Fatalf("second flush: %v", err)
			}
			fillAll(100) // logged again on the fresh WAL
			expectAll(db, "re-armed")
			db.Abandon() // a kill: what the flush did not cover, the WAL must

			re, err := tsdb.Open(dir, tsdb.Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			expectAll(re, "reopened")
		})
	}
}

// TestTornWALRecoversCleanPrefix: a torn append (half the record
// persisted) must degrade the WAL immediately — later appends are
// suspended rather than written after the tear, where replay would
// silently drop them — and recovery must replay the clean prefix
// without error or corruption.
func TestTornWALRecoversCleanPrefix(t *testing.T) {
	dir := t.TempDir()
	fs := chaos.NewFS(nil, testseed.Seed(t))
	db, err := tsdb.Open(dir, tsdb.Options{FS: fs, WALSync: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	topic := sensor.Topic("/n01/power")
	next := fill(db, topic, 0, 200)

	fs.Set(chaos.OpWrite, chaos.ClassWAL, chaos.Fault{P: 1, Partial: true})
	next = fill(db, topic, next, 50) // torn mid-record on disk
	fs.Clear(chaos.OpWrite, chaos.ClassWAL)
	fill(db, topic, next, 50) // suspended: memory only, never after the tear

	db.Abandon() // simulated crash: no final flush

	re, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		t.Fatalf("reopen after torn WAL: %v", err)
	}
	defer re.Close()
	got := re.Range(topic, 0, int64(next)+100, nil)
	if len(got) != 200 {
		t.Fatalf("recovered %d readings, want exactly the 200 clean-prefix ones", len(got))
	}
	for i, r := range got {
		if r.Time != int64(i) || r.Value != float64(i) {
			t.Fatalf("recovered reading %d = {t:%d v:%g}: corrupt replay past the tear", i, r.Time, r.Value)
		}
	}
}

// TestSegmentWriteFailureKeepsData: a failed segment write must abort
// the flush, leave the heads their readings (queries keep answering) and
// retain the retired WAL for recovery; a retried flush succeeds.
func TestSegmentWriteFailureKeepsData(t *testing.T) {
	dir := t.TempDir()
	fs := chaos.NewFS(nil, testseed.Seed(t))
	db, err := tsdb.Open(dir, tsdb.Options{FS: fs, WALSync: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	topic := sensor.Topic("/n01/power")
	next := fill(db, topic, 0, 300)

	fs.Set(chaos.OpCreate, chaos.ClassSeg, chaos.Fault{P: 1})
	fs.Set(chaos.OpWrite, chaos.ClassSeg, chaos.Fault{P: 1})
	if err := db.Flush(); err == nil {
		t.Fatal("flush under segment faults succeeded, want error")
	}
	expectRange(t, db, topic, next) // unsealed heads still serve

	fs.Clear(chaos.OpCreate, chaos.ClassSeg)
	fs.Clear(chaos.OpWrite, chaos.ClassSeg)
	if err := db.Flush(); err != nil {
		t.Fatalf("retried flush: %v", err)
	}
	if st := db.Stats(); st.Segments == 0 {
		t.Fatal("retried flush produced no segment")
	}
	expectRange(t, db, topic, next)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	expectRange(t, re, topic, next)
}

// TestSegmentFailureThenCrashRecoversFromWAL: when the flush fails AND
// the process dies before retrying, the retired WAL files — deliberately
// kept on flush failure — must carry the data into the next life.
func TestSegmentFailureThenCrashRecoversFromWAL(t *testing.T) {
	dir := t.TempDir()
	fs := chaos.NewFS(nil, testseed.Seed(t))
	db, err := tsdb.Open(dir, tsdb.Options{FS: fs, WALSync: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	topic := sensor.Topic("/n01/power")
	next := fill(db, topic, 0, 300)

	fs.Set(chaos.OpRename, chaos.ClassSeg, chaos.Fault{P: 1})
	if err := db.Flush(); err == nil {
		t.Fatal("flush under rename fault succeeded, want error")
	}
	db.Abandon() // crash before any retry

	re, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	expectRange(t, re, topic, next)
}

// TestDiskFullDegradesAndRearms: ENOSPC on the WAL and on segment
// writes must ride the same degradation machinery as any write failure —
// serve from memory, sticky errors in Stats, zero in-process loss — and
// a flush after space returns must re-arm everything.
func TestDiskFullDegradesAndRearms(t *testing.T) {
	fs := chaos.NewFS(nil, testseed.Seed(t))
	reg := telemetry.NewRegistry()
	db, err := tsdb.Open(t.TempDir(), tsdb.Options{FS: fs, WALSync: true, Metrics: reg})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	topic := sensor.Topic("/n01/power")
	next := fill(db, topic, 0, 100)

	// The disk fills: WAL appends and segment writes all return ENOSPC.
	full := chaos.Fault{P: 1, Err: syscall.ENOSPC}
	fs.Set(chaos.OpWrite, chaos.ClassWAL, full)
	fs.Set(chaos.OpCreate, chaos.ClassSeg, full)
	fs.Set(chaos.OpWrite, chaos.ClassSeg, full)

	next = fill(db, topic, next, 100) // degrades the WAL, memory-only
	st := db.Stats()
	if !strings.Contains(st.Error, "WAL degraded") || !strings.Contains(st.Error, "no space left") {
		t.Fatalf("stats under ENOSPC = %q, want WAL degraded with ENOSPC", st.Error)
	}
	if err := db.Flush(); err == nil {
		t.Fatal("flush on a full disk succeeded, want error")
	}
	if st := db.Stats(); !strings.Contains(st.Error, "last flush failed") {
		t.Fatalf("stats after failed flush = %q, want sticky flush error", st.Error)
	}
	if v, _ := reg.Value("dcdb_tsdb_flush_failures_total"); v < 1 {
		t.Fatalf("flush failures counter = %v, want >= 1", v)
	}
	if v, _ := reg.Value("dcdb_tsdb_wal_degrade_episodes_total"); v < 1 {
		t.Fatalf("wal degrade episodes counter = %v, want >= 1", v)
	}
	expectRange(t, db, topic, next) // nothing lost while degraded

	// Space returns: the next flush covers everything with a segment and
	// both sticky errors clear.
	fs.ClearAll()
	if err := db.Flush(); err != nil {
		t.Fatalf("flush after space returned: %v", err)
	}
	if st := db.Stats(); st.Error != "" {
		t.Fatalf("stats after recovery = %q, want clean", st.Error)
	}
	next = fill(db, topic, next, 100)
	expectRange(t, db, topic, next)
}

// TestFsyncStallBlocksButCommits: a stalled fsync must delay the group
// commit, not corrupt or drop it.
func TestFsyncStallBlocksButCommits(t *testing.T) {
	dir := t.TempDir()
	fs := chaos.NewFS(nil, testseed.Seed(t))
	db, err := tsdb.Open(dir, tsdb.Options{FS: fs, WALSync: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	topic := sensor.Topic("/n01/power")
	fs.Set(chaos.OpSync, chaos.ClassWAL, chaos.Fault{P: 1, Stall: 50 * time.Millisecond, StallOnly: true})
	t0 := time.Now()
	next := fill(db, topic, 0, 10)
	if d := time.Since(t0); d < 50*time.Millisecond {
		t.Fatalf("stalled group commit returned after %v, want >= 50ms", d)
	}
	fs.Clear(chaos.OpSync, chaos.ClassWAL)
	db.Abandon() // data must already be durable in the WAL

	re, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	expectRange(t, re, topic, next)
}

// nthFaultFS fails the n-th occurrence of one operation on the segment
// directory's files — a Write or Sync on an open segment file, or a
// Create, Rename or SyncDir — and counts every occurrence, so a clean
// run tells how many there are to fail. during, when set, runs at every
// occurrence before its outcome is decided: on the flushing goroutine,
// in the middle of the segment write.
type nthFaultFS struct {
	tsdb.FS
	op     string
	n      int // 1-based occurrence to fail; 0 fails nothing
	count  map[string]int
	during func(op string)
}

func (f *nthFaultFS) hit(op string) error {
	f.count[op]++
	if f.during != nil {
		f.during(op)
	}
	if op == f.op && f.count[op] == f.n {
		return chaos.ErrInjected
	}
	return nil
}

func isSegPath(name string) bool {
	return strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".seg.tmp")
}

func (f *nthFaultFS) Create(name string) (tsdb.File, error) {
	if !isSegPath(name) {
		return f.FS.Create(name)
	}
	if err := f.hit("create"); err != nil {
		return nil, err
	}
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &nthFaultFile{File: file, fs: f}, nil
}

func (f *nthFaultFS) Rename(oldpath, newpath string) error {
	if isSegPath(newpath) {
		if err := f.hit("rename"); err != nil {
			return err
		}
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *nthFaultFS) SyncDir(name string) error {
	if strings.HasSuffix(name, "seg") {
		if err := f.hit("syncdir"); err != nil {
			return err
		}
	}
	return f.FS.SyncDir(name)
}

type nthFaultFile struct {
	tsdb.File
	fs *nthFaultFS
}

func (f *nthFaultFile) Write(p []byte) (int, error) {
	if err := f.fs.hit("write"); err != nil {
		n, _ := f.File.Write(p[:len(p)/2]) // a torn write, as a full disk leaves it
		return n, err
	}
	return f.File.Write(p)
}

func (f *nthFaultFile) Sync() error {
	if err := f.fs.hit("sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestSegmentWriterFailsCleanAtEveryStep: the streamed segment writer
// makes several writes per segment, so it can fail with part of the
// file on disk. Whichever step fails — Create, the k-th Write for every
// k, Sync, Rename, SyncDir — the flush reports it, no .tmp and no
// segment survives, the heads are restored whole, and the next flush
// lands every reading exactly once, in memory and after a reopen.
func TestSegmentWriterFailsCleanAtEveryStep(t *testing.T) {
	topics := []sensor.Topic{"/n01/power", "/n02/power", "/n03/power"}
	const perTopic = 40_000
	// Values are a scramble of the timestamp: checkable, and too random
	// for the codec to shrink, so the segment spans several writes.
	value := func(ts int64) float64 { return float64(uint64(ts) * 0x9E3779B97F4A7C15 >> 11) }
	load := func(db *tsdb.DB) {
		rs := make([]sensor.Reading, 1000)
		for _, topic := range topics {
			for from := int64(0); from < perTopic; from += int64(len(rs)) {
				for i := range rs {
					rs[i] = sensor.Reading{Time: from + int64(i), Value: value(from + int64(i))}
				}
				db.InsertBatch(topic, rs)
			}
		}
	}
	expectAllOnce := func(db *tsdb.DB, when string) {
		t.Helper()
		for _, topic := range topics {
			got := db.Range(topic, 0, perTopic, nil)
			if len(got) != perTopic {
				t.Fatalf("%s: %s holds %d readings, want %d", when, topic, len(got), perTopic)
			}
			for i, r := range got {
				if r.Time != int64(i) || r.Value != value(int64(i)) {
					t.Fatalf("%s: %s reading %d = {t:%d v:%g}: lost, duplicated or corrupt", when, topic, i, r.Time, r.Value)
				}
			}
		}
	}
	run := func(op string, n int) map[string]int {
		dir := t.TempDir()
		fs := &nthFaultFS{FS: tsdb.OSFS, op: op, n: n, count: map[string]int{}}
		db, err := tsdb.Open(dir, tsdb.Options{FS: fs, FlushEvery: -1})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		load(db)
		when := fmt.Sprintf("failing %s #%d", op, n)
		if n > 0 {
			if err := db.Flush(); err == nil {
				t.Fatalf("%s: flush succeeded", when)
			}
			left, _ := filepath.Glob(filepath.Join(dir, "seg", "*"))
			if len(left) != 0 || db.Stats().Segments != 0 {
				t.Fatalf("%s: the failed flush left %v behind (%d segments registered)", when, left, db.Stats().Segments)
			}
			expectAllOnce(db, when+", heads restored")
		}
		if err := db.Flush(); err != nil {
			t.Fatalf("%s: next flush: %v", when, err)
		}
		if st := db.Stats(); st.Segments != 1 || st.HeadReadings != 0 {
			t.Fatalf("%s: after the next flush %d segments, %d head readings", when, st.Segments, st.HeadReadings)
		}
		expectAllOnce(db, when+", after the next flush")
		if err := db.Close(); err != nil {
			t.Fatalf("%s: close: %v", when, err)
		}
		re, err := tsdb.Open(dir, tsdb.Options{FlushEvery: -1})
		if err != nil {
			t.Fatalf("%s: reopen: %v", when, err)
		}
		defer re.Close()
		expectAllOnce(re, when+", reopened")
		return fs.count
	}
	clean := run("", 0)
	t.Logf("clean flush: %v", clean)
	if clean["write"] < 3 {
		t.Fatalf("a clean flush made %d segment writes: the input no longer spans several", clean["write"])
	}
	for _, op := range []string{"create", "write", "sync", "rename", "syncdir"} {
		if clean[op] == 0 {
			t.Fatalf("a clean flush never reached %s", op)
		}
		for n := 1; n <= clean[op]; n++ {
			run(op, n)
		}
	}
}

// walHookFS runs hooks on the write-ahead log's files: open before every
// OpenFile of one, sync inside every Sync of one (its error fails the
// Sync), write likewise for Write, and syncDir likewise for a SyncDir of
// the WAL directory.
type walHookFS struct {
	tsdb.FS
	open    func()
	sync    func() error
	write   func() error
	syncDir func() error
}

func (f *walHookFS) SyncDir(name string) error {
	if f.syncDir != nil && filepath.Base(name) == "wal" {
		if err := f.syncDir(); err != nil {
			return err
		}
	}
	return f.FS.SyncDir(name)
}

func (f *walHookFS) OpenFile(name string, flag int, perm os.FileMode) (tsdb.File, error) {
	if !strings.HasSuffix(name, ".wal") {
		return f.FS.OpenFile(name, flag, perm)
	}
	if f.open != nil {
		f.open()
	}
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &walHookFile{File: file, fs: f}, nil
}

type walHookFile struct {
	tsdb.File
	fs *walHookFS
}

func (f *walHookFile) Sync() error {
	if f.fs.sync != nil {
		if err := f.fs.sync(); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

func (f *walHookFile) Write(p []byte) (int, error) {
	if f.fs.write != nil {
		if err := f.fs.write(); err != nil {
			return 0, err
		}
	}
	return f.File.Write(p)
}

// exclusiveHoldMax returns the upper bound of the highest bucket of
// dcdb_tsdb_flush_exclusive_seconds that holds an observation, and how
// many observations there are.
func exclusiveHoldMax(reg *telemetry.Registry) (le float64, n uint64) {
	reg.Snapshot(func(s *telemetry.Sample) {
		if s.Name != "dcdb_tsdb_flush_exclusive_seconds" {
			return
		}
		n = s.Count
		prev := uint64(0)
		for _, b := range s.Buckets { // cumulative
			if b.Count > prev {
				le = b.Le
			}
			prev = b.Count
		}
	})
	return le, n
}

// TestFlushHoldsIngestForNoIO: a flush does its file operations with
// ingest admitted. With creating a WAL file and syncing one each taking
// 300 ms, a Flush takes 600 ms and more — and every insert issued
// meanwhile returns within 50 ms, as does the flush's exclusive hold of
// the ingest lock by its own histogram.
func TestFlushHoldsIngestForNoIO(t *testing.T) {
	const stall, limit = 300 * time.Millisecond, 50 * time.Millisecond
	fs := &walHookFS{FS: tsdb.OSFS}
	reg := telemetry.NewRegistry()
	db, err := tsdb.Open(t.TempDir(), tsdb.Options{FS: fs, FlushEvery: -1, Metrics: reg})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	topic := sensor.Topic("/n01/power")
	next := fill(db, topic, 0, 1000)
	fs.open = func() { time.Sleep(stall) }
	fs.sync = func() error { time.Sleep(stall); return nil }

	var stop atomic.Bool
	var inserts int
	var longest time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			start := time.Now()
			next = fill(db, topic, next, 10)
			longest = max(longest, time.Since(start))
			inserts++
			time.Sleep(100 * time.Microsecond)
		}
	}()
	flushStart := time.Now()
	err = db.Flush()
	took := time.Since(flushStart)
	stop.Store(true)
	<-done
	fs.open, fs.sync = nil, nil
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	t.Logf("Flush took %v; %d inserts meanwhile, the longest %v", took, inserts, longest)
	if took < 2*stall {
		t.Fatalf("Flush took %v: the stalls (2 × %v) were not in its path", took, stall)
	}
	if inserts < 100 {
		t.Errorf("only %d inserts completed during a %v flush", inserts, took)
	}
	if longest >= limit {
		t.Errorf("an insert took %v during the flush, limit %v", longest, limit)
	}
	if le, n := exclusiveHoldMax(reg); n != 1 || le >= limit.Seconds() {
		t.Errorf("dcdb_tsdb_flush_exclusive_seconds: %d observations, the largest in the bucket up to %vs; want 1 below %v", n, le, limit)
	}
	expectRange(t, db, topic, next)
}

// TestRetiredWALSyncFailure: the retired WAL file is synced after ingest
// is readmitted, so by the time that sync fails the WAL has already been
// switched and inserts have gone on. The flush must fail as a failed
// segment write does: heads unsealed with arrival order intact, retired
// file kept — so that a crash now recovers everything, or the next flush
// covers everything and retires both files — and a WAL that was degraded
// before the flush degraded again.
func TestRetiredWALSyncFailure(t *testing.T) {
	topic := sensor.Topic("/n01/power")
	// failedFlush leaves a database whose last Flush failed at the retired
	// file's sync, with readings before, during and after it; want is the
	// series in the order readers must return it.
	failedFlush := func(t *testing.T, dir string, degradeFirst bool) (db *tsdb.DB, want []sensor.Reading) {
		fs := &walHookFS{FS: tsdb.OSFS}
		db, err := tsdb.Open(dir, tsdb.Options{FS: fs, FlushEvery: -1})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		put := func(rs ...sensor.Reading) {
			db.InsertBatch(topic, rs)
			want = append(want, rs...)
		}
		for i := int64(0); i < 100; i++ {
			put(sensor.Reading{Time: i, Value: float64(i)})
		}
		if degradeFirst {
			fs.write = func() error { return chaos.ErrInjected }
			put(sensor.Reading{Time: 100, Value: 100})
			fs.write = nil
			if st := db.Stats(); !strings.Contains(st.Error, "WAL degraded") {
				t.Fatalf("stats after a failed WAL write = %q, want WAL degraded", st.Error)
			}
		}
		put(sensor.Reading{Time: 200, Value: 1})
		fs.sync = func() error {
			// Sealed and switched, ingest readmitted: an equal timestamp
			// arrives after the sealed one, and a reading older than the
			// sealed tail forces the merge.
			put(sensor.Reading{Time: 200, Value: 2})
			put(sensor.Reading{Time: 150, Value: 3})
			return chaos.ErrInjected
		}
		if err := db.Flush(); err == nil {
			t.Fatal("Flush succeeded with the retired WAL file's sync failing")
		}
		fs.sync = nil
		put(sensor.Reading{Time: 200, Value: 4})
		sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })
		return db, want
	}
	expect := func(t *testing.T, db *tsdb.DB, when string, want []sensor.Reading) {
		t.Helper()
		if got := db.Range(topic, 0, 1000, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Range = %v\nwant %v", when, got, want)
		}
	}

	t.Run("retry", func(t *testing.T) {
		db, want := failedFlush(t, t.TempDir(), false)
		defer db.Close()
		expect(t, db, "after the failed flush", want)
		st := db.Stats()
		if st.Segments != 0 || st.HeadReadings != len(want) || st.WALFiles != 2 ||
			!strings.Contains(st.Error, "last flush failed") || strings.Contains(st.Error, "WAL degraded") {
			t.Fatalf("after the failed flush: %+v; want no segment, every reading in the heads, the retired and the active WAL file, a flush error only", st)
		}
		if err := db.Flush(); err != nil {
			t.Fatalf("next flush: %v", err)
		}
		if st := db.Stats(); st.Segments != 1 || st.HeadReadings != 0 || st.WALFiles != 1 || st.Error != "" {
			t.Fatalf("after the next flush: %+v; want one segment, empty heads, only the active WAL file, no error", st)
		}
		expect(t, db, "after the next flush", want)
	})
	t.Run("crash", func(t *testing.T) {
		dir := t.TempDir()
		db, want := failedFlush(t, dir, false)
		db.Abandon()
		re, err := tsdb.Open(dir, tsdb.Options{FlushEvery: -1})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		expect(t, re, "recovered from the retired and the active WAL file", want)
	})
	t.Run("degraded stays degraded", func(t *testing.T) {
		db, want := failedFlush(t, t.TempDir(), true)
		defer db.Close()
		if st := db.Stats(); !strings.Contains(st.Error, "WAL degraded") || !strings.Contains(st.Error, "last flush failed") {
			t.Fatalf("stats after the failed flush = %q: the heads hold readings no log has, want WAL degraded and a flush error", st.Error)
		}
		expect(t, db, "after the failed flush", want)
		if err := db.Flush(); err != nil {
			t.Fatalf("next flush: %v", err)
		}
		if st := db.Stats(); st.Error != "" || st.Segments != 1 || st.WALFiles != 1 {
			t.Fatalf("after the next flush: %+v; want re-armed, one segment, only the active WAL file", st)
		}
		expect(t, db, "after the next flush", want)
	})
}

// TestWALDirSyncedBeforeAck: no record in a WAL file is acknowledged
// before the file's directory entry is durable — under WALSync an
// fsynced record must not vanish with its file in an OS crash — for the
// file Open creates and for the one a Flush switches to. A flush whose
// directory sync fails has sealed and switched nothing, and the next one
// succeeds.
func TestWALDirSyncedBeforeAck(t *testing.T) {
	unsynced := false // a WAL file was created, its directory not synced since
	fs := &walHookFS{FS: tsdb.OSFS}
	fs.open = func() { unsynced = true }
	dirSynced := func() error { unsynced = false; return nil }
	fs.syncDir = dirSynced
	db, err := tsdb.Open(t.TempDir(), tsdb.Options{FS: fs, WALSync: true, FlushEvery: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	topic := sensor.Topic("/n01/power")
	next := int64(0)
	ack := func(when string) {
		t.Helper()
		next = fill(db, topic, next, 10)
		if unsynced {
			t.Fatalf("%s: a record was acknowledged in a WAL file whose directory entry was never synced", when)
		}
	}
	ack("after Open")
	if err := db.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	ack("after a flush")

	fs.syncDir = func() error { return chaos.ErrInjected }
	if err := db.Flush(); err == nil {
		t.Fatal("Flush succeeded with the WAL directory sync failing")
	}
	// Appends stay on the file whose entry is synced; the one the failed
	// flush created is not switched to.
	fs.syncDir, unsynced = dirSynced, false
	if st := db.Stats(); st.Segments != 1 || st.HeadReadings != 10 || !strings.Contains(st.Error, "last flush failed") ||
		strings.Contains(st.Error, "WAL degraded") {
		t.Fatalf("after the failed flush: %+v; want the one segment, 10 head readings, a flush error only", st)
	}
	ack("after a failed flush")
	if err := db.Flush(); err != nil {
		t.Fatalf("flush after the directory sync recovered: %v", err)
	}
	if st := db.Stats(); st.Segments != 2 || st.HeadReadings != 0 || st.Error != "" {
		t.Fatalf("after the next flush: %+v; want two segments, empty heads, no error", st)
	}
	expectRange(t, db, topic, next)
}

// segCountFS counts the segment files opened for reading and closed, and
// fails every ReadFile of a WAL file while failWALRead is set.
type segCountFS struct {
	tsdb.FS
	failWALRead    bool
	opened, closed int
}

func (f *segCountFS) Open(name string) (tsdb.File, error) {
	file, err := f.FS.Open(name)
	if err != nil || !strings.HasSuffix(name, ".seg") {
		return file, err
	}
	f.opened++
	return &closeCountFile{File: file, closed: &f.closed}, nil
}

func (f *segCountFS) ReadFile(name string) ([]byte, error) {
	if f.failWALRead && strings.HasSuffix(name, ".wal") {
		return nil, chaos.ErrInjected
	}
	return f.FS.ReadFile(name)
}

type closeCountFile struct {
	tsdb.File
	closed *int
}

func (c *closeCountFile) Close() error {
	*c.closed++
	return c.File.Close()
}

// TestFailedOpenClosesSegments: an Open that fails part-way through
// recovery closes every segment file it opened — those opened before a
// corrupt segment, and all of them when WAL replay fails.
func TestFailedOpenClosesSegments(t *testing.T) {
	topic := sensor.Topic("/n01/power")
	// build leaves two segments and a WAL file with readings in dir.
	build := func(t *testing.T, dir string) {
		db, err := tsdb.Open(dir, tsdb.Options{FlushEvery: -1})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		next := int64(0)
		for i := 0; i < 2; i++ {
			next = fill(db, topic, next, 100)
			if err := db.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
		}
		fill(db, topic, next, 100)
		db.Abandon()
	}
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, dir string, fs *segCountFS)
	}{
		{"corrupt second segment", func(t *testing.T, dir string, fs *segCountFS) {
			segs, _ := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
			if len(segs) != 2 {
				t.Fatalf("segments %v, want two", segs)
			}
			if err := os.WriteFile(segs[1], []byte("not a segment"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"failing WAL read", func(t *testing.T, dir string, fs *segCountFS) { fs.failWALRead = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			build(t, dir)
			fs := &segCountFS{FS: tsdb.OSFS}
			tc.spoil(t, dir, fs)
			if db, err := tsdb.Open(dir, tsdb.Options{FS: fs, FlushEvery: -1}); err == nil {
				db.Close()
				t.Fatal("Open succeeded")
			}
			if fs.opened == 0 || fs.opened != fs.closed {
				t.Fatalf("a failed Open opened %d segment files and closed %d", fs.opened, fs.closed)
			}
		})
	}
}
