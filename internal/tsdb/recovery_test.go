package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/testseed"
)

// crash abandons a DB the way a process kill would: no flush, no WAL
// sync beyond what Append already wrote. The data files on disk are
// exactly what a killed collect agent leaves behind (Abandon also
// releases the directory flock, as process death would).
func crash(db *DB) {
	db.Abandon()
}

// fill inserts a randomized workload: per readings on each of n
// topics, mixing batch sizes, with integer-ish sensor values. The rng
// comes from testseed so a failing shape is replayable by seed.
func fill(db *DB, rng *rand.Rand, n, per int, t0 int64) []sensor.Topic {
	topics := make([]sensor.Topic, n)
	for i := range topics {
		topics[i] = sensor.Topic(fmt.Sprintf("/r%02d/c%d/s%d/power", i/16, i/4%4, i%4))
	}
	for _, tp := range topics {
		for k := 0; k < per; {
			batch := 1 + rng.Intn(8)
			if k+batch > per {
				batch = per - k
			}
			rs := make([]sensor.Reading, batch)
			for j := range rs {
				rs[j] = sensor.Reading{
					Time:  t0 + int64(k+j)*sec,
					Value: 100 + float64((k+j)%23) + float64(rng.Intn(5)),
				}
			}
			db.InsertBatch(tp, rs)
			k += batch
		}
	}
	return topics
}

// snapshotQueries captures every answer shape the acceptance criteria
// compare across a crash: full ranges, sub-ranges, latest and counts.
type querySnapshot struct {
	ranges map[sensor.Topic][]sensor.Reading
	sub    map[sensor.Topic][]sensor.Reading
	latest map[sensor.Topic]sensor.Reading
	counts map[sensor.Topic]int
}

func snapshotQueries(db *DB, topics []sensor.Topic, t0, t1 int64) querySnapshot {
	s := querySnapshot{
		ranges: map[sensor.Topic][]sensor.Reading{},
		sub:    map[sensor.Topic][]sensor.Reading{},
		latest: map[sensor.Topic]sensor.Reading{},
		counts: map[sensor.Topic]int{},
	}
	mid := t0 + (t1-t0)/2
	for _, tp := range topics {
		s.ranges[tp] = db.Range(tp, t0, t1, nil)
		s.sub[tp] = db.Range(tp, t0+(t1-t0)/4, mid, nil)
		if r, ok := db.Latest(tp); ok {
			s.latest[tp] = r
		}
		s.counts[tp] = db.Count(tp)
	}
	return s
}

func compareSnapshots(t *testing.T, want, got querySnapshot, topics []sensor.Topic) {
	t.Helper()
	sameReadings := func(a, b []sensor.Reading) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Time != b[i].Time ||
				math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
				return false
			}
		}
		return true
	}
	for _, tp := range topics {
		if !sameReadings(want.ranges[tp], got.ranges[tp]) {
			t.Fatalf("%s: full Range diverged after recovery (%d vs %d readings)",
				tp, len(want.ranges[tp]), len(got.ranges[tp]))
		}
		if !sameReadings(want.sub[tp], got.sub[tp]) {
			t.Fatalf("%s: sub Range diverged after recovery", tp)
		}
		if want.latest[tp] != got.latest[tp] {
			t.Fatalf("%s: Latest = %+v, want %+v", tp, got.latest[tp], want.latest[tp])
		}
		if want.counts[tp] != got.counts[tp] {
			t.Fatalf("%s: Count = %d, want %d", tp, got.counts[tp], want.counts[tp])
		}
	}
}

// TestCrashRecoveryWALOnly kills the DB before any flush: recovery must
// come entirely from WAL replay.
func TestCrashRecoveryWALOnly(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, Options{})
	topics := fill(db, testseed.Rand(t), 16, 100, 0)
	want := snapshotQueries(db, topics, 0, 100*sec)
	crash(db)

	db2 := openTest(t, dir, Options{})
	defer db2.Close()
	compareSnapshots(t, want, snapshotQueries(db2, topics, 0, 100*sec), topics)
	if st := db2.Stats(); st.Segments != 0 || st.HeadReadings == 0 {
		t.Fatalf("recovery should land in heads: %+v", st)
	}
}

// TestCrashRecoveryMixed flushes mid-stream, keeps writing, then kills:
// recovery must merge segments with WAL replay without duplicating the
// flushed readings.
func TestCrashRecoveryMixed(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, Options{})
	rng := testseed.Rand(t)
	topics := fill(db, rng, 16, 60, 0)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(db, rng, 16, 60, 60*sec) // same topics, later window
	want := snapshotQueries(db, topics, 0, 120*sec)
	crash(db)

	db2 := openTest(t, dir, Options{})
	defer db2.Close()
	compareSnapshots(t, want, snapshotQueries(db2, topics, 0, 120*sec), topics)
	if st := db2.Stats(); st.Segments != 1 {
		t.Fatalf("Segments = %d, want 1", st.Segments)
	}
}

// TestCrashRecoveryTornWALRecord simulates a kill mid-write: the final
// WAL record is torn. Recovery must keep everything before the tear and
// ignore the tail without erroring.
func TestCrashRecoveryTornWALRecord(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, Options{})
	for i := 0; i < 100; i++ {
		db.InsertBatch("/x", []sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
	}
	crash(db)

	wals, err := listWAL(OSFS, filepath.Join(dir, "wal"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("listWAL: %v (%d files)", err, len(wals))
	}
	last := wals[len(wals)-1].path
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: chop 5 bytes off the file.
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	db2 := openTest(t, dir, Options{})
	defer db2.Close()
	got := db2.Range("/x", 0, 200*sec, nil)
	if len(got) != 99 {
		t.Fatalf("recovered %d readings, want 99 (final record torn)", len(got))
	}
	for i, r := range got {
		if r.Value != float64(i) {
			t.Fatalf("reading %d = %+v", i, r)
		}
	}
}

// TestCrashRecoveryCorruptWALRecord flips a payload byte in the tail
// record: the CRC must reject it while earlier records survive.
func TestCrashRecoveryCorruptWALRecord(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, Options{})
	for i := 0; i < 10; i++ {
		db.InsertBatch("/x", []sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
	}
	crash(db)

	wals, _ := listWAL(OSFS, filepath.Join(dir, "wal"))
	last := wals[len(wals)-1].path
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := openTest(t, dir, Options{})
	defer db2.Close()
	got := db2.Range("/x", 0, 200*sec, nil)
	if len(got) != 9 {
		t.Fatalf("recovered %d readings, want 9 (tail record corrupt)", len(got))
	}
}

// TestRecoveryAfterCleanClose reopens a cleanly-closed DB: everything
// must come from segments, with an empty WAL.
func TestRecoveryAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, Options{})
	topics := fill(db, testseed.Rand(t), 8, 50, 0)
	want := snapshotQueries(db, topics, 0, 50*sec)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2 := openTest(t, dir, Options{})
	defer db2.Close()
	compareSnapshots(t, want, snapshotQueries(db2, topics, 0, 50*sec), topics)
	st := db2.Stats()
	if st.HeadReadings != 0 || st.WALBytes != 0 {
		t.Fatalf("clean close should leave empty WAL/heads: %+v", st)
	}
}

// TestCrashBetweenFlushAndWALDelete covers the crash window after a
// segment lands but before its WAL files are deleted: replaying them
// would duplicate every flushed reading.
func TestCrashBetweenFlushAndWALDelete(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, Options{})
	for i := 0; i < 50; i++ {
		db.InsertBatch("/x", []sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	crash(db)
	// Resurrect a WAL file the flush retired, as if the delete had not
	// happened before the kill.
	walDir := filepath.Join(dir, "wal")
	stale := walPath(walDir, 1)
	var buf []byte
	buf = appendWALRecord(buf, "/x", []sensor.Reading{{Value: 7, Time: 7 * sec}})
	if err := os.WriteFile(stale, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := openTest(t, dir, Options{})
	defer db2.Close()
	if n := db2.Count("/x"); n != 50 {
		t.Fatalf("Count = %d, want 50 (covered WAL must not replay)", n)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("covered WAL file should be deleted on open")
	}
}

// TestCrashRecoveryAtScale is the acceptance scenario shrunk to test
// time: >=64 topics, heavy write volume with a mid-stream flush, killed
// without Close, reopened, and every query answer compared.
func TestCrashRecoveryAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	dir := t.TempDir()
	db := openTest(t, dir, Options{})
	rng := testseed.Rand(t)
	topics := fill(db, rng, 64, 200, 0)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(db, rng, 64, 100, 200*sec)
	want := snapshotQueries(db, topics, 0, 300*sec)
	crash(db)

	start := time.Now()
	db2 := openTest(t, dir, Options{})
	defer db2.Close()
	t.Logf("recovered %d readings in %s", db2.TotalReadings(), time.Since(start))
	compareSnapshots(t, want, snapshotQueries(db2, topics, 0, 300*sec), topics)
	if n := db2.TotalReadings(); n != 64*300 {
		t.Fatalf("TotalReadings = %d, want %d", n, 64*300)
	}
}

// TestDoubleOpenRejected proves the directory lock: a second live DB on
// the same directory must be refused (interleaved WAL/segment writes
// would silently lose data), and releasing the first unblocks it.
func TestDoubleOpenRejected(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, Options{})
	if _, err := Open(dir, Options{FlushEvery: -1}); err == nil {
		t.Fatal("second Open on a locked directory must fail")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openTest(t, dir, Options{})
	db2.Close()
}

// TestFloorSurvivesRestart proves retention persistence: readings Prune
// removed must not resurrect after a crash, even though their segments
// and WAL records are still on disk.
func TestFloorSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, Options{})
	for i := 0; i < 20; i++ {
		db.InsertBatch("/x", []sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		db.InsertBatch("/x", []sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
	}
	if removed := db.Prune(25 * sec); removed != 25 {
		t.Fatalf("Prune removed = %d, want 25", removed)
	}
	if db.Count("/x") != 5 {
		t.Fatalf("Count = %d, want 5", db.Count("/x"))
	}
	crash(db)

	db2 := openTest(t, dir, Options{})
	defer db2.Close()
	if got := db2.Count("/x"); got != 5 {
		t.Fatalf("Count after restart = %d, want 5 (pruned readings resurrected)", got)
	}
	rs := db2.Range("/x", 0, 100*sec, nil)
	if len(rs) != 5 || rs[0].Value != 25 {
		t.Fatalf("Range after restart = %+v", rs)
	}
	// Prune bookkeeping re-derived: pruning at the same cutoff removes
	// nothing new, a deeper cutoff counts only the newly-hidden readings.
	if removed := db2.Prune(25 * sec); removed != 0 {
		t.Fatalf("same-cutoff Prune after restart removed %d", removed)
	}
	if removed := db2.Prune(27 * sec); removed != 2 {
		t.Fatalf("deeper Prune after restart removed %d, want 2", removed)
	}
}

// TestWALFailureSurfacesAsDegraded forces WAL appends to fail and
// checks the DB reports itself degraded through Stats and Close while
// still serving from memory.
func TestWALFailureSurfacesAsDegraded(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	// Break the WAL the way a yanked disk would: close its file.
	db.wal.mu.Lock()
	db.wal.f.Close()
	db.wal.mu.Unlock()
	db.InsertBatch("/x", []sensor.Reading{{Value: 1, Time: 1}})
	if r, ok := db.Latest("/x"); !ok || r.Value != 1 {
		t.Fatalf("memory serving broken: %+v %v", r, ok)
	}
	if st := db.Stats(); st.Error == "" {
		t.Fatal("Stats must report the degraded WAL")
	}
	if err := db.Close(); err == nil {
		t.Fatal("Close must surface the WAL failure")
	}
}
