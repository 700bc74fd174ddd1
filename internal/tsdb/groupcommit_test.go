package tsdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// TestConcurrentWritersFlushRotate races N concurrent batch writers
// against whole Flush cycles, bare WAL rotations and epoch-checked
// queries: nothing acknowledged may go missing, and the run must be
// race-clean (exercised by `make race`).
func TestConcurrentWritersFlushRotate(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	const writers = 8
	const batches = 60
	const batchLen = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			topic := sensor.Topic(fmt.Sprintf("/r1/n%02d/power", w))
			batch := make([]sensor.Reading, batchLen)
			for i := 0; i < batches; i++ {
				for j := range batch {
					batch[j] = sensor.Reading{Value: float64(w), Time: int64(i*batchLen+j) * sec}
				}
				db.InsertBatch(topic, batch)
			}
		}(w)
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // flush cycles (seal + rotate + segment write)
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Flush(); err != nil {
				t.Errorf("Flush: %v", err)
				return
			}
		}
	}()
	go func() { // bare WAL rotations racing the group committer
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A rotation outside Flush takes flushMu as Flush does: openNext
			// and rotate read and advance one sequence number.
			db.flushMu.Lock()
			next, err := db.wal.openNext()
			if err != nil {
				db.flushMu.Unlock()
				t.Errorf("openNext: %v", err)
				return
			}
			retired, _, _ := db.wal.rotate(next)
			db.flushMu.Unlock()
			if err := retired.Sync(); err != nil {
				t.Errorf("syncing the retired file: %v", err)
			}
			retired.Close()
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 50; i++ {
		for w := 0; w < writers; w++ {
			topic := sensor.Topic(fmt.Sprintf("/r1/n%02d/power", w))
			db.Range(topic, 0, int64(batches*batchLen)*sec, nil)
			db.Latest(topic)
		}
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	total := 0
	for w := 0; w < writers; w++ {
		total += db.Count(sensor.Topic(fmt.Sprintf("/r1/n%02d/power", w)))
	}
	if want := writers * batches * batchLen; total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
}

// TestGroupCommitAckedSurvivesKill is the durability contract of the
// group-commit WAL under -store-wal-sync: every InsertBatch that has
// returned is on synced disk, so a process kill (Abandon) straight
// after the last ack loses nothing.
func TestGroupCommitAckedSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, Options{WALSync: true})
	const writers = 16
	const batches = 10
	const batchLen = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			topic := sensor.Topic(fmt.Sprintf("/k/n%02d/power", w))
			batch := make([]sensor.Reading, batchLen)
			for i := 0; i < batches; i++ {
				for j := range batch {
					batch[j] = sensor.Reading{Value: float64(w*1000 + i), Time: int64(i*batchLen+j) * sec}
				}
				db.InsertBatch(topic, batch)
			}
		}(w)
	}
	wg.Wait()
	db.Abandon() // SIGKILL: no flush, no extra sync

	db2 := openTest(t, dir, Options{})
	defer db2.Close()
	for w := 0; w < writers; w++ {
		topic := sensor.Topic(fmt.Sprintf("/k/n%02d/power", w))
		if got := db2.Count(topic); got != batches*batchLen {
			t.Fatalf("%s: recovered %d readings, want %d", topic, got, batches*batchLen)
		}
		rs := db2.Range(topic, 0, int64(batches*batchLen)*sec, nil)
		for i := 1; i < len(rs); i++ {
			if rs[i].Time < rs[i-1].Time {
				t.Fatalf("%s: recovered readings unordered at %d", topic, i)
			}
		}
	}
}

// TestOrderedShutdownDrainsCommitQueue closes the DB while writers are
// still staging records into the group committer: Close must wait out
// the in-flight inserts (ingest lock) and drain every committed cohort
// before closing the file, so a reopen replays every acknowledged
// record.
func TestOrderedShutdownDrainsCommitQueue(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, dir, Options{})
	const writers = 8
	var acked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			topic := sensor.Topic(fmt.Sprintf("/s/n%02d/power", w))
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				db.InsertBatch(topic, []sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
				acked.Add(1)
				i++
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // let the committer build real cohorts
	close(stop)
	wg.Wait()
	total := int(acked.Load())
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2 := openTest(t, dir, Options{})
	defer db2.Close()
	if got := db2.TotalReadings(); got != total {
		t.Fatalf("reopened DB has %d readings, %d were acked", got, total)
	}
}

// TestGroupCommitErrorPropagation exercises the WAL-level sticky error:
// once a cohort fails, later appends fail fast without touching the
// (possibly torn) file, the DB reports degraded, keeps serving from
// memory, and a flush that cannot sync the broken file fails and keeps it
// degraded. The rotation itself happened, so the broken handle is gone:
// the next flush covers everything with a segment and re-arms the WAL.
func TestGroupCommitErrorPropagation(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	db.InsertBatch("/x", []sensor.Reading{{Value: 1, Time: 1}})
	// Force a commit failure the way a yanked disk would: close the file
	// under the WAL.
	db.wal.mu.Lock()
	db.wal.f.Close()
	db.wal.mu.Unlock()
	db.InsertBatch("/x", []sensor.Reading{{Value: 2, Time: 2}})
	if db.wal.failure() == nil {
		t.Fatal("commit failure not surfaced as degraded WAL")
	}
	// Later appends take the sticky fast path; memory still serves.
	db.InsertBatch("/x", []sensor.Reading{{Value: 3, Time: 3}})
	if got := db.Count("/x"); got != 3 {
		t.Fatalf("Count = %d, want 3 (memory-resident)", got)
	}
	// The retired file cannot be synced, so the flush fails, the heads
	// keep the data and the DB stays degraded.
	if err := db.Flush(); err == nil {
		t.Fatal("Flush over a broken WAL file must fail")
	}
	if got := db.Count("/x"); got != 3 {
		t.Fatalf("Count after failed flush = %d, want 3", got)
	}
	if db.wal.failure() == nil {
		t.Fatal("a failed flush re-armed a WAL whose heads hold unlogged readings")
	}
	// Close flushes again, over the file the failed flush switched to.
	if err := db.Close(); err != nil {
		t.Fatalf("Close after the broken file was rotated away: %v", err)
	}
	if st := db.Stats(); st.Segments != 1 || st.HeadReadings != 0 || st.WALFiles != 1 || st.Error != "" {
		t.Fatalf("after Close: %+v, want one segment, empty heads, one WAL file, no error", st)
	}
}
