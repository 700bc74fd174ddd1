package tsdb

import (
	"fmt"
	"os"
	"time"

	"github.com/dcdb/wintermute/internal/telemetry"
)

// What the heads may hold before the janitor flushes them.
//
// maxHeadReadings is a bound, enforced between passes: the insert that
// takes the heads across it wakes the janitor, which flushes at once. It
// is soft by one flush — sealing resets the count, and what arrives while
// the segment is written belongs to the next cycle — and there is no
// back-pressure: an insert never waits for a flush. 4 Mi readings are
// 64 MiB of sensor.Reading, about 59 MB of WAL and one segment of ≈ 25 MB;
// with each head keeping a spare array (head.go) resident head memory
// stays within twice that plus one flush's arrivals, whatever the ingest
// rate.
//
// flushHeadReadings and maxHeadAge are thresholds a timer pass applies
// to whatever is below the bound: a pass flushes once the heads hold
// flushHeadReadings, or anything at all for maxHeadAge — the latter
// bounds WAL replay time and the window an OS crash could lose on a quiet
// system. An agent loaded below maxHeadReadings per FlushEvery therefore
// flushes once per pass, whatever the pass accumulated.
const (
	maxHeadReadings   = 4 << 20
	flushHeadReadings = 65536
	maxHeadAge        = 60 * time.Second
)

// The janitor is the database's single background goroutine: every
// FlushEvery it runs one pass, which flushes the heads if a threshold
// above is met and then enforces time-based retention by pruning against
// the configured window; between passes a headFull wake-up flushes heads
// that reached their bound. Keeping all of it on one goroutine means
// segment writes and segment deletes never wait on each other's flushMu.
// With FlushEvery < 0 there is no janitor and nothing flushes unasked.
func (db *DB) janitor() {
	defer close(db.janitorDone)
	ticker := time.NewTicker(db.opts.FlushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-db.janitorStop:
			return
		case <-ticker.C:
			db.janitorPass(time.Now())
		case <-db.headFull:
			// Re-read the count: a pass or a caller's Flush may have
			// emptied the heads since the wake-up was sent.
			if db.headN.Load() >= maxHeadReadings {
				db.janitorFlush()
			}
		}
	}
}

// janitorFlush flushes on the janitor's behalf: nobody is there to take
// the error, so it goes to stderr (and, sticky, into Stats).
func (db *DB) janitorFlush() {
	if err := db.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "tsdb: janitor flush: %v\n", err)
	}
}

// janitorPass runs one flush/retention decision at the given wall time.
// The daemon path only reaches it from the janitor goroutine; tests call
// it with a time of their choosing.
func (db *DB) janitorPass(now time.Time) {
	passStart := telemetry.Clock()
	defer db.metrics.janitorSeconds.ObserveSince(passStart)
	headN := int(db.headN.Load())
	since := db.headSince.Load()
	if headN >= flushHeadReadings ||
		(headN > 0 && since != 0 && now.Sub(time.Unix(0, since)) >= maxHeadAge) {
		db.janitorFlush()
	}
	if db.opts.Retention > 0 {
		db.Prune(now.Add(-db.opts.Retention).UnixNano())
	}
}
