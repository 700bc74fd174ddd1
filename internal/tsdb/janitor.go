package tsdb

import (
	"fmt"
	"os"
	"time"

	"github.com/dcdb/wintermute/internal/telemetry"
)

// The janitor's flush thresholds. A pass flushes once the heads hold
// maxHeadReadings, or anything at all for maxHeadAge — the latter bounds
// WAL replay time and the window an OS crash could lose on a quiet
// system. They are thresholds on a timer, not bounds: nothing looks at
// them between passes. On every bench/ workload the size test is already
// true at each 10 s pass (the slowest buffers 204,800 readings a pass),
// so a loaded agent simply flushes whatever the last FlushEvery
// accumulated, however much that is.
const (
	maxHeadReadings = 65536
	maxHeadAge      = 60 * time.Second
)

// The janitor is the database's single background goroutine: every
// FlushEvery it runs one pass, which flushes the heads if either
// threshold above is met and then enforces time-based retention by
// pruning against the configured window. Keeping both duties on one
// goroutine means segment writes and segment deletes never wait on each
// other's flushMu.
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
		}
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
	if headN >= maxHeadReadings ||
		(headN > 0 && since != 0 && now.Sub(time.Unix(0, since)) >= maxHeadAge) {
		if err := db.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "tsdb: janitor flush: %v\n", err)
		}
	}
	if db.opts.Retention > 0 {
		db.Prune(now.Add(-db.opts.Retention).UnixNano())
	}
}
