package tsdb

import (
	"github.com/dcdb/wintermute/internal/telemetry"
)

// dbMetrics bundles every telemetry handle a DB touches. It is always
// non-nil on an opened DB: with no registry configured the metrics are
// minted from a nil *telemetry.Registry, so they count into nowhere and
// the instrumentation call sites stay unconditional. Hot-path members
// (WAL counters/histograms, chunk decodes) are plain atomics; the
// derived sizes (head readings, segment count) are callback gauges
// evaluated only at scrape time.
type dbMetrics struct {
	walAppends *telemetry.Counter   // records written through Append
	walBytes   *telemetry.Counter   // bytes written to the active WAL file
	walCommits *telemetry.Counter   // WAL writes, one per burst
	walCohort  *telemetry.Histogram // records per write: one burst's batches
	walCommitS *telemetry.Histogram // seconds per fsync
	walSkipped *telemetry.Counter   // damaged records replay passed over

	flushes        *telemetry.Counter
	flushFailures  *telemetry.Counter // flush cycles that returned an error
	walDegrades    *telemetry.Counter // WAL degrade episodes (first sticky error)
	flushSeconds   *telemetry.Histogram
	flushExclusive *telemetry.Histogram // seconds Flush held DB.ingest exclusively
	flushedRead    *telemetry.Counter
	decimalChunks  *telemetry.Counter // flushed chunks per value codec
	xorChunks      *telemetry.Counter
	pruneSeconds   *telemetry.Histogram
	prunedReadings *telemetry.Counter
	janitorSeconds *telemetry.Histogram
	recoverySec    *telemetry.Gauge

	chunkDecodes *telemetry.Counter

	handles []*telemetry.FuncHandle
}

// walCohortBuckets sizes the cohort histogram: a write carries from 1
// record (a lone batch) to one ingest burst's up to 64; the upper
// buckets take callers of InsertBatches with larger bursts.
var walCohortBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// newDBMetrics registers the DB's metric families in reg (which may be
// nil) and returns the bundle. Callback gauges read db state and are
// closed by closeMetrics before the DB tears that state down.
func newDBMetrics(reg *telemetry.Registry, db *DB) *dbMetrics {
	m := &dbMetrics{
		walAppends: reg.Counter("dcdb_tsdb_wal_appends_total",
			"WAL records appended, one per reading batch."),
		walBytes: reg.Counter("dcdb_tsdb_wal_bytes_total",
			"Bytes written to the write-ahead log."),
		walCommits: reg.Counter("dcdb_tsdb_wal_commits_total",
			"WAL writes, one per ingest burst."),
		walCohort: reg.Histogram("dcdb_tsdb_wal_cohort_records",
			"Records per WAL write: the batches of one ingest burst.", walCohortBuckets),
		walCommitS: reg.Histogram("dcdb_tsdb_wal_commit_seconds",
			"Seconds per WAL fsync in sync mode; writes per fsync is dcdb_tsdb_wal_commits_total over this count.",
			telemetry.DefDurationBuckets),
		walSkipped: reg.Counter("dcdb_tsdb_wal_records_skipped_total",
			"Damaged WAL records (CRC or payload failed) that Open's replay skipped; their readings are lost."),
		flushes: reg.Counter("dcdb_tsdb_flushes_total",
			"Head-to-segment flush cycles."),
		flushFailures: reg.Counter("dcdb_tsdb_flush_failures_total",
			"Flush cycles that failed (disk full, write errors); the heads kept their readings."),
		walDegrades: reg.Counter("dcdb_tsdb_wal_degrade_episodes_total",
			"Times the WAL entered degraded (memory-only) mode on a sticky append failure."),
		flushSeconds: reg.Histogram("dcdb_tsdb_flush_seconds",
			"Seconds per flush cycle (seal, segment write, WAL retirement).",
			telemetry.DefDurationBuckets),
		flushExclusive: reg.Histogram("dcdb_tsdb_flush_exclusive_seconds",
			"Seconds a flush held the ingest lock exclusively (heads sealed, WAL handle swapped): every insert waits this long.",
			telemetry.DefDurationBuckets),
		flushedRead: reg.Counter("dcdb_tsdb_flushed_readings_total",
			"Readings moved from heads into segments by flushes."),
		pruneSeconds: reg.Histogram("dcdb_tsdb_prune_seconds",
			"Seconds per retention prune pass.", telemetry.DefDurationBuckets),
		prunedReadings: reg.Counter("dcdb_tsdb_pruned_readings_total",
			"Readings removed or hidden by retention pruning."),
		janitorSeconds: reg.Histogram("dcdb_tsdb_janitor_pass_seconds",
			"Seconds per janitor pass (flush/prune decisions included).",
			telemetry.DefDurationBuckets),
		recoverySec: reg.Gauge("dcdb_tsdb_recovery_seconds",
			"Duration of the last Open recovery (segment load + WAL replay)."),
		chunkDecodes: reg.Counter("dcdb_tsdb_chunk_decodes_total",
			"Segment chunks decoded on behalf of queries and prunes."),
	}
	chunks := reg.NewCounterVec("dcdb_tsdb_chunks_total",
		"Segment chunks written by flushes, by value codec: decimal, or xor for a chunk whose values have no decimal scale.", "codec")
	m.decimalChunks, m.xorChunks = chunks.With("decimal"), chunks.With("xor")
	if reg != nil && db != nil {
		m.handles = append(m.handles,
			reg.GaugeFunc("dcdb_tsdb_head_readings",
				"Readings buffered in mutable heads (those a flush in progress has sealed excluded).",
				func() float64 { return float64(db.headN.Load()) }),
			reg.GaugeFunc("dcdb_tsdb_segments",
				"Open immutable segment files.",
				func() float64 {
					db.mu.RLock()
					n := len(db.segs)
					db.mu.RUnlock()
					return float64(n)
				}),
			reg.GaugeFunc("dcdb_tsdb_wal_degraded",
				"1 when the WAL has a sticky append failure, else 0.",
				func() float64 {
					if db.wal.failure() != nil {
						return 1
					}
					return 0
				}),
		)
	}
	return m
}

// closeMetrics unregisters the DB's callback gauges; called from Close
// and Abandon before file handles go away.
func (m *dbMetrics) closeMetrics() {
	for _, h := range m.handles {
		h.Close()
	}
	m.handles = nil
}

// ChunksDecoded returns the number of segment chunks this DB has
// decoded since Open, the currency of the slow-query log's
// chunks_decoded field. Counting follows the telemetry enable switch.
func (db *DB) ChunksDecoded() uint64 { return db.metrics.chunkDecodes.Value() }
