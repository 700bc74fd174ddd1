package tsdb

import (
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// TestDBMetrics drives the engine through its instrumented paths — WAL
// appends, flush, query-time chunk decodes, prune — and checks each
// series through the registry.
func TestDBMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	// WALSync selects the group-commit leader path, the one that times
	// its commits (the inline no-sync path skips the clock by design).
	db, err := Open(t.TempDir(), Options{FlushEvery: -1, WALSync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rs := make([]sensor.Reading, 100)
	for i := range rs {
		rs[i] = sensor.Reading{Value: float64(i), Time: int64(i) * int64(time.Second)}
	}
	db.InsertBatch("/a", rs)
	db.InsertBatch("/b", rs)

	if v, _ := reg.Value("dcdb_tsdb_wal_appends_total"); v != 2 {
		t.Fatalf("wal appends = %v, want 2", v)
	}
	if v, _ := reg.Value("dcdb_tsdb_wal_commits_total"); v < 1 {
		t.Fatalf("wal commits = %v, want >= 1", v)
	}
	if v, ok := reg.Value("dcdb_tsdb_head_readings"); !ok || v != 200 {
		t.Fatalf("head readings = %v (ok=%v), want 200", v, ok)
	}

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("dcdb_tsdb_flushes_total"); v != 1 {
		t.Fatalf("flushes = %v, want 1", v)
	}
	if v, _ := reg.Value("dcdb_tsdb_flushed_readings_total"); v != 200 {
		t.Fatalf("flushed readings = %v, want 200", v)
	}
	if v, ok := reg.Value("dcdb_tsdb_segments"); !ok || v != 1 {
		t.Fatalf("segments = %v (ok=%v), want 1", v, ok)
	}

	// Reads from the flushed segment decode chunks, and the count is
	// visible both as the metric and through ChunksDecoded (the
	// slow-query attribution hook).
	if got := db.Range("/a", 0, int64(99)*int64(time.Second), nil); len(got) != 100 {
		t.Fatalf("range = %d readings", len(got))
	}
	if n := db.ChunksDecoded(); n == 0 {
		t.Fatal("no chunk decodes counted")
	}
	if v, _ := reg.Value("dcdb_tsdb_chunk_decodes_total"); uint64(v) != db.ChunksDecoded() {
		t.Fatalf("metric %v != ChunksDecoded %d", v, db.ChunksDecoded())
	}

	// Histogram series carry observations.
	for _, name := range []string{
		"dcdb_tsdb_wal_cohort_records",
		"dcdb_tsdb_wal_commit_seconds",
		"dcdb_tsdb_flush_seconds",
		"dcdb_tsdb_flush_exclusive_seconds",
	} {
		if v, ok := reg.Value(name); !ok || v < 1 {
			t.Errorf("%s observations = %v (ok=%v), want >= 1", name, v, ok)
		}
	}
	if v, ok := reg.Value("dcdb_tsdb_recovery_seconds"); !ok || v < 0 {
		t.Errorf("recovery seconds = %v (ok=%v)", v, ok)
	}
}

// TestDBMetricsClosedOnClose checks that the DB's callback gauges are
// unregistered when the DB closes, so a scrape after Close cannot read
// freed state.
func TestDBMetricsClosedOnClose(t *testing.T) {
	reg := telemetry.NewRegistry()
	db, err := Open(t.TempDir(), Options{FlushEvery: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Value("dcdb_tsdb_head_readings"); !ok {
		t.Fatal("head gauge not registered while open")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Value("dcdb_tsdb_head_readings"); ok {
		t.Fatal("head gauge still registered after Close")
	}
	// The scrape path stays healthy with the gauges gone.
	reg.Snapshot(func(*telemetry.Sample) {})
}

// TestDBMetricsSharedRegistry: two DBs on one registry sum their
// callback gauges into one exposition series instead of colliding.
func TestDBMetricsSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	db1, err := Open(t.TempDir(), Options{FlushEvery: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	db2, err := Open(t.TempDir(), Options{FlushEvery: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	db1.InsertBatch("/a", []sensor.Reading{{Value: 1, Time: 1}})
	db2.InsertBatch("/b", []sensor.Reading{{Value: 2, Time: 2}})
	db2.InsertBatch("/b", []sensor.Reading{{Value: 3, Time: 3}})

	if v, ok := reg.Value("dcdb_tsdb_head_readings"); !ok || v != 3 {
		t.Fatalf("summed head readings = %v (ok=%v), want 3", v, ok)
	}
}
