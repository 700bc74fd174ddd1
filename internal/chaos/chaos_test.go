package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/testseed"
	"github.com/dcdb/wintermute/internal/transport"
	"github.com/dcdb/wintermute/internal/tsdb"
)

func TestClassify(t *testing.T) {
	cases := map[string]Class{
		"/x/wal/000001.wal":    ClassWAL,
		"/x/seg/000001.seg":    ClassSeg,
		"/x/seg/000001.tmp":    ClassSeg,
		"/x/meta.json":         ClassMeta,
		"/x/meta.json.tmp.now": ClassMeta,
	}
	for path, want := range cases {
		if got := classify(path); got != want {
			t.Errorf("classify(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestFSInjectsWriteAndSyncFaults(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(nil, testseed.Seed(t))
	fs.Set(OpWrite, ClassWAL, Fault{P: 1})
	f, err := fs.OpenFile(filepath.Join(dir, "000001.wal"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("hello")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write error = %v, want ErrInjected", err)
	}
	// Meta-class writes are unaffected by a WAL-class rule.
	meta, err := fs.Create(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatalf("create meta: %v", err)
	}
	defer meta.Close()
	if _, err := meta.Write([]byte("{}")); err != nil {
		t.Fatalf("meta write faulted by wal rule: %v", err)
	}
	fs.Clear(OpWrite, ClassWAL)
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("write after clear: %v", err)
	}
	fs.Set(OpSync, ClassWAL, Fault{P: 1})
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync error = %v, want ErrInjected", err)
	}
	hits := fs.Injected()
	if hits["write/wal"] != 1 || hits["sync/wal"] != 1 {
		t.Fatalf("injected counts = %v, want write/wal=1 sync/wal=1", hits)
	}
}

func TestFSPartialWriteTearsFile(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(nil, testseed.Seed(t))
	path := filepath.Join(dir, "000001.wal")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fs.Set(OpWrite, ClassWAL, Fault{P: 1, Partial: true})
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write error = %v, want ErrInjected", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("partial write persisted %d bytes, want %d", n, len(payload)/2)
	}
	f.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("readback: %v", err)
	}
	if string(got) != "01234" {
		t.Fatalf("torn file holds %q, want the first half %q", got, "01234")
	}
}

func TestFSStallOnlyDelaysButSucceeds(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(nil, testseed.Seed(t))
	fs.Set(OpSync, ClassWAL, Fault{P: 1, Stall: 30 * time.Millisecond, StallOnly: true})
	f, err := fs.OpenFile(filepath.Join(dir, "000001.wal"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		t.Fatalf("stall-only sync failed: %v", err)
	}
	if d := time.Since(t0); d < 30*time.Millisecond {
		t.Fatalf("sync returned after %v, want >= 30ms stall", d)
	}
}

// TestFSSatisfiesTSDB runs a real database on a chaos FS with no rules
// installed: a transparent wrapper must be indistinguishable from OSFS.
func TestFSSatisfiesTSDB(t *testing.T) {
	fs := NewFS(nil, testseed.Seed(t))
	db, err := tsdb.Open(t.TempDir(), tsdb.Options{FS: fs, WALSync: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	topic := sensor.Topic("/r01/c01/s01/power")
	db.InsertBatch(topic, []sensor.Reading{{Time: 1, Value: 100}, {Time: 2, Value: 101}})
	if err := db.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := db.Range(topic, 0, 10, nil); len(got) != 2 {
		t.Fatalf("range returned %d readings, want 2", len(got))
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestLedgerClassification(t *testing.T) {
	l := NewLedger()
	topic := sensor.Topic("/n/power")
	l.RecordSent(topic, []sensor.Reading{
		{Time: 1, Value: 1.5}, // delivered + stored: delivered
		{Time: 2, Value: 2.5}, // delivered, never stored: acked-lost
		{Time: 3, Value: 3.5}, // never delivered, never stored: unacked drop
		{Time: 4, Value: 4.5}, // stored twice: duplicate
		{Time: 5, Value: 5.5}, // stored with wrong value: mismatch
	})
	l.RecordDelivered([]transport.Message{{Topic: topic, Readings: []sensor.Reading{
		{Time: 1, Value: 1.5}, {Time: 2, Value: 2.5}, {Time: 4, Value: 4.5}, {Time: 5, Value: 5.5},
	}}})
	// A delivered reading nobody sent is a phantom.
	l.RecordDelivered([]transport.Message{{Topic: topic, Readings: []sensor.Reading{{Time: 99, Value: 0}}}})
	stored := []sensor.Reading{
		{Time: 1, Value: 1.5},
		{Time: 4, Value: 4.5}, {Time: 4, Value: 4.5},
		{Time: 5, Value: 9.9},
		{Time: 77, Value: 0}, // stored but never sent: phantom
	}
	acct := l.Reconcile(func(sensor.Topic) []sensor.Reading { return stored })
	want := Accounting{
		Sent: 5, Delivered: 4, Stored: 3,
		AckedLost: 1, UnackedDropped: 1,
		Duplicates: 1, Phantom: 2, ValueMismatch: 1,
	}
	if acct != want {
		t.Fatalf("accounting = %+v, want %+v", acct, want)
	}
	if acct.Clean() {
		t.Fatal("accounting with losses reported Clean")
	}
}

// TestScenarioSmoke is the in-package chaos smoke: a short seeded run
// across every fault class (conn kill, fsync stall, fsync fail, torn
// WAL writes, segment failures, disk-full, OOO flood, clock skew) with the at-least-once spool on — asserting exact
// zero-loss accounting: nothing lost, nothing duplicated, nothing
// corrupted.
// `make chaos-smoke` runs it under -race.
func TestScenarioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos smoke needs a multi-second run")
	}
	seed := testseed.Seed(t)
	sc := Scenario{
		Seed:         seed,
		Pushers:      12,
		Topics:       4,
		Rate:         25,
		BatchSize:    4,
		Duration:     4 * time.Second,
		QueryWorkers: 2,
		Dir:          t.TempDir(),
	}
	v, err := sc.Run()
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	t.Logf("verdict: sent=%d delivered=%d stored=%d dropped=%d reconnects=%d redeliveries=%d dups=%d rps=%.0f p99=%.1fms injected=%v killed=%d",
		v.Accounting.Sent, v.Accounting.Delivered, v.Accounting.Stored,
		v.Accounting.UnackedDropped, v.PusherReconnects, v.PusherRedeliveries,
		v.DupBatchesDropped,
		v.ReadingsPerSec, v.QueryP99Ms, v.InjectedFS, v.ConnsKilled)
	if !v.Pass {
		t.Fatalf("chaos verdict failed: %v (accounting %+v)", v.Failures, v.Accounting)
	}
	if v.Accounting.Sent == 0 || v.Accounting.Stored == 0 {
		t.Fatalf("degenerate run: accounting %+v", v.Accounting)
	}
	// Zero lost, period: with the spool on, every sent reading is stored.
	if !v.SpoolEnabled {
		t.Fatal("scenario ran without the at-least-once spool")
	}
	if v.Accounting.UnackedDropped != 0 || v.Accounting.AckedLost != 0 {
		t.Fatalf("lost readings under spooling: %+v", v.Accounting)
	}
	if v.Accounting.Stored != v.Accounting.Sent {
		t.Fatalf("stored %d of %d sent readings", v.Accounting.Stored, v.Accounting.Sent)
	}
	if v.ConnsKilled == 0 {
		t.Fatal("fault schedule killed no connections")
	}
	if v.PusherReconnects == 0 {
		t.Fatal("killed connections produced no reconnects")
	}
	if len(v.InjectedFS) == 0 {
		t.Fatal("fault schedule injected no filesystem faults")
	}
	if got := len(v.FaultClasses); got < 6 {
		t.Fatalf("scenario covered %d fault classes, want >= 6 (%v)", got, v.FaultClasses)
	}
	if v.Queries == 0 {
		t.Fatal("query workers issued no queries")
	}
}

// TestScenarioDeterministicFaults replays the same seed twice and
// expects identical fault dice — the property that makes a failing
// verdict reproducible.
func TestScenarioDeterministicFaults(t *testing.T) {
	roll := func(seed int64) []Op {
		fs := NewFS(tsdb.OSFS, seed)
		fs.Set(OpSync, ClassWAL, Fault{P: 0.5})
		var hit []Op
		for i := 0; i < 64; i++ {
			if fs.decide(OpSync, ClassWAL) != nil {
				hit = append(hit, OpSync)
			} else {
				hit = append(hit, numOps)
			}
		}
		return hit
	}
	seed := testseed.Seed(t)
	a, b := roll(seed), roll(seed)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault dice diverged at roll %d under identical seed", i)
		}
	}
}
