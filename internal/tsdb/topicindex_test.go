package tsdb

import (
	"reflect"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// TestTopicsPrefixMaintained checks the incrementally-maintained index
// against inserts on both the normal and the batch path.
func TestTopicsPrefixMaintained(t *testing.T) {
	db, err := Open(t.TempDir(), Options{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Insert("/r1/n0/power", sensor.Reading{Value: 1, Time: 1})
	db.InsertBatch("/r1/n1/power", []sensor.Reading{{Value: 1, Time: 1}, {Value: 2, Time: 2}})
	db.Insert("/r10/n0/power", sensor.Reading{Value: 1, Time: 1})
	db.Insert("/r2/n0/power", sensor.Reading{Value: 1, Time: 1})

	if got := db.TopicsPrefix("/r1"); !reflect.DeepEqual(got,
		[]sensor.Topic{"/r1/n0/power", "/r1/n1/power"}) {
		t.Fatalf("TopicsPrefix(/r1) = %v", got)
	}
	if got, want := db.TopicsPrefix(""), db.Topics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("full index %v != Topics %v", got, want)
	}
	if got := db.TopicsPrefix("/r10"); !reflect.DeepEqual(got,
		[]sensor.Topic{"/r10/n0/power"}) {
		t.Fatalf("TopicsPrefix(/r10) = %v: a sibling with a longer name leaked in", got)
	}
}

// TestTopicsPrefixRecovered checks the index is rebuilt on reopen, from
// both flushed segments and WAL-replayed head data.
func TestTopicsPrefixRecovered(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.Insert("/flushed/a", sensor.Reading{Value: 1, Time: 1})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Insert("/unflushed/b", sensor.Reading{Value: 1, Time: 2})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.TopicsPrefix(""); !reflect.DeepEqual(got,
		[]sensor.Topic{"/flushed/a", "/unflushed/b"}) {
		t.Fatalf("recovered index = %v", got)
	}
}

// TestTopicsPrefixPruneGhosts is the persistent-backend ghost
// regression: retention that removes a topic's last reading must remove
// it from wildcard expansion, and a later insert must bring it back.
func TestTopicsPrefixPruneGhosts(t *testing.T) {
	db, err := Open(t.TempDir(), Options{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var pruned int
	db.opts.OnPrune = func(cutoff int64, removed int) { pruned += removed }

	for i := 0; i < 5; i++ {
		db.Insert("/old/x", sensor.Reading{Value: 1, Time: int64(i) * int64(time.Second)})
	}
	db.Insert("/new/y", sensor.Reading{Value: 1, Time: int64(time.Hour)})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := db.Prune(int64(30 * time.Minute)); n != 5 {
		t.Fatalf("pruned %d, want 5", n)
	}
	if pruned != 5 {
		t.Fatalf("OnPrune hook saw %d removals, want 5", pruned)
	}
	if got := db.TopicsPrefix("/old"); len(got) != 0 {
		t.Fatalf("ghost topic after prune: %v", got)
	}
	if got := db.TopicsPrefix(""); !reflect.DeepEqual(got, []sensor.Topic{"/new/y"}) {
		t.Fatalf("index after prune = %v", got)
	}
	db.Insert("/old/x", sensor.Reading{Value: 2, Time: 2 * int64(time.Hour)})
	if got := db.TopicsPrefix("/old"); !reflect.DeepEqual(got, []sensor.Topic{"/old/x"}) {
		t.Fatalf("re-insert did not re-index: %v", got)
	}
}
