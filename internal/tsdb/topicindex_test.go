package tsdb

import (
	"fmt"
	"maps"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
	db.InsertBatch("/r1/n0/power", []sensor.Reading{{Value: 1, Time: 1}})
	db.InsertBatch("/r1/n1/power", []sensor.Reading{{Value: 1, Time: 1}, {Value: 2, Time: 2}})
	db.InsertBatch("/r10/n0/power", []sensor.Reading{{Value: 1, Time: 1}})
	db.InsertBatch("/r2/n0/power", []sensor.Reading{{Value: 1, Time: 1}})

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
	db.InsertBatch("/flushed/a", []sensor.Reading{{Value: 1, Time: 1}})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.InsertBatch("/unflushed/b", []sensor.Reading{{Value: 1, Time: 2}})
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
		db.InsertBatch("/old/x", []sensor.Reading{{Value: 1, Time: int64(i) * int64(time.Second)}})
	}
	db.InsertBatch("/new/y", []sensor.Reading{{Value: 1, Time: int64(time.Hour)}})
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
	db.InsertBatch("/old/x", []sensor.Reading{{Value: 2, Time: 2 * int64(time.Hour)}})
	if got := db.TopicsPrefix("/old"); !reflect.DeepEqual(got, []sensor.Topic{"/old/x"}) {
		t.Fatalf("re-insert did not re-index: %v", got)
	}
}

// hasHead reports whether the topic's head is in its shard's map.
func (db *DB) hasHead(topic sensor.Topic) bool {
	sh := &db.shards[headShardIdx(topic)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.heads[topic] != nil
}

// metaWriteFS runs a hook as Prune persists the floor: after the floor,
// the segments, the heads and the prefix index changed.
type metaWriteFS struct {
	FS
	hook func()
}

func (f *metaWriteFS) Create(name string) (File, error) {
	if f.hook != nil && strings.HasSuffix(name, "meta.json.tmp") {
		f.hook()
	}
	return f.FS.Create(name)
}

// TestTopicListedAcrossHeadDrops: a topic is indexed when its head is
// created, not per batch, so it has to stay listed by TopicsPrefix
// through everything that takes the head out of its map — a flush that
// finds it empty afterwards, a prune that empties it — and come back
// with the insert that revives it, also when that insert races the
// prune's index rebuild (run under -race in chaos-smoke).
func TestTopicListedAcrossHeadDrops(t *testing.T) {
	const topic = sensor.Topic("/idx/t")
	fs := &metaWriteFS{FS: OSFS}
	db := openTest(t, t.TempDir(), Options{FS: fs})
	defer db.Close()
	listed := func() bool { return len(db.TopicsPrefix("/idx")) == 1 }

	db.InsertBatch(topic, []sensor.Reading{{Value: 1, Time: 1 * sec}})
	db.InsertBatch(topic, []sensor.Reading{{Value: 2, Time: 2 * sec}}) // head exists: not indexed again
	if !listed() {
		t.Fatal("not listed after its first inserts")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.hasHead(topic) || !listed() {
		t.Fatalf("after a flush: head kept %v, listed %v; want dropped and listed", db.hasHead(topic), listed())
	}
	db.InsertBatch(topic, []sensor.Reading{{Value: 3, Time: 3 * sec}}) // head created again
	if !db.hasHead(topic) || !listed() {
		t.Fatal("not listed after the insert that re-created its head")
	}
	if n := db.Prune(10 * sec); n != 3 {
		t.Fatalf("pruned %d readings, want 3", n)
	}
	if db.hasHead(topic) || listed() {
		t.Fatalf("after a prune that emptied it: head kept %v, listed %v; want neither", db.hasHead(topic), listed())
	}
	db.InsertBatch(topic, []sensor.Reading{{Value: 4, Time: 11 * sec}})
	if !listed() {
		t.Fatal("not listed after the insert that revived it")
	}

	// A prune that drops the head races the insert that revives it:
	// whichever way the index rebuild and the insert's Add interleave,
	// the topic holds a live reading afterwards and must be listed.
	at := 11 * sec
	for i := 0; i < 200; i++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); db.Prune(at + 1) }()
		go func() {
			defer wg.Done()
			db.InsertBatch(topic, []sensor.Reading{{Value: 5, Time: at + 2}})
		}()
		wg.Wait()
		at += 2
		if db.Count(topic) != 1 || !listed() {
			t.Fatalf("round %d: %d live readings, listed %v", i, db.Count(topic), listed())
		}
	}

	// Readings older than the floor arrive between the prune's head pass
	// and its rebuild: their head holds nothing live, yet it must keep
	// its topic listed, or the live readings that join it — finding the
	// head there, they do not index — would be stored and not listed.
	fs.hook = func() { db.InsertBatch(topic, []sensor.Reading{{Value: 6, Time: at}}) }
	db.Prune(at + 3)
	fs.hook = nil
	if !db.hasHead(topic) || db.Count(topic) != 0 {
		t.Fatalf("the late insert: head %v, %d live readings; want a head with none", db.hasHead(topic), db.Count(topic))
	}
	db.InsertBatch(topic, []sensor.Reading{{Value: 7, Time: at + 4}})
	if db.Count(topic) != 1 || !listed() {
		t.Fatalf("live reading in a head of expired ones: %d live, listed %v", db.Count(topic), listed())
	}
	// The next prune trims the expired readings away and the topic stays.
	db.Prune(at + 4)
	if db.Count(topic) != 1 || !listed() {
		t.Fatalf("after the next prune: %d live, listed %v", db.Count(topic), listed())
	}
}

// TestPruneUnlistsWithTheFloor: the prefix index changes in the same
// step as the floor, so a wildcard never lists a topic whose every
// reading the new floor hides, not even while Prune is still persisting
// the floor.
func TestPruneUnlistsWithTheFloor(t *testing.T) {
	fs := &metaWriteFS{FS: OSFS}
	db := openTest(t, t.TempDir(), Options{FS: fs})
	defer db.Close()
	db.InsertBatch("/seg/old", []sensor.Reading{{Value: 1, Time: 1 * sec}})
	db.InsertBatch("/seg/new", []sensor.Reading{{Value: 1, Time: 20 * sec}})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.InsertBatch("/head/old", []sensor.Reading{{Value: 1, Time: 2 * sec}})
	db.InsertBatch("/head/new", []sensor.Reading{{Value: 1, Time: 21 * sec}})
	var during []sensor.Topic
	fs.hook = func() { during = db.TopicsPrefix("") }
	if n := db.Prune(10 * sec); n != 2 {
		t.Fatalf("pruned %d readings, want 2", n)
	}
	fs.hook = nil
	want := []sensor.Topic{"/head/new", "/seg/new"}
	if !reflect.DeepEqual(during, want) {
		t.Fatalf("while Prune persisted the floor TopicsPrefix = %v, want %v", during, want)
	}
	if got := db.TopicsPrefix(""); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Prune TopicsPrefix = %v, want %v", got, want)
	}
}

func TestTopicIndexAdd(t *testing.T) {
	ix := newIndex()
	for _, tp := range []sensor.Topic{"/b", "/a", "/c", "/a"} {
		ix.Add(tp)
	}
	if got := ix.Prefix("", nil); !reflect.DeepEqual(got, []sensor.Topic{"/a", "/b", "/c"}) {
		t.Fatalf("after adds (one twice) = %v, want each once, sorted", got)
	}
	if got := ix.Prefix("/d", nil); len(got) != 0 {
		t.Fatalf("Prefix(/d) = %v for a topic never added", got)
	}
}

// TestTopicIndexPrefix pins the segment-aware interval trick: the
// subtree below /p is exactly ["/p/", "/p0"), so the sibling /r10 never
// leaks into /r1's expansion, and an exact sensor at the prefix itself
// is included.
func TestTopicIndexPrefix(t *testing.T) {
	ix := newIndex()
	all := []sensor.Topic{"/r1", "/r1/a", "/r1/a/x", "/r10/b", "/r2"}
	for _, tp := range all {
		ix.Add(tp)
	}
	for _, tc := range []struct {
		prefix sensor.Topic
		want   []sensor.Topic
	}{
		{"", all},
		{"/", all},
		{"/r1", []sensor.Topic{"/r1", "/r1/a", "/r1/a/x"}},
		{"/r1/", []sensor.Topic{"/r1", "/r1/a", "/r1/a/x"}},
		{"/r1/a", []sensor.Topic{"/r1/a", "/r1/a/x"}},
		{"/r10", []sensor.Topic{"/r10/b"}},
		{"/r9", nil},
		{"/r1/a/x", []sensor.Topic{"/r1/a/x"}},
	} {
		if got := ix.Prefix(tc.prefix, nil); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Prefix(%q) = %v, want %v", tc.prefix, got, tc.want)
		}
	}
}

// TestTopicIndexMatchesHasPrefix cross-checks the interval arithmetic
// against the reference semantics: for every prefix, the index answer
// must equal filtering the sorted namespace with Topic.HasPrefix.
func TestTopicIndexMatchesHasPrefix(t *testing.T) {
	ix := newIndex()
	var all []sensor.Topic
	for r := 0; r < 3; r++ {
		for n := 0; n < 12; n++ {
			tp := sensor.Topic(fmt.Sprintf("/r%d/n%d/power", r, n))
			all = append(all, tp)
			ix.Add(tp)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, prefix := range []sensor.Topic{"", "/", "/r1", "/r1/", "/r1/n1", "/r1/n11", "/r3", "/r1/n1/power"} {
		var want []sensor.Topic
		for _, tp := range all {
			if tp.HasPrefix(prefix) {
				want = append(want, tp)
			}
		}
		if got := ix.Prefix(prefix, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("Prefix(%q) = %v, HasPrefix filter %v", prefix, got, want)
		}
	}
}

// TestTopicIndexReset: a reset lists exactly the given set, dropping
// what was added before, and later adds extend it; adds interleaved
// with prefix queries and resets to the full set lose no topic.
func TestTopicIndexReset(t *testing.T) {
	ix := newIndex()
	ix.Add("/a")
	ix.Add("/b")
	ix.Reset(map[sensor.Topic]bool{"/c": true, "/b": true})
	if got := ix.Prefix("", nil); !reflect.DeepEqual(got, []sensor.Topic{"/b", "/c"}) {
		t.Fatalf("after reset = %v", got)
	}
	if got := ix.Prefix("/a", nil); len(got) != 0 {
		t.Fatalf("reset kept dropped topic: %v", got)
	}
	ix.Add("/a")
	if got := ix.Prefix("/a", nil); !reflect.DeepEqual(got, []sensor.Topic{"/a"}) {
		t.Fatalf("re-add after reset = %v", got)
	}

	all := make(map[sensor.Topic]bool)
	for i := 0; i < 64; i++ {
		tp := sensor.Topic(fmt.Sprintf("/r%d/n%d/power", i%4, i))
		all[tp] = true
		ix.Add(tp)
		ix.Prefix("/r1", nil)
		ix.Prefix(tp, nil)
		if i%8 == 7 {
			ix.Reset(maps.Clone(all))
		}
	}
	ix.Reset(maps.Clone(all))
	if got := ix.Prefix("", nil); len(got) != len(all) {
		t.Fatalf("%d topics indexed, want %d", len(got), len(all))
	}
}

// newIndex returns an empty index.
func newIndex() *topicIndex {
	ix := new(topicIndex)
	ix.Reset(map[sensor.Topic]bool{})
	return ix
}

// TestTopicIndexUnderPrune runs inserts that create heads, wildcard
// expansion and prunes that rebuild the index all at once (make race
// runs it under -race): a topic holding a live reading is listed
// whenever TopicsPrefix runs, and at the end every live topic is listed.
func TestTopicIndexUnderPrune(t *testing.T) {
	db := openTest(t, t.TempDir(), Options{})
	defer db.Close()
	const writers, rounds = 4, 300
	// Each writer inserts into its own topics, each reading one second
	// newer than the last of any writer; the pruner trails 40 s behind,
	// so heads empty and topics are unlisted and revived.
	var clock atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				topic := sensor.Topic(fmt.Sprintf("/w%d/t%d", w, i%16))
				db.InsertBatch(topic, []sensor.Reading{{Value: 1, Time: clock.Add(1) * sec}})
				// Only this writer inserts into topic, and the floor only
				// rises: a reading Latest still finds was live when
				// TopicsPrefix ran.
				if got := db.TopicsPrefix(topic); len(got) != 1 {
					if r, ok := db.Latest(topic); ok {
						t.Errorf("%s holds %v, yet TopicsPrefix = %v", topic, r, got)
						return
					}
				}
			}
		}()
	}
	stop := make(chan struct{})
	pruned := make(chan struct{})
	go func() {
		defer close(pruned)
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Prune((clock.Load() - 40) * sec)
			db.TopicsPrefix("")
		}
	}()
	wg.Wait()
	close(stop)
	<-pruned
	listed := make(map[sensor.Topic]bool)
	for _, tp := range db.TopicsPrefix("") {
		listed[tp] = true
	}
	for _, tp := range db.Topics() {
		if !listed[tp] {
			t.Errorf("live topic %s is not listed", tp)
		}
	}
}
