package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/dcdb/wintermute/internal/sensor"
)

func TestTopicIndexAddRemove(t *testing.T) {
	ix := NewTopicIndex()
	for _, tp := range []sensor.Topic{"/b", "/a", "/c"} {
		if !ix.Add(tp) {
			t.Fatalf("Add(%s) = false on first add", tp)
		}
	}
	if ix.Add("/a") {
		t.Fatal("duplicate Add reported new")
	}
	if ix.Len() != 3 || !ix.Has("/a") || ix.Has("/d") {
		t.Fatalf("Len=%d Has(/a)=%v Has(/d)=%v", ix.Len(), ix.Has("/a"), ix.Has("/d"))
	}
	if got := ix.Prefix("", nil); !reflect.DeepEqual(got, []sensor.Topic{"/a", "/b", "/c"}) {
		t.Fatalf("sorted order = %v", got)
	}
	if !ix.Remove("/b") || ix.Remove("/b") {
		t.Fatal("Remove semantics broken")
	}
	if got := ix.Prefix("", nil); !reflect.DeepEqual(got, []sensor.Topic{"/a", "/c"}) {
		t.Fatalf("after remove = %v", got)
	}
}

// TestTopicIndexPrefix pins the segment-aware interval trick: the
// subtree below /p is exactly ["/p/", "/p0"), so the sibling /r10 never
// leaks into /r1's expansion, and an exact sensor at the prefix itself
// is included.
func TestTopicIndexPrefix(t *testing.T) {
	ix := NewTopicIndex()
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
// must equal filtering the full namespace with Topic.HasPrefix.
func TestTopicIndexMatchesHasPrefix(t *testing.T) {
	ix := NewTopicIndex()
	var all []sensor.Topic
	for r := 0; r < 3; r++ {
		for n := 0; n < 12; n++ {
			tp := sensor.Topic(fmt.Sprintf("/r%d/n%d/power", r, n))
			all = append(all, tp)
			ix.Add(tp)
		}
	}
	for _, prefix := range []sensor.Topic{"", "/", "/r1", "/r1/", "/r1/n1", "/r1/n11", "/r3", "/r1/n1/power"} {
		var want []sensor.Topic
		for _, tp := range all {
			if tp.HasPrefix(prefix) {
				want = append(want, tp)
			}
		}
		got := ix.Prefix(prefix, nil)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		// The reference filter preserves insertion order; sort both via
		// the index's own full listing for comparison.
		wantSet := map[sensor.Topic]bool{}
		for _, tp := range want {
			wantSet[tp] = true
		}
		if len(got) != len(want) {
			t.Fatalf("Prefix(%q): %d matches, want %d", prefix, len(got), len(want))
		}
		for _, tp := range got {
			if !wantSet[tp] {
				t.Fatalf("Prefix(%q) returned %s not matched by HasPrefix", prefix, tp)
			}
		}
	}
}

func TestTopicIndexResetWith(t *testing.T) {
	ix := NewTopicIndex()
	ix.Add("/a")
	ix.Add("/b")
	ix.ResetWith(func() []sensor.Topic { return []sensor.Topic{"/c", "/b"} })
	if got := ix.Prefix("", nil); !reflect.DeepEqual(got, []sensor.Topic{"/b", "/c"}) {
		t.Fatalf("after reset = %v", got)
	}
	if ix.Has("/a") {
		t.Fatal("reset kept dropped topic")
	}
}

// TestTopicIndexConcurrency drives Add/Remove/Prefix/ResetWith from many
// goroutines; run under -race this checks the locking, and the final
// reconcile checks no topic is lost.
func TestTopicIndexConcurrency(t *testing.T) {
	ix := NewTopicIndex()
	var wg sync.WaitGroup
	topics := make([]sensor.Topic, 64)
	for i := range topics {
		topics[i] = sensor.Topic(fmt.Sprintf("/r%d/n%d/power", i%4, i))
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(topics); i += 4 {
				ix.Add(topics[i])
				ix.Prefix("/r1", nil)
				ix.Has(topics[i])
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			ix.ResetWith(func() []sensor.Topic { return topics })
		}
	}()
	wg.Wait()
	ix.ResetWith(func() []sensor.Topic { return topics })
	if ix.Len() != len(topics) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(topics))
	}
}

// TestStoreTopicsPrefixMatchesScan: the indexed answer is the one a
// linear HasPrefix scan over the sorted Topics() listing gives.
func TestStoreTopicsPrefixMatchesScan(t *testing.T) {
	s := New(0)
	for _, tp := range []sensor.Topic{"/r1/n0/power", "/r1/n1/power", "/r10/n0/power", "/r2/n0/power"} {
		s.Insert(tp, sensor.Reading{Value: 1, Time: 1})
	}
	for _, prefix := range []sensor.Topic{"", "/r1", "/r10", "/r2/n0/power", "/r9"} {
		var scan []sensor.Topic
		for _, tp := range s.Topics() {
			if tp.HasPrefix(prefix) {
				scan = append(scan, tp)
			}
		}
		if got := s.TopicsPrefix(prefix); len(got)+len(scan) > 0 && !reflect.DeepEqual(got, scan) {
			t.Errorf("prefix %q: indexed %v != scan %v", prefix, got, scan)
		}
	}
}

// TestStoreTopicIndexPrune is the in-memory ghost regression: a fully
// pruned series must leave wildcard expansion; re-inserting re-adds it.
func TestStoreTopicIndexPrune(t *testing.T) {
	s := New(0)
	s.Insert("/old/x", sensor.Reading{Value: 1, Time: 1})
	s.Insert("/new/y", sensor.Reading{Value: 1, Time: 100})
	if n := s.Prune(50); n != 1 {
		t.Fatalf("pruned %d readings, want 1", n)
	}
	if got := s.TopicsPrefix(""); !reflect.DeepEqual(got, []sensor.Topic{"/new/y"}) {
		t.Fatalf("after prune = %v, want [/new/y]", got)
	}
	if got := s.TopicsPrefix("/old"); len(got) != 0 {
		t.Fatalf("ghost topic in expansion: %v", got)
	}
	s.Insert("/old/x", sensor.Reading{Value: 2, Time: 200})
	if got := s.TopicsPrefix("/old"); !reflect.DeepEqual(got, []sensor.Topic{"/old/x"}) {
		t.Fatalf("re-insert did not re-index: %v", got)
	}
}
