package store

import (
	"sort"
	"strings"
	"sync"

	"github.com/dcdb/wintermute/internal/sensor"
)

// TopicIndex is a sorted prefix table over the topic namespace: the
// wildcard index that lets `#` fan-out and REST prefix expansion resolve
// in O(log n + matches) instead of scanning (and re-sorting) every topic
// per request. Backends maintain one incrementally — insert adds, prune
// removes — so the read path never pays for namespace size.
//
// Topics are slash-separated paths, so lexicographic order groups a
// component's subtree into one contiguous run: all topics under /r1/
// sort between "/r1/" and "/r10" ('0' is the byte after '/'), and a
// prefix query is two binary searches plus a copy of the matches.
//
// The zero value is not usable; construct with NewTopicIndex. All
// methods are safe for concurrent use. TopicIndex.mu is a leaf in every
// holder's hierarchy except for ResetWith, whose snapshot callback runs
// under it (see the lock-order declaration below and docs/ANALYSIS.md).
//
//lint:lockorder Store.mu < TopicIndex.mu
type TopicIndex struct {
	mu     sync.RWMutex
	sorted []sensor.Topic
	has    map[sensor.Topic]struct{}
}

// NewTopicIndex returns an empty index.
func NewTopicIndex() *TopicIndex {
	return &TopicIndex{has: make(map[sensor.Topic]struct{})}
}

// Len returns the number of indexed topics.
func (ix *TopicIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.sorted)
}

// Has reports whether topic is indexed.
func (ix *TopicIndex) Has(topic sensor.Topic) bool {
	ix.mu.RLock()
	_, ok := ix.has[topic]
	ix.mu.RUnlock()
	return ok
}

// Add indexes a topic, reporting whether it was newly added. Backends
// call it when they create a series' in-memory state, not per batch;
// that still re-adds an indexed topic now and then (tsdb drops a head at
// flush and creates it again), which costs one shared-lock map probe.
func (ix *TopicIndex) Add(topic sensor.Topic) bool {
	ix.mu.RLock()
	_, ok := ix.has[topic]
	ix.mu.RUnlock()
	if ok {
		return false
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.has[topic]; ok {
		return false
	}
	ix.has[topic] = struct{}{}
	i := sort.Search(len(ix.sorted), func(i int) bool { return ix.sorted[i] >= topic })
	ix.sorted = append(ix.sorted, "")
	copy(ix.sorted[i+1:], ix.sorted[i:])
	ix.sorted[i] = topic
	return true
}

// Remove drops a topic from the index, reporting whether it was present.
func (ix *TopicIndex) Remove(topic sensor.Topic) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.has[topic]; !ok {
		return false
	}
	delete(ix.has, topic)
	i := sort.Search(len(ix.sorted), func(i int) bool { return ix.sorted[i] >= topic })
	ix.sorted = append(ix.sorted[:i], ix.sorted[i+1:]...)
	return true
}

// ResetWith atomically replaces the index contents with the topic set
// returned by live, which runs while the index lock is held. Retention
// passes use it to reconcile after bulk removals: because concurrent
// Add calls serialise against the callback, a topic whose data lands
// just before its Add is either visible to live() or re-added right
// after — pruned-away topics disappear, racing inserts never do.
//
// The callback must not call back into this index.
func (ix *TopicIndex) ResetWith(live func() []sensor.Topic) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	topics := live()
	ix.sorted = append(ix.sorted[:0], topics...)
	sort.Slice(ix.sorted, func(i, j int) bool { return ix.sorted[i] < ix.sorted[j] })
	ix.has = make(map[sensor.Topic]struct{}, len(ix.sorted))
	for _, t := range ix.sorted {
		ix.has[t] = struct{}{}
	}
}

// Prefix appends to dst the indexed topics at or below prefix, in sorted
// order, and returns the extended slice. The match is segment-aware
// (/r1/c10 is not below /r1/c1), mirroring sensor.Topic.HasPrefix. An
// empty prefix or the root matches every topic.
func (ix *TopicIndex) Prefix(prefix sensor.Topic, dst []sensor.Topic) []sensor.Topic {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	lo, hi, exact := prefixBounds(ix.sorted, prefix)
	if exact {
		dst = append(dst, prefix.AsSensor())
	}
	return append(dst, ix.sorted[lo:hi]...)
}

// prefixBounds locates the contiguous run of sorted topics strictly
// below prefix, plus whether prefix itself (as a sensor topic) is
// present. The subtree below /p is exactly the lexicographic interval
// ["/p/", "/p0"): '0' is the byte following '/', so every string
// starting with "/p/" — and nothing else — falls inside it.
func prefixBounds(sorted []sensor.Topic, prefix sensor.Topic) (lo, hi int, exact bool) {
	p := strings.TrimSuffix(string(prefix), "/")
	if p == "" {
		return 0, len(sorted), false
	}
	childLo := sensor.Topic(p + "/")
	childHi := sensor.Topic(p + "0")
	lo = sort.Search(len(sorted), func(i int) bool { return sorted[i] >= childLo })
	hi = lo + sort.Search(len(sorted)-lo, func(i int) bool { return sorted[lo+i] >= childHi })
	i := sort.Search(lo, func(i int) bool { return sorted[i] >= sensor.Topic(p) })
	exact = i < lo && sorted[i] == sensor.Topic(p)
	return lo, hi, exact
}
