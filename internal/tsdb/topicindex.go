package tsdb

import (
	"sort"
	"strings"

	"github.com/dcdb/wintermute/internal/sensor"
)

// topicIndex is a sorted prefix table over the topic namespace: the
// wildcard index that lets `#` fan-out and REST prefix expansion resolve
// in O(log n + matches) instead of scanning (and re-sorting) every topic
// per request. The DB maintains it incrementally — a head's creation
// adds its topic, a retention pass rebuilds it — so the read path never
// pays for namespace size.
//
// Topics are slash-separated paths, so lexicographic order groups a
// component's subtree into one contiguous run: all topics under /r1/
// sort between "/r1/" and "/r10" ('0' is the byte after '/'), and a
// prefix query is two binary searches plus a copy of the matches.
//
// The index has no lock of its own: DB.mu guards it. Readers hold DB.mu
// shared; Add and Reset run with it held exclusively.
type topicIndex struct {
	sorted []sensor.Topic
	has    map[sensor.Topic]bool
}

// Reset makes the index list exactly the topics in set, which it keeps.
func (ix *topicIndex) Reset(set map[sensor.Topic]bool) {
	ix.has = set
	ix.sorted = sortedTopics(set)
}

// Add indexes a topic. The DB calls it when it creates a topic's head
// for a topic the index lacks, not per batch.
func (ix *topicIndex) Add(topic sensor.Topic) {
	if ix.has[topic] {
		return
	}
	ix.has[topic] = true
	i := sort.Search(len(ix.sorted), func(i int) bool { return ix.sorted[i] >= topic })
	ix.sorted = append(ix.sorted, "")
	copy(ix.sorted[i+1:], ix.sorted[i:])
	ix.sorted[i] = topic
}

// Prefix appends to dst the indexed topics at or below prefix, in sorted
// order, and returns the extended slice. The match is segment-aware
// (/r1/c10 is not below /r1/c1), mirroring sensor.Topic.HasPrefix. An
// empty prefix or the root matches every topic.
func (ix *topicIndex) Prefix(prefix sensor.Topic, dst []sensor.Topic) []sensor.Topic {
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
