// Package resultcache memoizes read-path query results for the serving
// tier: dashboards issue the same hot-window aggregates over and over,
// and recomputing them per request makes query cost scale with viewer
// count instead of data change rate ("Operational Data Analytics in
// Practice", PAPERS.md).
//
// The cache is a sharded LRU keyed on (topic-set digest, result kind,
// window, step). Invalidation is write-through: the ingest path
// publishes per-topic version counters and high-water marks (Note), and
// every lookup revalidates its entry against them — an entry whose
// window could overlap data written since it was filled is either
// recomputed or, when a bounded-staleness TTL is configured, served
// stale for at most that long. With TTL zero the cache is strict:
// cached answers are indistinguishable from uncached ones.
//
// The validity protocol (see Stamp) exploits the dominant ingest shape:
// monitoring data arrives in timestamp order, and dashboard windows end
// at or before the ingest frontier. In-order writes strictly beyond an
// entry's window end cannot change its result, so hot entries survive
// continuous ingest; any out-of-order write — or a retention prune —
// invalidates conservatively.
package resultcache

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// shardCount stripes both the LRU and the version registry; a power of
// two so the shard index is a mask (the cache.Set/tsdb sharding idiom).
const shardCount = 64

// Kind discriminates what a cached entry holds: one merged aggregate,
// a downsampled bucket series, or a raw reading range.
type Kind uint8

// The memoizable result kinds. The aggregation operator is deliberately
// not part of the key: aggregate entries carry every moment (count,
// sum, min, max), so one cached window answers avg, min, max, sum and
// count alike.
const (
	KindAggregate Kind = iota + 1
	KindDownsample
	KindRange
)

// Key identifies one memoizable query: the digest of its expanded topic
// set, the result kind, and the absolute window [Start, End] with the
// downsampling step (0 when none). Callers should only cache windows
// whose boundaries are step-aligned — dashboards align their windows,
// so aligned keys are the ones that repeat.
type Key struct {
	// Digest identifies the expanded, ordered topic set (DigestTopics).
	Digest uint64
	// Kind is the result kind stored under this key.
	Kind Kind
	// Start and End bound the absolute query window (inclusive,
	// nanoseconds).
	Start, End int64
	// Step is the downsampling step in nanoseconds, 0 for plain
	// aggregates and ranges.
	Step int64
}

// DigestTopics returns the FNV-1a digest of an ordered topic list, the
// Digest component of a Key. Callers must pass topics in a canonical
// order (wildcard expansion is sorted); a wildcard whose expansion
// changes — a new sensor appearing under the prefix — therefore changes
// the digest and naturally misses the old entry.
func DigestTopics(topics []sensor.Topic) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range topics {
		for i := 0; i < len(t); i++ {
			h ^= uint64(t[i])
			h *= 1099511628211
		}
		h ^= 0xff // topic separator, so ["/a","/b"] != ["/a/b"]
		h *= 1099511628211
	}
	return h
}

// Stamp is the invalidation snapshot paired with a cached value. The
// caller takes it with Begin BEFORE computing the result: any write
// landing during the computation then shows up as a version mismatch at
// lookup time, conservatively invalidating the entry.
type Stamp struct {
	// VerSum is the sum of the per-topic write versions plus the prune
	// generation. Unchanged sum == no writes or prunes at all: the entry
	// is exact.
	VerSum uint64
	// OOOSum counts out-of-order writes (plus the prune generation).
	OOOSum uint64
	// MinHWM is the smallest per-topic high-water mark at fill time.
	// When every topic's frontier already sat at or beyond the window
	// end, later in-order writes land strictly after it and cannot
	// change the result.
	MinHWM int64
}

// TopicVersion is one topic's write-visibility state. The counters are
// atomics so Begin reads them without the writers' lock; Note still
// updates them under mu so ver/ooo/hwm stay a unit. A cache never drops
// a topic's state once created, so the ingest path may resolve it once
// (Cache.Version) and hold the pointer for as long as the cache lives.
type TopicVersion struct {
	mu  sync.Mutex
	ver atomic.Uint64
	ooo atomic.Uint64
	hwm atomic.Int64
}

// verShard is one stripe of the per-topic version registry.
type verShard struct {
	mu sync.RWMutex
	m  map[sensor.Topic]*TopicVersion
}

// entry is one cached result with its invalidation stamp.
type entry struct {
	key    Key
	stamp  Stamp
	filled time.Time
	value  any
}

// lruShard is one stripe of the result LRU.
type lruShard struct {
	mu      sync.Mutex
	entries map[Key]*list.Element
	order   *list.List // front = most recently used
}

// Stats is a point-in-time cache summary.
type Stats struct {
	// Hits counts lookups served exactly (entry provably current).
	Hits uint64
	// Stale counts lookups served within the bounded-staleness TTL
	// despite a version mismatch.
	Stale uint64
	// Misses counts lookups that found nothing servable.
	Misses uint64
	// Entries is the current number of cached results.
	Entries int
}

// Cache is a sharded LRU of memoized query results with write-through
// invalidation. All methods are safe for concurrent use.
//
// No two of its locks are ever held together: a version-registry stripe
// is released before the topic state it resolved is touched, and Get
// revalidates after releasing its LRU stripe.
type Cache struct {
	maxPerShard int
	ttl         time.Duration

	// pruneGen folds retention passes into every stamp: a prune changes
	// answers without any per-topic write, so bumping it invalidates
	// every entry at once.
	pruneGen atomic.Uint64

	vers   [shardCount]verShard
	shards [shardCount]lruShard

	hits, stale, misses atomic.Uint64
}

// New builds a cache holding up to size entries (rounded up to the
// shard count), serving version-mismatched entries for at most ttl
// after fill. size <= 0 returns nil — a nil *Cache is a valid always-
// miss cache, so call sites need no guards. ttl 0 is strict: a cached
// answer is only served while provably identical to a fresh compute.
func New(size int, ttl time.Duration) *Cache {
	if size <= 0 {
		return nil
	}
	per := (size + shardCount - 1) / shardCount
	c := &Cache{maxPerShard: per, ttl: ttl}
	for i := range c.vers {
		c.vers[i].m = make(map[sensor.Topic]*TopicVersion)
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

// Note publishes one ingested batch for topic covering timestamps
// [minT, maxT]: Version(topic).Note(minT, maxT), for a caller that has
// not resolved the topic.
func (c *Cache) Note(topic sensor.Topic, minT, maxT int64) {
	c.Version(topic).Note(minT, maxT)
}

// Version returns the topic's write-visibility state, creating it on
// first sight; nil on a nil cache.
func (c *Cache) Version(topic sensor.Topic) *TopicVersion {
	if c == nil {
		return nil
	}
	vs := &c.vers[topic.Hash()&(shardCount-1)]
	vs.mu.RLock()
	tv := vs.m[topic]
	vs.mu.RUnlock()
	if tv != nil {
		return tv
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if tv = vs.m[topic]; tv == nil {
		tv = &TopicVersion{}
		tv.hwm.Store(math.MinInt64)
		vs.m[topic] = tv
	}
	return tv
}

// Note publishes one ingested batch covering timestamps [minT, maxT]:
// the write-through invalidation feed. Call it AFTER the readings are
// visible in the backend, so a reader that observes the new version also
// observes the data. A batch at or below the topic's previous high-water
// mark counts as out of order. A nil state (no cache) ignores the call.
func (tv *TopicVersion) Note(minT, maxT int64) {
	if tv == nil {
		return
	}
	tv.mu.Lock()
	tv.ver.Add(1)
	if minT <= tv.hwm.Load() {
		tv.ooo.Add(1)
	}
	if maxT > tv.hwm.Load() {
		tv.hwm.Store(maxT)
	}
	tv.mu.Unlock()
}

// NotePrune invalidates every cached entry at once: retention removed
// data, so any window may now answer differently. Wired to the
// backend's prune hook (tsdb.Options.OnPrune).
func (c *Cache) NotePrune() {
	if c == nil {
		return
	}
	c.pruneGen.Add(1)
}

// Begin snapshots the invalidation state of a topic set. Take the stamp
// before computing the result it will guard; hand both to Put.
//
// Read order matters: each topic's high-water mark and out-of-order
// counter are read before its version counter, so any state the stamp
// claims implies the corresponding version bump — and, because Note
// runs after the data lands, implies the computation that follows will
// observe those readings. Overstating ver is safe (the entry validates
// as current only if the compute saw the write); overstating hwm is not
// (it would unlock the beyond-window shortcut for a write the compute
// may have missed).
func (c *Cache) Begin(topics []sensor.Topic) Stamp {
	if c == nil {
		return Stamp{}
	}
	st := Stamp{MinHWM: math.MaxInt64}
	for _, t := range topics {
		vs := &c.vers[t.Hash()&(shardCount-1)]
		vs.mu.RLock()
		tv := vs.m[t]
		vs.mu.RUnlock()
		if tv == nil {
			// Never written through this cache: no frontier to reason
			// about, so disable the beyond-window shortcut for the set.
			st.MinHWM = math.MinInt64
			continue
		}
		if h := tv.hwm.Load(); h < st.MinHWM {
			st.MinHWM = h
		}
		st.OOOSum += tv.ooo.Load()
		st.VerSum += tv.ver.Load()
	}
	g := c.pruneGen.Load()
	st.VerSum += g
	st.OOOSum += g
	return st
}

// Put stores a result under key, guarded by the stamp taken (with
// Begin, over the same topic set the digest covers) before the result
// was computed. The value is shared with every future hit: it must be
// treated as immutable by all parties.
func (c *Cache) Put(key Key, st Stamp, value any) {
	if c == nil {
		return
	}
	sh := &c.shards[shardFor(key)]
	e := &entry{key: key, stamp: st, filled: time.Now(), value: value}
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		el.Value = e
		sh.order.MoveToFront(el)
	} else {
		sh.entries[key] = sh.order.PushFront(e)
		for sh.order.Len() > c.maxPerShard {
			last := sh.order.Back()
			sh.order.Remove(last)
			delete(sh.entries, last.Value.(*entry).key)
		}
	}
	sh.mu.Unlock()
}

// Get returns the cached value for key if a servable entry exists:
// provably current (no writes to the topic set since fill, or only
// in-order writes strictly beyond the window end), or within the
// bounded-staleness TTL. topics must be the same canonical set the
// key's digest was computed from. Entries that are neither current nor
// within the TTL are evicted and reported as misses.
func (c *Cache) Get(key Key, topics []sensor.Topic) (any, bool) {
	if c == nil {
		return nil, false
	}
	sh := &c.shards[shardFor(key)]
	sh.mu.Lock()
	el, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*entry)
	sh.order.MoveToFront(el)
	sh.mu.Unlock()

	// Revalidate outside the LRU stripe lock (lock order: version locks
	// are never taken under lruShard.mu).
	cur := c.Begin(topics)
	switch {
	case cur.VerSum == e.stamp.VerSum:
		// Nothing written or pruned since fill: exact.
		c.hits.Add(1)
		return e.value, true
	case cur.OOOSum == e.stamp.OOOSum && e.stamp.MinHWM >= key.End:
		// Only in-order writes since fill, and at fill every topic's
		// frontier already sat at or beyond the window end — so each of
		// those writes carries a timestamp strictly after End and cannot
		// change this window. Exact despite the version delta.
		c.hits.Add(1)
		return e.value, true
	case c.ttl > 0 && time.Since(e.filled) <= c.ttl:
		c.stale.Add(1)
		return e.value, true
	}
	sh.mu.Lock()
	// Evict only if the slot still holds the entry we judged invalid.
	if el2, ok := sh.entries[key]; ok && el2 == el && el2.Value.(*entry) == e {
		sh.order.Remove(el2)
		delete(sh.entries, key)
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats returns hit/stale/miss counters and the entry count.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:    c.hits.Load(),
		Stale:   c.stale.Load(),
		Misses:  c.misses.Load(),
		Entries: c.Len(),
	}
}

// shardFor mixes a key into its LRU stripe.
func shardFor(k Key) uint64 {
	h := k.Digest
	h ^= uint64(k.Start) * 0x9e3779b97f4a7c15
	h ^= uint64(k.End) * 0xc2b2ae3d27d4eb4f
	h ^= uint64(k.Step) + uint64(k.Kind)
	h ^= h >> 29
	return h & (shardCount - 1)
}
