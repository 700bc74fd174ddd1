// Package cache implements the in-memory sensor caches used by DCDB
// pushers and collect agents for fast access to recent readings.
//
// Each sensor owns one Cache: a fixed-capacity ring buffer of readings
// ordered by insertion time. The cache supports the two view modes of the
// Wintermute Query Engine (paper §V-B):
//
//   - relative mode: timestamps are offsets against the most recent
//     reading; because the cache knows its nominal sampling interval, the
//     slice bounds of the view are computed in O(1);
//   - absolute mode: explicit timestamp ranges resolved with binary search
//     over the buffered readings, O(log N).
package cache

import (
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
)

// Cache is a concurrency-safe ring buffer of readings for one sensor.
// The zero value is not usable; construct with New.
type Cache struct {
	mu       sync.RWMutex
	buf      []sensor.Reading
	start    int // index of oldest reading
	size     int // number of valid readings
	interval time.Duration
}

// New creates a cache holding up to capacity readings sampled at the given
// nominal interval, e.g. New(180, time.Second) retains the 180 s of the
// paper's evaluation. New panics on non-positive capacity or interval,
// since both indicate a configuration bug.
func New(capacity int, interval time.Duration) *Cache {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	if interval <= 0 {
		panic("cache: interval must be positive")
	}
	return &Cache{
		buf:      make([]sensor.Reading, capacity),
		interval: interval,
	}
}

// Interval returns the nominal sampling interval of the cached sensor.
func (c *Cache) Interval() time.Duration { return c.interval }

// Capacity returns the maximum number of readings the cache can hold.
func (c *Cache) Capacity() int { return len(c.buf) }

// Len returns the number of readings currently cached.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.size
}

// StoreBatch appends readings under a single lock acquisition, evicting
// the oldest ones once the cache is full. Readings are expected to arrive
// in non-decreasing timestamp order (the pusher sampling loop guarantees
// this); out-of-order readings are still stored but degrade absolute-mode
// lookups to the enclosing range.
func (c *Cache) StoreBatch(rs []sensor.Reading) {
	if len(rs) == 0 {
		return
	}
	c.mu.Lock()
	for _, r := range rs {
		c.store(r)
	}
	c.mu.Unlock()
}

// store appends one reading. Callers must hold c.mu.
func (c *Cache) store(r sensor.Reading) {
	if c.size < len(c.buf) {
		c.buf[(c.start+c.size)%len(c.buf)] = r
		c.size++
	} else {
		c.buf[c.start] = r
		c.start = (c.start + 1) % len(c.buf)
	}
}

// Latest returns the most recent reading, if any.
func (c *Cache) Latest() (sensor.Reading, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.size == 0 {
		return sensor.Reading{}, false
	}
	return c.at(c.size - 1), true
}

// at returns the i-th reading in chronological order (0 = oldest).
// Callers must hold c.mu.
func (c *Cache) at(i int) sensor.Reading {
	return c.buf[(c.start+i)%len(c.buf)]
}

// ViewRelative appends to dst the readings covering the window
// [latest-lookback, latest] and returns the extended slice. The slice
// bounds are derived from the nominal sampling interval in O(1); only the
// copy into dst is linear in the result size. A lookback of 0 yields just
// the most recent reading, matching the "query interval 0" configuration
// of the paper's Figure 5.
func (c *Cache) ViewRelative(lookback time.Duration, dst []sensor.Reading) []sensor.Reading {
	c.mu.RLock()
	defer c.mu.RUnlock()
	lo, hi := c.relative(lookback)
	return c.appendRange(dst, lo, hi)
}

// ViewAbsolute appends to dst the readings with timestamps in [t0, t1]
// (nanoseconds, inclusive) and returns the extended slice. Bounds are
// located with binary search, O(log N).
func (c *Cache) ViewAbsolute(t0, t1 int64, dst []sensor.Reading) []sensor.Reading {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.appendRange(dst, c.searchGE(t0), c.searchGE(t1+1))
}

// relative returns the chronological bounds [lo, hi) of the window
// [latest-lookback, latest], counted back from the newest reading by the
// nominal sampling interval. Callers must hold c.mu.
func (c *Cache) relative(lookback time.Duration) (lo, hi int) {
	n := int(lookback/c.interval) + 1
	if n > c.size {
		n = c.size
	}
	return c.size - n, c.size
}

// searchGE returns the smallest chronological index whose timestamp is
// >= t, or c.size if none. Callers must hold c.mu. The readings with
// timestamps in [t0, t1] are [searchGE(t0), searchGE(t1+1)), an empty
// range when t1 < t0.
func (c *Cache) searchGE(t int64) int {
	lo, hi := 0, c.size
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.at(mid).Time < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// span returns chronological indices [lo, hi) as at most two slices of
// the ring, split where it wraps; the second is empty unless the window
// crosses the wrap point. Callers must hold c.mu.
func (c *Cache) span(lo, hi int) (head, tail []sensor.Reading) {
	if lo >= hi {
		return nil, nil
	}
	first := (c.start + lo) % len(c.buf)
	end := first + hi - lo
	if end <= len(c.buf) {
		return c.buf[first:end], nil
	}
	return c.buf[first:], c.buf[:end-len(c.buf)]
}

// appendRange copies chronological indices [lo, hi) into dst in at most
// two memmoves across the ring wrap point. Callers must hold c.mu.
func (c *Cache) appendRange(dst []sensor.Reading, lo, hi int) []sensor.Reading {
	head, tail := c.span(lo, hi)
	return append(append(dst, head...), tail...)
}

// setShards is the number of hash shards in a Set; a power of two so the
// shard index is a mask. 64 shards keep the probability of two hot topics
// colliding low even on many-core nodes, at ~64 map headers of overhead.
const setShards = 64

type setShard struct {
	mu     sync.RWMutex
	caches map[sensor.Topic]*Cache
}

// Set is a concurrency-safe collection of caches keyed by sensor topic.
// Pushers and collect agents each own one Set; the Query Engine consults it
// before falling back to the storage backend.
//
// The set is hash-sharded by topic: lookups and inserts for different
// sensors land on different locks, so pusher sampling loops and the
// operator computations querying thousands of sensors do not contend on
// a single global mutex.
type Set struct {
	shards [setShards]setShard
}

// NewSet creates an empty cache set.
func NewSet() *Set {
	s := &Set{}
	for i := range s.shards {
		s.shards[i].caches = make(map[sensor.Topic]*Cache)
	}
	return s
}

// shard maps a topic to its shard with FNV-1a over the topic bytes.
func (s *Set) shard(topic sensor.Topic) *setShard {
	return &s.shards[topic.Hash()&(setShards-1)]
}

// GetOrCreate returns the cache for topic, creating it with the given
// parameters if absent. Existing caches keep their original parameters.
func (s *Set) GetOrCreate(topic sensor.Topic, capacity int, interval time.Duration) *Cache {
	sh := s.shard(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c, ok := sh.caches[topic]; ok {
		return c
	}
	c := New(capacity, interval)
	sh.caches[topic] = c
	return c
}

// Get returns the cache for topic, if present.
func (s *Set) Get(topic sensor.Topic) (*Cache, bool) {
	sh := s.shard(topic)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.caches[topic]
	return c, ok
}

// Topics returns the topics of all caches in the set, in no particular
// order. The snapshot is per-shard consistent, not global: topics created
// concurrently may or may not appear. All 64 shards are traversed exactly
// once; the slice grows as shards are visited rather than pre-sizing via
// Len(), which would lock every shard a second time.
func (s *Set) Topics() []sensor.Topic {
	var out []sensor.Topic
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		if out == nil {
			// Seed capacity from the first shard: with FNV spreading the
			// topics evenly, shard size times shard count approximates the
			// total without a second locking pass.
			out = make([]sensor.Topic, 0, (len(sh.caches)+1)*setShards)
		}
		for t := range sh.caches {
			out = append(out, t)
		}
		sh.mu.RUnlock()
	}
	return out
}

// Len returns the number of caches in the set.
func (s *Set) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.caches)
		sh.mu.RUnlock()
	}
	return n
}
