package cache

import (
	"time"

	"github.com/dcdb/wintermute/internal/store"
)

// Aggregation views over the ring buffer. Like the View methods they
// mirror, these come in the two Query Engine modes — relative (O(1)
// bounds from the nominal sampling interval) and absolute (O(log N)
// binary search) — but reduce the window in place instead of copying
// readings out, so the aggregate tick path and the REST /query
// aggregation endpoint touch no per-reading memory outside the ring.

// AggregateRelative reduces the window [latest-lookback, latest] to an
// AggResult in one pass. The window bounds are derived from the nominal
// sampling interval exactly as in ViewRelative; the result is empty
// when the cache is.
func (c *Cache) AggregateRelative(lookback time.Duration) store.AggResult {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var a store.AggResult
	if c.size == 0 {
		return a
	}
	n := int(lookback/c.interval) + 1
	if n > c.size {
		n = c.size
	}
	for i := c.size - n; i < c.size; i++ {
		a.Observe(c.at(i).Value)
	}
	return a
}

// AggregateAbsolute reduces the readings with timestamps in [t0, t1]
// (inclusive) to an AggResult, locating the bounds by binary search.
func (c *Cache) AggregateAbsolute(t0, t1 int64) store.AggResult {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var a store.AggResult
	if c.size == 0 || t1 < t0 {
		return a
	}
	lo := c.searchGE(t0)
	hi := c.searchGE(t1 + 1)
	for i := lo; i < hi; i++ {
		a.Observe(c.at(i).Value)
	}
	return a
}

// DownsampleAbsolute reduces the readings with timestamps in [t0, t1]
// into consecutive buckets of width step aligned to t0, appending only
// non-empty buckets to dst in time order (the semantics of
// store.Backend.Downsample).
func (c *Cache) DownsampleAbsolute(t0, t1, step int64, dst []store.Bucket) []store.Bucket {
	if step <= 0 || t1 < t0 {
		return dst
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	lo := c.searchGE(t0)
	hi := c.searchGE(t1 + 1)
	for i := lo; i < hi; {
		k := (c.at(i).Time - t0) / step
		var a store.AggResult
		for i < hi && (c.at(i).Time-t0)/step == k {
			a.Observe(c.at(i).Value)
			i++
		}
		dst = append(dst, store.Bucket{Start: t0 + k*step, AggResult: a})
	}
	return dst
}
