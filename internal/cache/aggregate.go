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
// The reduce and bucketing loops are the Storage Backend's own
// (store.AggResult.ObserveAll, store.AppendBuckets), fed the window's
// two ring slices in order as one sequence.

// AggregateRelative reduces the window [latest-lookback, latest] to an
// AggResult in one pass. The window bounds are derived from the nominal
// sampling interval exactly as in ViewRelative; the result is empty
// when the cache is.
func (c *Cache) AggregateRelative(lookback time.Duration) store.AggResult {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.reduce(c.relative(lookback))
}

// AggregateAbsolute reduces the readings with timestamps in [t0, t1]
// (inclusive) to an AggResult, locating the bounds by binary search.
func (c *Cache) AggregateAbsolute(t0, t1 int64) store.AggResult {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.reduce(c.searchGE(t0), c.searchGE(t1+1))
}

// reduce folds chronological indices [lo, hi) into one accumulator,
// both sides of the wrap alike, so the sum is the in-order one.
// Callers must hold c.mu.
func (c *Cache) reduce(lo, hi int) store.AggResult {
	var a store.AggResult
	head, tail := c.span(lo, hi)
	a.ObserveAll(head)
	a.ObserveAll(tail)
	return a
}

// DownsampleAbsolute reduces the readings with timestamps in [t0, t1]
// into consecutive buckets of width step aligned to t0, appending only
// non-empty buckets to dst in time order (the semantics of
// store.Backend.Downsample).
func (c *Cache) DownsampleAbsolute(t0, t1, step int64, dst []store.Bucket) []store.Bucket {
	if step <= 0 {
		return dst
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	head, tail := c.span(c.searchGE(t0), c.searchGE(t1+1))
	return store.AppendBuckets(dst, t0, step, head, tail)
}
