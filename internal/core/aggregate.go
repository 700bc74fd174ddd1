package core

import (
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// Aggregation queries of the Query Engine. They pick their source like
// the raw-reading query modes: a relative window is reduced in place in
// the sensor's cache ring when it holds readings, and an absolute window
// goes to the Storage Backend's own Aggregate/Downsample whenever the
// host has one (for the tsdb engine: per-chunk pre-aggregates and
// streaming decodes). No path materializes raw readings into the
// caller's memory.

// AggregateRelative reduces the window [latest-lookback, latest] of
// topic to an AggResult, cache-first. The result is empty (Count 0)
// when the sensor has no data anywhere.
func (qe *QueryEngine) AggregateRelative(topic sensor.Topic, lookback time.Duration) store.AggResult {
	return qe.aggregateRelativeIn(qe.lookup(topic), topic, lookback)
}

// aggregateRelativeIn answers a relative aggregation against a resolved
// cache, falling back to the store. Shared by the unbound topic path
// and the BoundSensor path.
func (qe *QueryEngine) aggregateRelativeIn(c *cache.Cache, topic sensor.Topic, lookback time.Duration) store.AggResult {
	if c != nil {
		if a := c.AggregateRelative(lookback); a.Count > 0 {
			return a
		}
	}
	if qe.store != nil {
		if latest, ok := qe.store.Latest(topic); ok {
			return qe.store.Aggregate(topic, latest.Time-int64(lookback), latest.Time)
		}
	}
	return store.AggResult{}
}

// AggregateAbsolute reduces the readings of topic with timestamps in
// [t0, t1] to an AggResult: from the Storage Backend when the host has
// one, else from the cache.
func (qe *QueryEngine) AggregateAbsolute(topic sensor.Topic, t0, t1 int64) store.AggResult {
	return qe.aggregateAbsoluteIn(qe.lookup(topic), topic, t0, t1)
}

// aggregateAbsoluteIn answers an absolute aggregation from the store if
// the host has one, else from a resolved cache.
func (qe *QueryEngine) aggregateAbsoluteIn(c *cache.Cache, topic sensor.Topic, t0, t1 int64) store.AggResult {
	if qe.store != nil {
		return qe.store.Aggregate(topic, t0, t1)
	}
	if c != nil {
		return c.AggregateAbsolute(t0, t1)
	}
	return store.AggResult{}
}

// Downsample reduces the readings of topic in [t0, t1] into buckets of
// width step aligned to t0, appending only non-empty buckets to dst in
// time order — from the Storage Backend when the host has one, else
// from the cache.
func (qe *QueryEngine) Downsample(topic sensor.Topic, t0, t1, step int64, dst []store.Bucket) []store.Bucket {
	return qe.downsampleIn(qe.lookup(topic), topic, t0, t1, step, dst)
}

// downsampleIn answers a downsampling query from the store if the host
// has one, else from a resolved cache.
func (qe *QueryEngine) downsampleIn(c *cache.Cache, topic sensor.Topic, t0, t1, step int64, dst []store.Bucket) []store.Bucket {
	if qe.store != nil {
		return qe.store.Downsample(topic, t0, t1, step, dst)
	}
	if c != nil {
		return c.DownsampleAbsolute(t0, t1, step, dst)
	}
	return dst
}

// AggregateRelative reduces the window [latest-lookback, latest], like
// QueryEngine.AggregateRelative but without the topic lookup on the hit
// path. The steady-state cache hit performs zero allocations — this is
// the aggregation tick path of operator plugins.
func (b *BoundSensor) AggregateRelative(lookback time.Duration) store.AggResult {
	return b.qe.aggregateRelativeIn(b.resolved(), b.Topic, lookback)
}

// AggregateAbsolute reduces the readings in [t0, t1], like
// QueryEngine.AggregateAbsolute but without the topic lookup on the hit
// path.
func (b *BoundSensor) AggregateAbsolute(t0, t1 int64) store.AggResult {
	return b.qe.aggregateAbsoluteIn(b.resolved(), b.Topic, t0, t1)
}

// Downsample reduces the readings in [t0, t1] into step-wide buckets,
// like QueryEngine.Downsample but without the topic lookup on the hit
// path.
func (b *BoundSensor) Downsample(t0, t1, step int64, dst []store.Bucket) []store.Bucket {
	return b.qe.downsampleIn(b.resolved(), b.Topic, t0, t1, step, dst)
}
