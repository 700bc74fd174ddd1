// Package core implements the Wintermute framework itself (paper §IV-V):
// the Query Engine exposing the sensor space to operator plugins, the
// operator abstraction with its online/on-demand modes and
// sequential/parallel unit management, and the Operator Manager that loads
// plugins, instantiates operators from configuration and drives their life
// cycle.
//
// The framework is deliberately agnostic of its host: a Pusher embeds it
// with cache-only visibility of locally-sampled sensors, while a Collect
// Agent embeds it with the entire system's sensor space and a Storage
// Backend fallback. Plugins run unmodified in either location.
package core

import (
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// CacheProvider supplies per-sensor caches; *cache.Set implements it.
type CacheProvider interface {
	Get(topic sensor.Topic) (*cache.Cache, bool)
}

// QueryEngine exposes the space of available sensors to operator plugins
// (paper §V-B). It resolves queries cache-first — local sensor caches are
// much faster than the Storage Backend — and falls back to the store when
// the cache is absent or does not cover the requested range. Relative
// queries compute their cache view in O(1); absolute queries use binary
// search in O(log N).
//
// The fallback is any store.Backend: the embedded tsdb engine in a
// Collect Agent, the reference store.Store in tests, or nothing at all
// (Pushers run cache-only with a nil store). Only the read half of the interface is exercised here.
type QueryEngine struct {
	nav    *navigator.Navigator
	caches CacheProvider
	store  store.Backend
}

// NewQueryEngine builds a query engine over the given sensor tree and
// caches; store may be nil for cache-only hosts (Pushers).
func NewQueryEngine(nav *navigator.Navigator, caches CacheProvider, store store.Backend) *QueryEngine {
	return &QueryEngine{nav: nav, caches: caches, store: store}
}

// Store returns the engine's fallback Storage Backend, nil when the host
// runs cache-only.
func (qe *QueryEngine) Store() store.Backend { return qe.store }

// Navigator returns the sensor-tree navigator, through which plugins
// discover which sensors are available and where they stand in the
// hierarchy.
func (qe *QueryEngine) Navigator() *navigator.Navigator { return qe.nav }

// TopicsPrefix resolves a '#'-style fan-out: the sorted sensors at or
// below prefix (empty or root: all). Hosts with a Storage Backend
// answer from its incrementally-maintained topic index in O(matches) —
// and therefore reflect the topics actually holding data, so retention
// leaves no ghost sensors in wildcard expansion. Cache-only hosts
// (Pushers) fall back to walking the navigator tree.
func (qe *QueryEngine) TopicsPrefix(prefix sensor.Topic) []sensor.Topic {
	if qe.store != nil {
		return qe.store.TopicsPrefix(prefix)
	}
	if prefix == "" || prefix == sensor.Root {
		return qe.nav.AllSensors()
	}
	return qe.nav.SensorsBelow(prefix)
}

// lookup returns the cache for topic, or nil when absent.
func (qe *QueryEngine) lookup(topic sensor.Topic) *cache.Cache {
	if c, ok := qe.caches.Get(topic); ok {
		return c
	}
	return nil
}

// Latest returns the most recent reading of topic, cache-first.
func (qe *QueryEngine) Latest(topic sensor.Topic) (sensor.Reading, bool) {
	return qe.latestIn(qe.lookup(topic), topic)
}

// latestIn answers a latest-reading query against a resolved cache (nil
// when the sensor has none), falling back to the store. It is shared by
// the unbound topic path and the BoundSensor path.
func (qe *QueryEngine) latestIn(c *cache.Cache, topic sensor.Topic) (sensor.Reading, bool) {
	if c != nil {
		if r, ok := c.Latest(); ok {
			return r, true
		}
	}
	if qe.store != nil {
		return qe.store.Latest(topic)
	}
	return sensor.Reading{}, false
}

// QueryRelative appends to dst the readings of topic in the window
// [latest-lookback, latest] — relative mode, O(1) view computation on the
// cache. When the sensor has no cache the store answers instead.
func (qe *QueryEngine) QueryRelative(topic sensor.Topic, lookback time.Duration, dst []sensor.Reading) []sensor.Reading {
	return qe.relativeIn(qe.lookup(topic), topic, lookback, dst)
}

// relativeIn answers a relative query against a resolved cache, falling
// back to the store when the cache is absent or empty.
func (qe *QueryEngine) relativeIn(c *cache.Cache, topic sensor.Topic, lookback time.Duration, dst []sensor.Reading) []sensor.Reading {
	if c != nil {
		// A non-empty cache always yields at least one reading, so growth
		// of dst doubles as the hit test and saves a second cache lock.
		if out := c.ViewRelative(lookback, dst); len(out) > len(dst) {
			return out
		}
	}
	if qe.store != nil {
		if latest, ok := qe.store.Latest(topic); ok {
			return qe.store.Range(topic, latest.Time-int64(lookback), latest.Time, dst)
		}
	}
	return dst
}

// QueryAbsolute appends to dst the readings of topic with timestamps in
// [t0, t1] — absolute mode, O(log N) binary search on the cache. When the
// cache does not cover the start of the range (old readings evicted), the
// Storage Backend serves the query instead, if available.
func (qe *QueryEngine) QueryAbsolute(topic sensor.Topic, t0, t1 int64, dst []sensor.Reading) []sensor.Reading {
	return qe.absoluteIn(qe.lookup(topic), topic, t0, t1, dst)
}

// absoluteIn answers an absolute query against a resolved cache, falling
// back to the store when the cache is absent, empty, or does not cover
// the start of the range.
func (qe *QueryEngine) absoluteIn(c *cache.Cache, topic sensor.Topic, t0, t1 int64, dst []sensor.Reading) []sensor.Reading {
	if c != nil && c.Len() > 0 {
		oldest, _ := c.Oldest()
		if oldest.Time <= t0 || qe.store == nil {
			return c.ViewAbsolute(t0, t1, dst)
		}
	}
	if qe.store != nil {
		return qe.store.Range(topic, t0, t1, dst)
	}
	return dst
}

// Average returns the mean of the readings of topic over the relative
// window [latest-lookback, latest], serving the REST /average endpoint.
func (qe *QueryEngine) Average(topic sensor.Topic, lookback time.Duration) (float64, bool) {
	return qe.averageIn(qe.lookup(topic), topic, lookback)
}

// averageIn answers a windowed-average query against a resolved cache,
// falling back to the store. It is the aggregation path specialised to
// AggAvg: the store fallback streams through the backend's aggregation
// engine instead of materializing the raw window.
func (qe *QueryEngine) averageIn(c *cache.Cache, topic sensor.Topic, lookback time.Duration) (float64, bool) {
	return qe.aggregateRelativeIn(c, topic, lookback).Value(store.AggAvg)
}
