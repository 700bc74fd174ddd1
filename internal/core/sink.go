package core

import (
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/resultcache"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// burstScratch is what PushBatch needs to regroup a batch of outputs into
// one burst: the readings laid out contiguously and the per-topic
// batches that slice them.
type burstScratch struct {
	rs []sensor.Reading
	bs []store.Batch
}

var burstScratchPool = sync.Pool{New: func() any { return new(burstScratch) }}

// CacheSink routes readings into a cache set — creating caches on demand —
// and optionally registers new output sensors in the navigator and
// persists readings to a store. It is the building block of the sinks
// used by Pushers (cache + MQTT) and Collect Agents (cache + store):
// because operator output lands in the same caches as monitoring data,
// operators can consume the output of other operators, forming the
// analysis pipelines of paper §IV-d.
//
// Everything reaches it as a burst of per-topic batches: PushBatch
// regroups operator and sampler output into one, and PushBurst — what the
// agent's broker handler calls — takes the cache lock once per batch and
// the store's write path once per burst.
type CacheSink struct {
	Caches   *cache.Set
	Nav      *navigator.Navigator // optional: register output topics
	Store    store.Backend        // optional: persist readings
	Capacity int                  // cache capacity for new sensors
	Interval time.Duration        // nominal interval for new sensors

	// Forward, when set, receives every delivered batch after the caches,
	// the store and the result cache have it: the Pusher's MQTT publisher.
	// rs may come from a recycled buffer and must not be retained.
	Forward func(topic sensor.Topic, rs []sensor.Reading)

	// Results, when set, receives the write-through invalidation feed of
	// the serving tier's query result cache: every delivered batch
	// publishes its topic's new high-water mark AFTER the readings are
	// visible in the store, so a reader observing the version bump also
	// observes the data (a nil cache accepts and ignores the calls).
	Results *resultcache.Cache
}

// NewCacheSink builds a sink with the given defaults for newly-created
// caches.
func NewCacheSink(caches *cache.Set, nav *navigator.Navigator, capacity int, interval time.Duration) *CacheSink {
	if capacity <= 0 {
		capacity = 256
	}
	if interval <= 0 {
		interval = time.Second
	}
	return &CacheSink{Caches: caches, Nav: nav, Capacity: capacity, Interval: interval}
}

// Series is what a CacheSink resolved for one topic: its sensor cache
// and its result-cache version state — the two per-topic objects a
// delivered batch touches outside the store. Neither is ever dropped by
// its owner (cache.Set and resultcache.Cache only ever add), so a Series
// stays valid for as long as the sink does and an ingest path that sees
// a topic again and again may resolve it once and keep the pointer.
type Series struct {
	cache *cache.Cache
	ver   *resultcache.TopicVersion
}

// Resolve returns the topic's Series, creating its cache — and
// registering the sensor in the navigator — on first sight.
func (s *CacheSink) Resolve(topic sensor.Topic) Series {
	return Series{cache: s.cacheFor(topic), ver: s.Results.Version(topic)}
}

// PushBurst delivers several topics' batches, in order, as one unit —
// what one read burst off a publisher's connection carries. Every batch
// lands in its cache, the whole burst reaches the store through one
// InsertBatches call (one WAL write for a persistent backend), and only
// then are the result-cache marks published and the batches forwarded.
// resolved[i], when non-nil, is this sink's Series for bs[i].Topic and
// spares the batch its lookups; a nil entry, or a resolved slice shorter
// than bs (nil included), has the topic looked up. The slices may come
// from recycled buffers: nothing is retained.
func (s *CacheSink) PushBurst(bs []store.Batch, resolved []*Series) {
	at := func(i int) *Series {
		if i < len(resolved) {
			return resolved[i]
		}
		return nil
	}
	for i, b := range bs {
		if len(b.Readings) == 0 {
			continue
		}
		if sr := at(i); sr != nil {
			sr.cache.StoreBatch(b.Readings)
		} else {
			s.cacheFor(b.Topic).StoreBatch(b.Readings)
		}
	}
	if s.Store != nil {
		s.Store.InsertBatches(bs)
	}
	for i, b := range bs {
		rs := b.Readings
		if len(rs) == 0 {
			continue
		}
		if s.Results != nil {
			minT, maxT := rs[0].Time, rs[0].Time
			for _, r := range rs[1:] {
				if r.Time < minT {
					minT = r.Time
				}
				if r.Time > maxT {
					maxT = r.Time
				}
			}
			if sr := at(i); sr != nil {
				sr.ver.Note(minT, maxT)
			} else {
				s.Results.Note(b.Topic, minT, maxT)
			}
		}
		if s.Forward != nil {
			s.Forward(b.Topic, rs)
		}
	}
}

// PushBatch implements Sink. Outputs are delivered in order, as one
// burst: runs of consecutive outputs sharing a topic collapse into one
// batch, and the store logs the whole batch — an operator tick's
// outputs, a sampler round — with one write. An empty outs returns at
// once: a tick that emitted nothing touches neither the scratch pool nor
// the store.
func (s *CacheSink) PushBatch(outs []Output) {
	if len(outs) == 0 {
		return
	}
	sc := burstScratchPool.Get().(*burstScratch)
	rs, bs := sc.rs[:0], sc.bs[:0]
	for _, o := range outs {
		rs = append(rs, o.Reading)
	}
	for i := 0; i < len(outs); {
		j := i + 1
		for j < len(outs) && outs[j].Topic == outs[i].Topic {
			j++
		}
		bs = append(bs, store.Batch{Topic: outs[i].Topic, Readings: rs[i:j]})
		i = j
	}
	s.PushBurst(bs, nil)
	sc.rs, sc.bs = rs[:0], bs[:0]
	burstScratchPool.Put(sc)
}

// cacheFor returns the topic's cache, creating it — and registering the
// sensor in the navigator — on first sight.
func (s *CacheSink) cacheFor(topic sensor.Topic) *cache.Cache {
	if c, known := s.Caches.Get(topic); known {
		return c
	}
	if s.Nav != nil {
		// AddSensor is idempotent; registering once per new topic keeps
		// the sensor tree in sync with the data flowing through.
		_ = s.Nav.AddSensor(topic)
	}
	return s.Caches.GetOrCreate(topic, s.Capacity, s.Interval)
}
