// Package store implements the DCDB Storage Backend as an embedded,
// concurrency-safe time-series store.
//
// The production DCDB deployment uses Apache Cassandra; every consumer in
// this codebase (Collect Agent inserts, Query Engine fallback reads, REST
// queries) only relies on per-sensor ordered insert and time-range query
// semantics, which this package provides in memory. Distribution and
// replication are orthogonal to all of the paper's experiments (see
// DESIGN.md, substitution table).
package store

import (
	"sort"
	"sync"

	"github.com/dcdb/wintermute/internal/sensor"
)

// Store holds one ordered reading series per sensor topic. The zero value
// is not usable; construct with New.
//
//lint:lockorder Store.mu < series.mu
type Store struct {
	mu           sync.RWMutex
	series       map[sensor.Topic]*series
	maxPerSeries int // readings retained per sensor; 0 means unlimited
	// idx mirrors the series map as a sorted prefix table so wildcard
	// fan-out resolves in O(matches); maintained under s.mu on series
	// creation and prune (lock order: Store.mu < TopicIndex.mu).
	idx *TopicIndex
}

type series struct {
	mu   sync.RWMutex
	data []sensor.Reading
	// dead marks a series Prune has removed from the map. An insert that
	// resolved the pointer before the removal detects the tombstone and
	// re-resolves instead of appending to an orphan.
	dead bool
}

// New creates a store retaining up to maxPerSeries readings per sensor
// (the oldest are evicted first); 0 disables the bound.
func New(maxPerSeries int) *Store {
	return &Store{
		series:       make(map[sensor.Topic]*series),
		maxPerSeries: maxPerSeries,
		idx:          NewTopicIndex(),
	}
}

func (s *Store) get(topic sensor.Topic, create bool) *series {
	s.mu.RLock()
	se := s.series[topic]
	s.mu.RUnlock()
	if se != nil || !create {
		return se
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if se = s.series[topic]; se == nil {
		se = &series{}
		s.series[topic] = se
		s.idx.Add(topic)
	}
	return se
}

// insert places one reading at its sorted position. Callers must hold
// se.mu.
func (se *series) insert(r sensor.Reading) {
	n := len(se.data)
	if n == 0 || se.data[n-1].Time <= r.Time {
		se.data = append(se.data, r)
		return
	}
	i := sort.Search(n, func(i int) bool { return se.data[i].Time > r.Time })
	se.data = append(se.data, sensor.Reading{})
	copy(se.data[i+1:], se.data[i:])
	se.data[i] = r
}

// trim enforces the per-series retention bound. Callers must hold se.mu.
func (se *series) trim(max int) {
	if max > 0 && len(se.data) > max {
		drop := len(se.data) - max
		se.data = append(se.data[:0], se.data[drop:]...)
	}
}

// Insert appends a reading to the series of topic. Readings arriving out
// of timestamp order are placed at their sorted position, so range queries
// always observe a time-ordered series.
func (s *Store) Insert(topic sensor.Topic, r sensor.Reading) {
	for {
		se := s.get(topic, true)
		se.mu.Lock()
		if se.dead {
			se.mu.Unlock()
			continue // pruned away between resolution and lock; re-resolve
		}
		se.insert(r)
		se.trim(s.maxPerSeries)
		se.mu.Unlock()
		return
	}
}

// InsertBatch appends several readings to one topic under a single lock
// acquisition, trimming retention once at the end — the batched-sink
// ingest path of the Collect Agent (one lock per delivered MQTT message
// or operator-unit batch instead of one per reading).
func (s *Store) InsertBatch(topic sensor.Topic, rs []sensor.Reading) {
	s.InsertBatches([]Batch{{Topic: topic, Readings: rs}})
}

// InsertBatches appends a burst of batches in order, each under one
// acquisition of its series lock.
func (s *Store) InsertBatches(bs []Batch) {
	for _, b := range bs {
		if len(b.Readings) == 0 {
			continue
		}
		for {
			se := s.get(b.Topic, true)
			se.mu.Lock()
			if se.dead {
				se.mu.Unlock()
				continue
			}
			for _, r := range b.Readings {
				se.insert(r)
			}
			se.trim(s.maxPerSeries)
			se.mu.Unlock()
			break
		}
	}
}

// Range appends to dst the readings of topic with timestamps in [t0, t1]
// (inclusive) and returns the extended slice.
func (s *Store) Range(topic sensor.Topic, t0, t1 int64, dst []sensor.Reading) []sensor.Reading {
	se := s.get(topic, false)
	if se == nil || t1 < t0 {
		return dst
	}
	se.mu.RLock()
	defer se.mu.RUnlock()
	lo := sort.Search(len(se.data), func(i int) bool { return se.data[i].Time >= t0 })
	hi := sort.Search(len(se.data), func(i int) bool { return se.data[i].Time > t1 })
	return append(dst, se.data[lo:hi]...)
}

// Latest returns the most recent reading of topic, if any.
func (s *Store) Latest(topic sensor.Topic) (sensor.Reading, bool) {
	se := s.get(topic, false)
	if se == nil {
		return sensor.Reading{}, false
	}
	se.mu.RLock()
	defer se.mu.RUnlock()
	if len(se.data) == 0 {
		return sensor.Reading{}, false
	}
	return se.data[len(se.data)-1], true
}

// Count returns the number of readings stored for topic.
func (s *Store) Count(topic sensor.Topic) int {
	se := s.get(topic, false)
	if se == nil {
		return 0
	}
	se.mu.RLock()
	defer se.mu.RUnlock()
	return len(se.data)
}

// Topics returns all topics with at least one stored reading, sorted.
func (s *Store) Topics() []sensor.Topic {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]sensor.Topic, 0, len(s.series))
	for t, se := range s.series {
		se.mu.RLock()
		n := len(se.data)
		se.mu.RUnlock()
		if n > 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Prune drops all readings strictly older than cutoff (nanoseconds) from
// every series, implementing retention (the TTL of the Cassandra schema).
// Series left empty are deleted outright — long-gone sensors must not
// leak map entries (and their topic strings) forever. It returns the
// number of readings removed.
func (s *Store) Prune(cutoff int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for topic, se := range s.series {
		se.mu.Lock()
		lo := sort.Search(len(se.data), func(i int) bool { return se.data[i].Time >= cutoff })
		if lo > 0 {
			removed += lo
			se.data = append(se.data[:0], se.data[lo:]...)
		}
		if len(se.data) == 0 {
			se.dead = true // a racing Insert re-resolves via the tombstone
			delete(s.series, topic)
			se.mu.Unlock()
			// Evict the topic from the prefix index too, so retention
			// leaves no ghost topics behind in wildcard expansion. Still
			// under s.mu: a racing Insert re-creates both entries.
			s.idx.Remove(topic)
			continue
		}
		se.mu.Unlock()
	}
	return removed
}

// TopicsPrefix implements Backend: the sorted topics at or below
// prefix, answered from the incrementally-maintained prefix index in
// O(log n + matches).
func (s *Store) TopicsPrefix(prefix sensor.Topic) []sensor.Topic {
	return s.idx.Prefix(prefix, nil)
}

// TotalReadings returns the number of readings across all series.
func (s *Store) TotalReadings() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, se := range s.series {
		se.mu.RLock()
		n += len(se.data)
		se.mu.RUnlock()
	}
	return n
}
