// Package store defines the DCDB Storage Backend contract (Backend), the
// aggregation types every backend answers with, and Store, a reference
// implementation the tests of other packages use.
//
// Production runs one backend: the Collect Agent always stores into the
// embedded tsdb engine (internal/tsdb). Store is deliberately the
// simplest correct backend — a map of sorted slices under one lock,
// topics listed by sort, prefixes by filter, aggregates by Range and
// reduce — so it can serve as an oracle that shares no index, cache or
// streaming path with the engine it judges.
package store

import (
	"sort"
	"sync"

	"github.com/dcdb/wintermute/internal/sensor"
)

// Store holds one time-sorted reading series per sensor topic under a
// single lock. The zero value is not usable; construct with New.
type Store struct {
	mu     sync.RWMutex
	series map[sensor.Topic][]sensor.Reading
}

// New creates an empty store.
func New() *Store {
	return &Store{series: make(map[sensor.Topic][]sensor.Reading)}
}

// Insert is InsertBatches of one reading.
func (s *Store) Insert(topic sensor.Topic, r sensor.Reading) {
	s.InsertBatches([]Batch{{Topic: topic, Readings: []sensor.Reading{r}}})
}

// InsertBatch is InsertBatches of one batch.
func (s *Store) InsertBatch(topic sensor.Topic, rs []sensor.Reading) {
	s.InsertBatches([]Batch{{Topic: topic, Readings: rs}})
}

// InsertBatches inserts a burst of batches in order, each reading at its
// sorted position after any reading with an equal timestamp, so equal
// timestamps keep arrival order.
func (s *Store) InsertBatches(bs []Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range bs {
		for _, r := range b.Readings {
			rs := s.series[b.Topic]
			i := sort.Search(len(rs), func(i int) bool { return rs[i].Time > r.Time })
			rs = append(rs, sensor.Reading{})
			copy(rs[i+1:], rs[i:])
			rs[i] = r
			s.series[b.Topic] = rs
		}
	}
}

// Range appends to dst the readings of topic with timestamps in [t0, t1]
// (inclusive) and returns the extended slice.
func (s *Store) Range(topic sensor.Topic, t0, t1 int64, dst []sensor.Reading) []sensor.Reading {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs := s.series[topic]
	lo := sort.Search(len(rs), func(i int) bool { return rs[i].Time >= t0 })
	hi := sort.Search(len(rs), func(i int) bool { return rs[i].Time > t1 })
	if lo >= hi {
		return dst
	}
	return append(dst, rs[lo:hi]...)
}

// Latest returns the most recent reading of topic, if any.
func (s *Store) Latest(topic sensor.Topic) (sensor.Reading, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs := s.series[topic]
	if len(rs) == 0 {
		return sensor.Reading{}, false
	}
	return rs[len(rs)-1], true
}

// Count returns the number of readings stored for topic.
func (s *Store) Count(topic sensor.Topic) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.series[topic])
}

// Aggregate implements Backend by AggregateNaive.
func (s *Store) Aggregate(topic sensor.Topic, t0, t1 int64) AggResult {
	return AggregateNaive(s, topic, t0, t1)
}

// Downsample implements Backend by DownsampleNaive.
func (s *Store) Downsample(topic sensor.Topic, t0, t1, step int64, dst []Bucket) []Bucket {
	return DownsampleNaive(s, topic, t0, t1, step, dst)
}

// Topics returns all topics with at least one stored reading, sorted:
// the keys of the series map.
func (s *Store) Topics() []sensor.Topic {
	s.mu.RLock()
	out := make([]sensor.Topic, 0, len(s.series))
	for t := range s.series {
		out = append(out, t)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TopicsPrefix implements Backend by filtering Topics with
// sensor.Topic.HasPrefix.
func (s *Store) TopicsPrefix(prefix sensor.Topic) []sensor.Topic {
	var out []sensor.Topic
	for _, t := range s.Topics() {
		if t.HasPrefix(prefix) {
			out = append(out, t)
		}
	}
	return out
}

// Prune drops all readings strictly older than cutoff (nanoseconds) and
// deletes the series it empties. It returns the number of readings
// removed.
func (s *Store) Prune(cutoff int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for topic, rs := range s.series {
		lo := sort.Search(len(rs), func(i int) bool { return rs[i].Time >= cutoff })
		removed += lo
		if lo == len(rs) {
			delete(s.series, topic)
		} else if lo > 0 {
			s.series[topic] = append(rs[:0], rs[lo:]...)
		}
	}
	return removed
}

// TotalReadings returns the number of readings across all series.
func (s *Store) TotalReadings() int { return s.Stats().TotalReadings }

// Stats implements Backend. Every series holds at least one reading:
// inserts add readings and Prune deletes the series it empties.
func (s *Store) Stats() BackendStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := BackendStats{Kind: "memory", Topics: len(s.series)}
	for _, rs := range s.series {
		st.TotalReadings += len(rs)
	}
	return st
}
