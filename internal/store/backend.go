package store

import "github.com/dcdb/wintermute/internal/sensor"

// Backend is the Storage Backend contract: ordered per-topic inserts,
// inclusive time-range and latest-reading queries, windowed aggregates
// answered over the backend's own representation, topic enumeration by
// prefix, time-based retention and a statistics summary. The Query
// Engine's store fallback, the cache sinks, the REST tier and the Collect
// Agent all program against this one interface. The agent runs the
// embedded tsdb engine behind it (Cassandra in the upstream deployment);
// tests run the reference Store, or a tsdb, behind the same consumers.
type Backend interface {
	// Insert appends one reading to the topic's series, placing
	// out-of-order arrivals at their sorted position.
	Insert(topic sensor.Topic, r sensor.Reading)
	// InsertBatch appends several readings of one topic in one call,
	// amortising locking (and, for persistent backends, write-ahead
	// logging) over the batch. It is InsertBatches of one batch.
	InsertBatch(topic sensor.Topic, rs []sensor.Reading)
	// InsertBatches appends a burst — several topics' batches, in
	// order — in one call: a persistent backend logs the whole burst
	// with one write before any of it becomes visible, and a returned
	// call is as durable as a returned InsertBatch per element. The
	// slices may come from recycled buffers: implementations consume
	// them before returning and retain nothing.
	InsertBatches(bs []Batch)
	// Range appends the topic's readings with timestamps in [t0, t1]
	// (inclusive) to dst, in timestamp order, and returns the extended
	// slice.
	Range(topic sensor.Topic, t0, t1 int64, dst []sensor.Reading) []sensor.Reading
	// Latest returns the most recent reading of topic, if any.
	Latest(topic sensor.Topic) (sensor.Reading, bool)
	// Count returns the number of readings stored for topic.
	Count(topic sensor.Topic) int
	// Aggregate reduces the readings of topic with timestamps in
	// [t0, t1] (inclusive) to an AggResult, without materializing raw
	// readings for the caller. AggregateNaive defines the semantics.
	Aggregate(topic sensor.Topic, t0, t1 int64) AggResult
	// Downsample reduces the readings of topic in [t0, t1] into
	// consecutive buckets of width step (nanoseconds) aligned to t0,
	// appending only non-empty buckets to dst in time order. A
	// non-positive step yields no buckets. DownsampleNaive defines the
	// semantics.
	Downsample(topic sensor.Topic, t0, t1, step int64, dst []Bucket) []Bucket
	// Topics returns all topics with at least one stored reading, sorted.
	Topics() []sensor.Topic
	// TopicsPrefix returns the sorted topics at or below prefix, matched
	// segment by segment as sensor.Topic.HasPrefix does, that hold at
	// least one stored reading. An empty prefix (or the root) returns
	// every topic.
	TopicsPrefix(prefix sensor.Topic) []sensor.Topic
	// Prune drops all readings strictly older than cutoff (nanoseconds)
	// and returns the number of readings removed.
	Prune(cutoff int64) int
	// Stats reports the backend's storage statistics: one consistent
	// summary per call.
	Stats() BackendStats
}

// Batch is one topic's readings inside a burst: the unit the transport
// delivers (one PUBLISH) and a WAL record logs.
type Batch struct {
	Topic    sensor.Topic
	Readings []sensor.Reading
}

// BackendStats is a point-in-time summary of a Storage Backend, served
// by the REST layer's /storage endpoint. Disk and WAL/segment fields are
// zero for the reference Store.
type BackendStats struct {
	// Kind identifies the backend implementation ("tsdb", or "memory" for
	// the reference Store).
	Kind string `json:"kind"`
	// Topics is the number of series holding at least one reading.
	Topics int `json:"topics"`
	// TotalReadings is the reading count across all series.
	TotalReadings int `json:"total_readings"`
	// DiskBytes is the backend's on-disk footprint (segments + WAL).
	DiskBytes int64 `json:"disk_bytes"`
	// WALFiles and WALBytes describe the write-ahead log.
	WALFiles int   `json:"wal_files"`
	WALBytes int64 `json:"wal_bytes"`
	// Segments is the number of immutable segment files.
	Segments int `json:"segments"`
	// HeadReadings counts readings buffered in mutable head blocks,
	// not yet flushed to segments.
	HeadReadings int `json:"head_readings"`
	// Error reports a degraded backend (e.g. a failing write-ahead log:
	// data is served from memory but no longer durable). Empty when
	// healthy.
	Error string `json:"error,omitempty"`
}

var _ Backend = (*Store)(nil)
