package store

import (
	"fmt"
	"sort"

	"github.com/dcdb/wintermute/internal/sensor"
)

// This file defines the aggregation query contract of the Storage
// Backend layer. Wintermute's operators and on-demand REST queries
// consume aggregated sensor data — averages, extrema, rates over
// windows — not raw readings (paper §IV-d: the aggregator plugin and
// the unit system exist precisely so analytics never rescan raw
// streams). Backend.Aggregate and Backend.Downsample answer such
// queries natively, streaming over the backend's storage
// representation (for the tsdb engine: over compressed chunks, or O(1)
// from per-chunk pre-aggregates) instead of materializing the raw range
// into a slice that the caller then reduces and throws away.

// AggOp names a supported aggregation function over a reading window.
type AggOp uint8

// The aggregation operators of the query engine: arithmetic mean,
// minimum, maximum, sum and reading count.
const (
	AggAvg AggOp = iota
	AggMin
	AggMax
	AggSum
	AggCount
)

// ParseAggOp maps the REST-level operator spelling to an AggOp.
func ParseAggOp(s string) (AggOp, error) {
	switch s {
	case "avg", "mean":
		return AggAvg, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "sum":
		return AggSum, nil
	case "count":
		return AggCount, nil
	}
	return 0, fmt.Errorf("store: unknown aggregation op %q", s)
}

// String returns the canonical spelling of the operator.
func (op AggOp) String() string {
	switch op {
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	}
	return "unknown"
}

// AggResult accumulates the moments every AggOp can be answered from:
// reading count, value sum and extrema. The zero value is the identity
// (an empty window); results merge associatively, so per-chunk
// pre-aggregates, per-tier partials and per-sensor fan-outs all combine
// with the same operation.
type AggResult struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Observe folds one reading value into the accumulator.
func (a *AggResult) Observe(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Sum += v
	a.Count++
}

// Merge folds another accumulator in. Merging the zero value is a
// no-op, so partial results can be combined unconditionally.
func (a *AggResult) Merge(b AggResult) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 || b.Min < a.Min {
		a.Min = b.Min
	}
	if a.Count == 0 || b.Max > a.Max {
		a.Max = b.Max
	}
	a.Sum += b.Sum
	a.Count += b.Count
}

// Value evaluates the operator over the accumulated window; ok is
// false when the window was empty (except for AggCount, which answers
// 0 on an empty window).
func (a AggResult) Value(op AggOp) (float64, bool) {
	if op == AggCount {
		return float64(a.Count), true
	}
	if a.Count == 0 {
		return 0, false
	}
	switch op {
	case AggAvg:
		return a.Sum / float64(a.Count), true
	case AggMin:
		return a.Min, true
	case AggMax:
		return a.Max, true
	case AggSum:
		return a.Sum, true
	}
	return 0, false
}

// Bucket is one time-bucketed aggregate of a downsampling query: the
// readings with timestamps in [Start, Start+step) reduced to an
// AggResult.
type Bucket struct {
	Start int64
	AggResult
}

// AggregateNaive is the materializing reference path: Range the raw
// readings into a slice and reduce it. It defines the semantics every
// Backend.Aggregate implementation must reproduce (the tsdb property
// tests assert the equivalence).
func AggregateNaive(b Backend, topic sensor.Topic, t0, t1 int64) AggResult {
	var a AggResult
	for _, r := range b.Range(topic, t0, t1, nil) {
		a.Observe(r.Value)
	}
	return a
}

// DownsampleNaive is the materializing reference path for Downsample,
// defining the bucketing semantics: buckets are aligned to t0, a
// reading with timestamp t lands in bucket (t-t0)/step, and only
// non-empty buckets are emitted, in time order.
func DownsampleNaive(b Backend, topic sensor.Topic, t0, t1, step int64, dst []Bucket) []Bucket {
	if step <= 0 || t1 < t0 {
		return dst
	}
	return DownsampleSorted(b.Range(topic, t0, t1, nil), t0, t0, t1, step, dst)
}

// AggregateSorted reduces the readings of a time-sorted slice with
// timestamps in [t0, t1] in one pass. It is the shared reduction every
// sorted tier uses: the in-memory store's series and the two runs of a
// tsdb head block.
func AggregateSorted(rs []sensor.Reading, t0, t1 int64) AggResult {
	var a AggResult
	lo := sort.Search(len(rs), func(i int) bool { return rs[i].Time >= t0 })
	hi := sort.Search(len(rs), func(i int) bool { return rs[i].Time > t1 })
	for _, r := range rs[lo:hi] {
		a.Observe(r.Value)
	}
	return a
}

// DownsampleSorted buckets the readings of a time-sorted slice: buckets
// aligned to t0, readings clamped to [lo, t1] (lo lets the tsdb apply
// its retention watermark without disturbing bucket alignment), only
// non-empty buckets appended to dst in time order. Every sorted-slice
// Downsample implementation delegates here so the bucketing semantics
// live in exactly one place.
func DownsampleSorted(rs []sensor.Reading, t0, lo, t1, step int64, dst []Bucket) []Bucket {
	if step <= 0 || t1 < lo {
		return dst
	}
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Time >= lo })
	hi := sort.Search(len(rs), func(i int) bool { return rs[i].Time > t1 })
	for i < hi {
		k := (rs[i].Time - t0) / step
		var a AggResult
		for i < hi && (rs[i].Time-t0)/step == k {
			a.Observe(rs[i].Value)
			i++
		}
		dst = append(dst, Bucket{Start: t0 + k*step, AggResult: a})
	}
	return dst
}

// Aggregate implements Backend natively for the in-memory store:
// one binary search for the window bounds, then a single streaming pass
// over the series slice — no copy of the readings.
func (s *Store) Aggregate(topic sensor.Topic, t0, t1 int64) AggResult {
	se := s.get(topic, false)
	if se == nil || t1 < t0 {
		return AggResult{}
	}
	se.mu.RLock()
	defer se.mu.RUnlock()
	return AggregateSorted(se.data, t0, t1)
}

// Downsample implements Backend natively for the in-memory store,
// emitting buckets in one streaming pass over the sorted series.
func (s *Store) Downsample(topic sensor.Topic, t0, t1, step int64, dst []Bucket) []Bucket {
	se := s.get(topic, false)
	if se == nil {
		return dst
	}
	se.mu.RLock()
	defer se.mu.RUnlock()
	return DownsampleSorted(se.data, t0, t0, t1, step, dst)
}
