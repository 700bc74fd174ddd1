package store

import (
	"fmt"
	"sort"

	"github.com/dcdb/wintermute/internal/sensor"
)

// This file defines the aggregation contract of the Storage Backend.
// Wintermute's operators and REST queries consume aggregates over
// windows, not raw readings (paper §IV-d). The tsdb engine answers
// Backend.Aggregate and Backend.Downsample over its own representation
// — streaming compressed chunks, or O(1) from per-chunk pre-aggregates —
// and the naive functions below define the semantics by Range and
// reduce.

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

// ObserveAll folds the values of rs into the accumulator, in order: the
// reduce loop of AggregateNaive, the tsdb head and the sensor cache.
func (a *AggResult) ObserveAll(rs []sensor.Reading) {
	for _, r := range rs {
		a.Observe(r.Value)
	}
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
	a.ObserveAll(b.Range(topic, t0, t1, nil))
	return a
}

// DownsampleNaive is the materializing reference path for Downsample,
// defining the bucketing semantics: buckets are aligned to t0, a
// reading with timestamp t lands in bucket (t-t0)/step, and only
// non-empty buckets are emitted, in time order.
func DownsampleNaive(b Backend, topic sensor.Topic, t0, t1, step int64, dst []Bucket) []Bucket {
	return DownsampleSorted(b.Range(topic, t0, t1, nil), t0, t0, t1, step, dst)
}

// AggregateSorted reduces the readings of a time-sorted slice with
// timestamps in [t0, t1] in one pass: the reduction the tsdb head uses
// over its sorted runs.
func AggregateSorted(rs []sensor.Reading, t0, t1 int64) AggResult {
	var a AggResult
	lo := sort.Search(len(rs), func(i int) bool { return rs[i].Time >= t0 })
	hi := sort.Search(len(rs), func(i int) bool { return rs[i].Time > t1 })
	a.ObserveAll(rs[lo:hi])
	return a
}

// DownsampleSorted buckets the readings of a time-sorted slice: buckets
// aligned to t0, readings clamped to [lo, t1] (lo lets the tsdb apply
// its retention watermark without disturbing bucket alignment), only
// non-empty buckets appended to dst in time order.
func DownsampleSorted(rs []sensor.Reading, t0, lo, t1, step int64, dst []Bucket) []Bucket {
	if step <= 0 || t1 < lo {
		return dst
	}
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Time >= lo })
	hi := sort.Search(len(rs), func(i int) bool { return rs[i].Time > t1 })
	return AppendBuckets(dst, t0, step, rs[i:hi])
}

// AppendBuckets is the bucketing loop of DownsampleNaive, the tsdb head
// and the sensor cache: a reading at t (t >= t0) lands in bucket
// (t-t0)/step, and the non-empty buckets are appended to dst in time
// order. The runs, each time-sorted and none starting before the last
// ended (a wrapped ring's two slices), are read as one sequence, so a
// bucket that straddles two runs is one in-order fold. Buckets dst
// already held are never extended. step must be positive.
func AppendBuckets(dst []Bucket, t0, step int64, runs ...[]sensor.Reading) []Bucket {
	var a AggResult
	var k int64
	for _, rs := range runs {
		for _, r := range rs {
			if rk := (r.Time - t0) / step; rk != k || a.Count == 0 {
				if a.Count > 0 {
					dst = append(dst, Bucket{Start: t0 + k*step, AggResult: a})
				}
				a, k = AggResult{}, rk
			}
			a.Observe(r.Value)
		}
	}
	if a.Count > 0 {
		dst = append(dst, Bucket{Start: t0 + k*step, AggResult: a})
	}
	return dst
}
