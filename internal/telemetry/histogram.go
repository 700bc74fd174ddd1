package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram with Prometheus semantics: an
// observation v lands in the first bucket whose upper bound satisfies
// v <= bound, with an implicit +Inf bucket catching the rest. Bounds
// are immutable after construction, so Observe is lock-free: one
// linear scan over a handful of bounds, two atomic adds and one CAS
// loop for the float64 sum.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func checkBounds(bounds []float64) []float64 {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	return bounds
}

func newHistogram(bounds []float64) *Histogram {
	checkBounds(bounds)
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value v at the cost of
// one: a caller with runs of equal values (batch sizes) pays the shared
// atomics once per run, not once per value.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 || disabled.Load() {
		return
	}
	// Bucket count is small (≤ ~16), so a branch-predictable linear
	// scan beats binary search on the hot path.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	h.count.Add(n)
	add := v * float64(n)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + add)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start, as captured by
// Clock. A zero start (telemetry was disabled when the span opened) is
// dropped, so ObserveSince composes with Clock into a span whose
// disabled cost is one atomic load.
func (h *Histogram) ObserveSince(start time.Time) {
	if start.IsZero() || disabled.Load() {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCounts copies the per-bucket (non-cumulative) counts into dst,
// growing it as needed; the last element is the +Inf bucket. It
// returns the filled slice.
func (h *Histogram) BucketCounts(dst []uint64) []uint64 {
	if cap(dst) < len(h.counts) {
		dst = make([]uint64, len(h.counts))
	}
	dst = dst[:len(h.counts)]
	for i := range h.counts {
		dst[i] = h.counts[i].Load()
	}
	return dst
}

// ExpBuckets returns n strictly increasing bounds starting at start
// and multiplying by factor, for registering histograms over
// quantities with multiplicative spread (latencies, sizes).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LinearBuckets returns n bounds starting at start with the given
// positive step.
func LinearBuckets(start, step float64, n int) []float64 {
	if step <= 0 || n < 1 {
		panic("telemetry: LinearBuckets needs step > 0, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*step
	}
	return b
}

// DefDurationBuckets is the default bucket layout for latency
// histograms: 100µs to ~6.5s in powers of two.
var DefDurationBuckets = ExpBuckets(100e-6, 2, 16)

// DefSizeBuckets is the default bucket layout for size/count
// histograms: 1 to 32768 in powers of four.
var DefSizeBuckets = ExpBuckets(1, 4, 8)

// searchBounds is kept for reference/testing parity with the linear
// scan in Observe: both must agree on edge placement (v == bound lands
// in that bucket).
func searchBounds(bounds []float64, v float64) int {
	return sort.SearchFloat64s(bounds, v)
}
