package telemetry

import (
	"math"
	"testing"
)

// TestHistogramBucketEdges pins the edge semantics: an observation
// equal to a bucket's upper bound lands in that bucket (Prometheus
// le = less-or-equal), and anything above the last bound lands in the
// implicit +Inf bucket.
func TestHistogramBucketEdges(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	h := newHistogram(bounds)
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {0.05, 0}, {0.1, 0}, // exactly on the first bound
		{0.1000001, 1}, {1, 1}, // exactly on the second bound
		{5, 2}, {10, 2}, // exactly on the last bound
		{10.5, 3}, {1e9, 3}, // +Inf bucket
	}
	for _, c := range cases {
		before := h.BucketCounts(nil)
		h.Observe(c.v)
		after := h.BucketCounts(nil)
		for i := range after {
			want := before[i]
			if i == c.bucket {
				want++
			}
			if after[i] != want {
				t.Fatalf("Observe(%v): bucket %d count %d, want %d", c.v, i, after[i], want)
			}
		}
		// The linear hot-path scan must agree with binary search.
		if got := searchBounds(bounds, c.v); got != c.bucket && c.bucket < len(bounds) {
			t.Fatalf("searchBounds(%v) = %d, want %d", c.v, got, c.bucket)
		}
	}
	if h.Count() != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
	var sum float64
	for _, c := range cases {
		sum += c.v
	}
	if math.Abs(h.Sum()-sum) > 1e-9*sum {
		t.Fatalf("sum = %v, want %v", h.Sum(), sum)
	}
}

// TestHistogramObserveN: n observations of one value recorded at once
// leave the same buckets, count and sum as n separate ones; n = 0
// records nothing.
func TestHistogramObserveN(t *testing.T) {
	bounds := []float64{1, 16, 256}
	once, each := newHistogram(bounds), newHistogram(bounds)
	runs := []struct {
		v float64
		n uint64
	}{{64, 3}, {1, 1}, {300, 2}, {16, 0}, {64, 5}}
	for _, r := range runs {
		once.ObserveN(r.v, r.n)
		for i := uint64(0); i < r.n; i++ {
			each.Observe(r.v)
		}
	}
	got, want := once.BucketCounts(nil), each.BucketCounts(nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d: %d, observed one by one %d", i, got[i], want[i])
		}
	}
	if once.Count() != 11 || each.Count() != 11 || once.Sum() != each.Sum() {
		t.Fatalf("count/sum = %d/%v, one by one %d/%v, want 11", once.Count(), once.Sum(), each.Count(), each.Sum())
	}
}

func TestHistogramCumulativeSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cum_seconds", "x", []float64{1, 2, 3})
	for _, v := range []float64{0.5, 1.5, 2.5, 2.7, 9} {
		h.Observe(v)
	}
	var got *Sample
	r.Snapshot(func(s *Sample) {
		if s.Name == "cum_seconds" {
			cp := *s
			cp.Buckets = append([]Bucket(nil), s.Buckets...)
			got = &cp
		}
	})
	if got == nil {
		t.Fatal("histogram not in snapshot")
	}
	wantCum := []uint64{1, 2, 4}
	for i, b := range got.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket le=%v cumulative = %d, want %d", b.Le, b.Count, wantCum[i])
		}
	}
	if got.Count != 5 || math.Abs(got.Sum-16.2) > 1e-9 {
		t.Fatalf("count/sum = %d/%v, want 5/16.2", got.Count, got.Sum)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
	lin := LinearBuckets(10, 5, 3)
	want = []float64{10, 15, 20}
	for i := range want {
		if lin[i] != want[i] {
			t.Fatalf("LinearBuckets = %v", lin)
		}
	}
	checkBounds(DefDurationBuckets)
	checkBounds(DefSizeBuckets)
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds did not panic")
		}
	}()
	newHistogram([]float64{1, 1})
}
