package cache

import (
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// reduce folds a copied view into an AggResult — the reference the
// in-place aggregation views must match.
func reduce(rs []sensor.Reading) store.AggResult {
	var a store.AggResult
	for _, r := range rs {
		a.Observe(r.Value)
	}
	return a
}

// TestCacheAggregateMatchesViews drives the aggregation views against
// reductions of the copying views they mirror, across the ring's wrap
// point (capacity 64, 100 stored readings).
func TestCacheAggregateMatchesViews(t *testing.T) {
	c := New(64, time.Second)
	if a := c.AggregateRelative(time.Minute); a.Count != 0 {
		t.Fatalf("empty cache aggregate = %+v", a)
	}
	for i := 0; i < 100; i++ {
		c.StoreBatch([]sensor.Reading{{Time: int64(i) * int64(time.Second), Value: float64((i * 31) % 17)}})
	}
	for _, lookback := range []time.Duration{0, time.Second, 10 * time.Second, 5 * time.Minute} {
		got := c.AggregateRelative(lookback)
		want := reduce(c.ViewRelative(lookback, nil))
		if got != want {
			t.Fatalf("AggregateRelative(%v) = %+v, view reduce %+v", lookback, got, want)
		}
	}
	sec := int64(time.Second)
	for _, w := range [][2]int64{{0, 99 * sec}, {40 * sec, 60 * sec}, {90 * sec, 300 * sec}, {10 * sec, 5 * sec}} {
		got := c.AggregateAbsolute(w[0], w[1])
		want := reduce(c.ViewAbsolute(w[0], w[1], nil))
		if got != want {
			t.Fatalf("AggregateAbsolute(%d, %d) = %+v, view reduce %+v", w[0], w[1], got, want)
		}
	}
}

// TestCacheDownsampleAbsolute checks bucket alignment and the
// non-empty-only contract against a hand-computed expectation.
func TestCacheDownsampleAbsolute(t *testing.T) {
	c := New(128, time.Second)
	sec := int64(time.Second)
	for i := 0; i < 20; i++ {
		c.StoreBatch([]sensor.Reading{{Time: int64(i) * sec, Value: float64(i)}})
	}
	got := c.DownsampleAbsolute(0, 19*sec, 5*sec, nil)
	if len(got) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(got))
	}
	for k, b := range got {
		if b.Start != int64(k)*5*sec || b.Count != 5 {
			t.Fatalf("bucket %d = %+v", k, b)
		}
		if wantSum := float64(5*k*5 + 10); b.Sum != wantSum {
			t.Fatalf("bucket %d sum = %v, want %v", k, b.Sum, wantSum)
		}
	}
	if got := c.DownsampleAbsolute(0, 19*sec, 0, nil); got != nil {
		t.Fatalf("step 0 yielded buckets: %+v", got)
	}
	// A window past the data yields nothing.
	if got := c.DownsampleAbsolute(100*sec, 200*sec, 5*sec, nil); len(got) != 0 {
		t.Fatalf("out-of-range window yielded %+v", got)
	}
}
