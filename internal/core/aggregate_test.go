package core

import (
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// aggEnv builds a query engine with one cached sensor (recent window)
// and a store holding the sensor's full history plus a store-only
// sensor with no cache at all.
func aggEnv(t *testing.T) (*QueryEngine, int64) {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	st := store.New()
	sec := int64(time.Second)
	if err := nav.AddSensor("/n/power"); err != nil {
		t.Fatal(err)
	}
	if err := nav.AddSensor("/n/cold"); err != nil {
		t.Fatal(err)
	}
	c := caches.GetOrCreate("/n/power", 10, time.Second)
	for i := 0; i < 100; i++ {
		r := sensor.Reading{Time: int64(i) * sec, Value: float64(i)}
		st.InsertBatch("/n/power", []sensor.Reading{r})
		if i >= 90 {
			c.StoreBatch([]sensor.Reading{r}) // cache holds only the newest 10
		}
		st.InsertBatch("/n/cold", []sensor.Reading{{Time: int64(i) * sec, Value: 2 * float64(i)}})
	}
	return NewQueryEngine(nav, caches, st), sec
}

func TestQueryEngineAggregateCacheFirst(t *testing.T) {
	qe, sec := aggEnv(t)
	// Relative window inside the cache: served from the ring.
	a := qe.AggregateRelative("/n/power", 4*time.Second)
	if a.Count != 5 || a.Min != 95 || a.Max != 99 || a.Sum != 485 {
		t.Fatalf("cached relative aggregate = %+v", a)
	}
	// Absolute window starting before the cache's oldest: the store
	// answers with the full history.
	a = qe.AggregateAbsolute("/n/power", 0, 99*sec)
	if a.Count != 100 || a.Min != 0 || a.Max != 99 {
		t.Fatalf("store absolute aggregate = %+v", a)
	}
	// Absolute window the cache covers: served from the ring.
	a = qe.AggregateAbsolute("/n/power", 95*sec, 99*sec)
	if a.Count != 5 || a.Min != 95 {
		t.Fatalf("cached absolute aggregate = %+v", a)
	}
	// No cache at all: store fallback.
	a = qe.AggregateRelative("/n/cold", 4*time.Second)
	if a.Count != 5 || a.Max != 198 {
		t.Fatalf("store relative aggregate = %+v", a)
	}
	if a := qe.AggregateRelative("/missing", time.Minute); a.Count != 0 {
		t.Fatalf("missing sensor aggregate = %+v", a)
	}
}

func TestQueryEngineDownsample(t *testing.T) {
	qe, sec := aggEnv(t)
	buckets := qe.Downsample("/n/power", 0, 99*sec, 25*sec, nil)
	if len(buckets) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(buckets))
	}
	for k, b := range buckets {
		if b.Start != int64(k)*25*sec || b.Count != 25 {
			t.Fatalf("bucket %d = %+v", k, b)
		}
	}
	// Average over each bucket reconstructs the arithmetic series.
	if v, _ := buckets[0].Value(store.AggAvg); v != 12 {
		t.Fatalf("bucket 0 avg = %v, want 12", v)
	}
}

func TestBoundSensorAggregate(t *testing.T) {
	qe, sec := aggEnv(t)
	b := qe.Bind("/n/power")
	if got, want := b.AggregateRelative(4*time.Second), qe.AggregateRelative("/n/power", 4*time.Second); got != want {
		t.Fatalf("bound relative = %+v, unbound %+v", got, want)
	}
	if got, want := b.AggregateAbsolute(0, 99*sec), qe.AggregateAbsolute("/n/power", 0, 99*sec); got != want {
		t.Fatalf("bound absolute = %+v, unbound %+v", got, want)
	}
	gb := b.Downsample(0, 99*sec, 25*sec, nil)
	ub := qe.Downsample("/n/power", 0, 99*sec, 25*sec, nil)
	if len(gb) != len(ub) {
		t.Fatalf("bound downsample %d buckets, unbound %d", len(gb), len(ub))
	}

	// The steady-state cache hit must not allocate: this is the
	// aggregation tick path of operator plugins.
	if allocs := testing.AllocsPerRun(100, func() {
		b.AggregateRelative(4 * time.Second)
	}); allocs != 0 {
		t.Fatalf("bound cached AggregateRelative allocates %.1f/op, want 0", allocs)
	}
}
