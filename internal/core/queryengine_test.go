package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// TestQueryAbsolutePartialCoverageStoreFallback pins the absolute-mode
// fallback contract: when the cache does not reach back to t0 (old
// readings evicted), the Storage Backend must serve the whole range, and
// without a store the cache serves the part it still holds.
func TestQueryAbsolutePartialCoverageStoreFallback(t *testing.T) {
	nav, caches, st, qe := testEnv(t)
	// testEnv caches hold 16..31, the store holds 0..31. Ask for 10..20:
	// partially covered by the cache, fully covered by the store.
	rs := qe.QueryAbsolute("/r0/n0/power", 10*sec, 20*sec, nil)
	if len(rs) != 11 || rs[0].Value != 10 || rs[10].Value != 20 {
		t.Fatalf("store-backed absolute = %+v", rs)
	}
	// Without a store the cache answers with the covered suffix only.
	qe2 := NewQueryEngine(nav, caches, nil)
	rs = qe2.QueryAbsolute("/r0/n0/power", 10*sec, 20*sec, nil)
	if len(rs) != 5 || rs[0].Value != 16 || rs[4].Value != 20 {
		t.Fatalf("cache-only absolute = %+v", rs)
	}
	_ = st
}

// TestAverageStoreFallback covers Average served from the store: sensors
// without a cache must still answer windowed averages when a Storage
// Backend is attached.
func TestAverageStoreFallback(t *testing.T) {
	nav, caches, st, _ := testEnv(t)
	st.InsertBatch("/r9/n9/power", []sensor.Reading{{Value: 10, Time: 100 * sec}})
	st.InsertBatch("/r9/n9/power", []sensor.Reading{{Value: 20, Time: 101 * sec}})
	st.InsertBatch("/r9/n9/power", []sensor.Reading{{Value: 30, Time: 102 * sec}})
	qe := NewQueryEngine(nav, caches, st)
	avg, ok := qe.AggregateRelative("/r9/n9/power", 2*time.Second).Value(store.AggAvg)
	if !ok || avg != 20 {
		t.Fatalf("store average = %v, %v", avg, ok)
	}
	// Unknown sensor: no answer from either source.
	if _, ok := qe.AggregateRelative("/r9/n9/missing", time.Second).Value(store.AggAvg); ok {
		t.Fatal("average of unknown sensor should not be ok")
	}
	// Without a store the sensor is invisible.
	qe2 := NewQueryEngine(nav, caches, nil)
	if _, ok := qe2.AggregateRelative("/r9/n9/power", 2*time.Second).Value(store.AggAvg); ok {
		t.Fatal("cache-only average should not be ok")
	}
}

// TestBoundSensorLateCache exercises the lazy re-resolution of bound
// handles: a handle created before the sensor's cache exists serves store
// fallbacks, then transparently switches to the cache once it appears —
// the lifecycle of every operator-output sensor, whose cache is created by
// the first sink push.
func TestBoundSensorLateCache(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	st := store.New()
	qe := NewQueryEngine(nav, caches, st)

	b := qe.Bind("/n0/derived")
	if _, ok := b.Latest(); ok {
		t.Fatal("latest before any data should not be ok")
	}
	// Data reaches the store first (e.g. a remote component's history).
	st.InsertBatch("/n0/derived", []sensor.Reading{{Value: 1, Time: 1 * sec}})
	if r, ok := b.Latest(); !ok || r.Value != 1 {
		t.Fatalf("store-served latest = %+v, %v", r, ok)
	}
	if rs := b.QueryRelative(time.Second, nil); len(rs) != 1 || rs[0].Value != 1 {
		t.Fatalf("store-served relative = %+v", rs)
	}
	// The cache appears later (first sink push) and takes over.
	c := caches.GetOrCreate("/n0/derived", 16, time.Second)
	c.StoreBatch([]sensor.Reading{{Value: 2, Time: 2 * sec}})
	if r, ok := b.Latest(); !ok || r.Value != 2 {
		t.Fatalf("cache-served latest = %+v, %v", r, ok)
	}
	if avg, ok := b.AggregateRelative(0).Value(store.AggAvg); !ok || avg != 2 {
		t.Fatalf("cache-served average = %v, %v", avg, ok)
	}
	// Absolute windows read the cache only on a cache-only host; beside
	// a store they are the store's (the sink writes both, so a reading
	// held by the cache alone does not arise outside this test).
	cb := NewQueryEngine(nav, caches, nil).Bind("/n0/derived")
	if rs := cb.QueryAbsolute(2*sec, 2*sec, nil); len(rs) != 1 || rs[0].Value != 2 {
		t.Fatalf("cache-served absolute = %+v", rs)
	}
}

// TestBoundQueryMatchesUnbound checks the bound API against the unbound
// one over cache-hit and store-fallback sensors alike.
func TestBoundQueryMatchesUnbound(t *testing.T) {
	_, _, st, qe := testEnv(t)
	st.InsertBatch("/r9/n9/power", []sensor.Reading{{Value: 5, Time: 50 * sec}})
	for _, topic := range []sensor.Topic{"/r0/n0/power", "/r9/n9/power"} {
		b := qe.Bind(topic)
		br, bok := b.Latest()
		ur, uok := qe.Latest(topic)
		if br != ur || bok != uok {
			t.Fatalf("%s: latest bound=%+v,%v unbound=%+v,%v", topic, br, bok, ur, uok)
		}
		brs := b.QueryRelative(5*time.Second, nil)
		urs := qe.QueryRelative(topic, 5*time.Second, nil)
		if len(brs) != len(urs) {
			t.Fatalf("%s: relative bound=%d unbound=%d", topic, len(brs), len(urs))
		}
		brs = b.QueryAbsolute(0, 40*sec, nil)
		urs = qe.QueryAbsolute(topic, 0, 40*sec, nil)
		if len(brs) != len(urs) {
			t.Fatalf("%s: absolute bound=%d unbound=%d", topic, len(brs), len(urs))
		}
		bavg, bok := b.AggregateRelative(5 * time.Second).Value(store.AggAvg)
		uavg, uok := qe.AggregateRelative(topic, 5*time.Second).Value(store.AggAvg)
		if bavg != uavg || bok != uok {
			t.Fatalf("%s: average bound=%v,%v unbound=%v,%v", topic, bavg, bok, uavg, uok)
		}
	}
}

// TestBindUnitIdentity verifies that BindUnit memoises per unit — the
// whole point of the handle: one resolution for the unit's lifetime — and
// that the handles are index-parallel with the unit's topic slices.
func TestBindUnitIdentity(t *testing.T) {
	_, _, _, qe := testEnv(t)
	u := &units.Unit{
		Name:    "/r0/n0/",
		Inputs:  []sensor.Topic{"/r0/n0/power", "/r0/n1/power"},
		Outputs: []sensor.Topic{"/r0/n0/power-agg"},
	}
	bu := qe.BindUnit(u)
	if bu2 := qe.BindUnit(u); bu2 != bu {
		t.Fatal("BindUnit should return the memoised binding")
	}
	if len(bu.Inputs) != 2 || len(bu.Outputs) != 1 {
		t.Fatalf("binding shape = %d in, %d out", len(bu.Inputs), len(bu.Outputs))
	}
	for i, in := range u.Inputs {
		if bu.Inputs[i].Topic != in {
			t.Fatalf("input %d bound to %s, want %s", i, bu.Inputs[i].Topic, in)
		}
	}
	if h, ok := bu.InputNamed("power"); !ok || h != bu.Inputs[0] {
		t.Fatalf("InputNamed(power) = %v, %v", h, ok)
	}
	if _, ok := bu.InputNamed("missing"); ok {
		t.Fatal("InputNamed(missing) should not resolve")
	}
	// A different engine over the same unit must not inherit the binding.
	_, _, _, qe2 := testEnv(t)
	if qe2.BindUnit(u) == bu {
		t.Fatal("binding leaked across query engines")
	}
	// ...and the original engine still gets its own back.
	if qe.BindUnit(u) != bu {
		t.Fatal("original binding lost after cross-engine bind")
	}
}

// TestCacheSinkPushBatch checks that the batched sink path delivers every
// reading, including topic-run grouping, store persistence and series
// forwarding: one forwarded message per topic run.
func TestCacheSinkPushBatch(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	st := store.New()
	var forwarded []Output
	messages := 0
	sink := NewCacheSink(caches, nav, 16, time.Second)
	sink.Store = st
	sink.Forward = func(topic sensor.Topic, rs []sensor.Reading) {
		messages++
		for _, r := range rs {
			forwarded = append(forwarded, Output{Topic: topic, Reading: r})
		}
	}

	outs := []Output{
		{Topic: "/n0/a", Reading: sensor.Reading{Value: 1, Time: 1 * sec}},
		{Topic: "/n0/b", Reading: sensor.Reading{Value: 2, Time: 1 * sec}},
		// A run of three readings on one topic: one cache lock, one
		// store batch, in-order delivery.
		{Topic: "/n0/c", Reading: sensor.Reading{Value: 3, Time: 1 * sec}},
		{Topic: "/n0/c", Reading: sensor.Reading{Value: 4, Time: 2 * sec}},
		{Topic: "/n0/c", Reading: sensor.Reading{Value: 5, Time: 3 * sec}},
	}
	sink.PushBatch(outs)

	for topic, want := range map[sensor.Topic]int{"/n0/a": 1, "/n0/b": 1, "/n0/c": 3} {
		c, ok := caches.Get(topic)
		if !ok || c.Len() != want {
			t.Fatalf("%s: cache len = %v (ok=%v), want %d", topic, c.Len(), ok, want)
		}
		if st.Count(topic) != want {
			t.Fatalf("%s: store count = %d, want %d", topic, st.Count(topic), want)
		}
		if !nav.HasSensor(topic) {
			t.Fatalf("%s: not registered in navigator", topic)
		}
	}
	if len(forwarded) != len(outs) || messages != 3 {
		t.Fatalf("forwarded %d readings in %d messages, want %d in 3", len(forwarded), messages, len(outs))
	}
	cc, _ := caches.Get("/n0/c")
	if rs := cc.ViewAbsolute(1*sec, 3*sec, nil); len(rs) != 3 || rs[2].Value != 5 {
		t.Fatalf("run contents = %+v", rs)
	}
}

// burstCounter counts the bursts that reach a backend.
type burstCounter struct {
	store.Backend
	bursts int
}

func (b *burstCounter) InsertBatches(bs []store.Batch) {
	b.bursts++
	b.Backend.InsertBatches(bs)
}

// TestCacheSinkEmptyBatchSkipsStore: an operator unit that emitted
// nothing — most units on most ticks — costs the store nothing, while
// any output at all is one burst.
func TestCacheSinkEmptyBatchSkipsStore(t *testing.T) {
	st := &burstCounter{Backend: store.New()}
	sink := NewCacheSink(cache.NewSet(), nil, 16, time.Second)
	sink.Store = st
	sink.PushBatch(nil)
	sink.PushBatch([]Output{})
	if st.bursts != 0 {
		t.Fatalf("empty batches reached the store %d times, want 0", st.bursts)
	}
	sink.PushBatch([]Output{
		{Topic: "/n/a", Reading: sensor.Reading{Value: 1, Time: sec}},
		{Topic: "/n/b", Reading: sensor.Reading{Value: 2, Time: sec}},
	})
	if st.bursts != 1 {
		t.Fatalf("a two-topic batch reached the store in %d bursts, want 1", st.bursts)
	}
}

// TestAbsoluteWindowDuringEviction: a writer pushes into a 32-slot ring
// through a CacheSink with a store attached while a reader asks for
// absolute windows starting at the ring's current oldest reading — the
// reading the next push evicts. Every answer must equal the store's.
func TestAbsoluteWindowDuringEviction(t *testing.T) {
	const topic = sensor.Topic("/n0/hot")
	caches := cache.NewSet()
	st := store.New()
	sink := NewCacheSink(caches, nil, 32, time.Second)
	sink.Store = st
	qe := NewQueryEngine(navigator.New(), caches, st)
	sink.PushBatch([]Output{{Topic: topic, Reading: sensor.Reading{Time: 0}}})
	c, _ := caches.Get(topic)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sink.PushBatch([]Output{{Topic: topic, Reading: sensor.Reading{Value: float64(i), Time: i * sec}}})
		}
	}()
	defer func() { close(stop); <-done }()

	var view, got, want []sensor.Reading
	deadline := time.Now().Add(time.Second)
	for n := 0; time.Now().Before(deadline); n++ {
		view = c.ViewRelative(time.Hour, view[:0])
		if len(view) < 8 {
			continue
		}
		// Only the newest cached reading can still be on its way to the
		// store, so a window over the oldest five is settled in both.
		t0, t1 := view[0].Time, view[4].Time
		got = qe.QueryAbsolute(topic, t0, t1, got[:0])
		want = st.Range(topic, t0, t1, want[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("query %d over [%d s, %d s]: QueryAbsolute %d readings, store %d", n, t0/sec, t1/sec, len(got), len(want))
		}
		if g, w := qe.AggregateAbsolute(topic, t0, t1), st.Aggregate(topic, t0, t1); g != w {
			t.Fatalf("query %d over [%d s, %d s]: AggregateAbsolute %+v, store %+v", n, t0/sec, t1/sec, g, w)
		}
	}
}

// TestCacheOnlyAbsoluteAcrossWrap: on a cache-only engine the ring
// answers absolute aggregates and downsamples with the store's own fold
// and bucketing kernels over the ring's two slices. A window across the
// wrap point, and a bucket that straddles it, must equal a per-element
// fold in time order, bit for bit: the two halves are one accumulator,
// not two merged partial sums.
func TestCacheOnlyAbsoluteAcrossWrap(t *testing.T) {
	const topic = sensor.Topic("/n0/wrapped")
	caches := cache.NewSet()
	c := caches.GetOrCreate(topic, 8, time.Second)
	// 13 readings into 8 slots: 5..7 sit at the ring's end, 8..12 at its
	// start. The values span 16 decades, so a sum depends on the order of
	// its additions.
	val := func(i int64) float64 { return math.Pow(10, float64(i*8%17)) / 3 }
	for i := int64(0); i < 13; i++ {
		c.StoreBatch([]sensor.Reading{{Value: val(i), Time: i * sec}})
	}
	qe := NewQueryEngine(navigator.New(), caches, nil)
	b := qe.Bind(topic)
	fold := func(lo, hi int64) store.AggResult {
		var a store.AggResult
		for i := lo; i <= hi; i++ {
			a.Observe(val(i))
		}
		return a
	}
	merged := func(lo, hi int64) store.AggResult {
		a := fold(lo, 7)
		a.Merge(fold(8, hi))
		return a
	}
	if fold(5, 12) == merged(5, 12) || fold(6, 9) == merged(6, 9) {
		t.Fatal("the values do not tell a merge of the two halves from an in-order fold")
	}
	for _, w := range [][2]int64{{5, 12}, {6, 9}, {0, 20}} {
		want := fold(max(w[0], 5), min(w[1], 12))
		if got := qe.AggregateAbsolute(topic, w[0]*sec, w[1]*sec); got != want {
			t.Fatalf("AggregateAbsolute [%d s, %d s] = %+v, per-element fold %+v", w[0], w[1], got, want)
		}
		if got := b.AggregateAbsolute(w[0]*sec, w[1]*sec); got != want {
			t.Fatalf("bound AggregateAbsolute [%d s, %d s] = %+v, per-element fold %+v", w[0], w[1], got, want)
		}
	}
	// Buckets of 4 s from 2 s: [6 s, 10 s) holds 6 and 7 from the ring's
	// end and 8 and 9 from its start.
	want := []store.Bucket{
		{Start: 2 * sec, AggResult: fold(5, 5)},
		{Start: 6 * sec, AggResult: fold(6, 9)},
		{Start: 10 * sec, AggResult: fold(10, 12)},
	}
	if got := qe.Downsample(topic, 2*sec, 20*sec, 4*sec, nil); !slices.Equal(got, want) {
		t.Fatalf("Downsample = %+v, per-element fold %+v", got, want)
	}
	// The caller's buckets are kept as they are, never extended.
	held := []store.Bucket{{Start: 2 * sec, AggResult: fold(0, 0)}}
	if got := b.Downsample(2*sec, 20*sec, 4*sec, held); !slices.Equal(got, append(held, want...)) {
		t.Fatalf("bound Downsample onto a held bucket = %+v", got)
	}
}
