package core

import (
	"fmt"
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
	st.Insert("/r9/n9/power", sensor.Reading{Value: 10, Time: 100 * sec})
	st.Insert("/r9/n9/power", sensor.Reading{Value: 20, Time: 101 * sec})
	st.Insert("/r9/n9/power", sensor.Reading{Value: 30, Time: 102 * sec})
	qe := NewQueryEngine(nav, caches, st)
	avg, ok := qe.Average("/r9/n9/power", 2*time.Second)
	if !ok || avg != 20 {
		t.Fatalf("store average = %v, %v", avg, ok)
	}
	// Unknown sensor: no answer from either source.
	if _, ok := qe.Average("/r9/n9/missing", time.Second); ok {
		t.Fatal("average of unknown sensor should not be ok")
	}
	// Without a store the sensor is invisible.
	qe2 := NewQueryEngine(nav, caches, nil)
	if _, ok := qe2.Average("/r9/n9/power", 2*time.Second); ok {
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
	st.Insert("/n0/derived", sensor.Reading{Value: 1, Time: 1 * sec})
	if r, ok := b.Latest(); !ok || r.Value != 1 {
		t.Fatalf("store-served latest = %+v, %v", r, ok)
	}
	if rs := b.QueryRelative(time.Second, nil); len(rs) != 1 || rs[0].Value != 1 {
		t.Fatalf("store-served relative = %+v", rs)
	}
	// The cache appears later (first sink push) and takes over.
	c := caches.GetOrCreate("/n0/derived", 16, time.Second)
	c.Store(sensor.Reading{Value: 2, Time: 2 * sec})
	if r, ok := b.Latest(); !ok || r.Value != 2 {
		t.Fatalf("cache-served latest = %+v, %v", r, ok)
	}
	if rs := b.QueryAbsolute(2*sec, 2*sec, nil); len(rs) != 1 || rs[0].Value != 2 {
		t.Fatalf("cache-served absolute = %+v", rs)
	}
	if avg, ok := b.Average(0); !ok || avg != 2 {
		t.Fatalf("cache-served average = %v, %v", avg, ok)
	}
}

// TestBoundQueryMatchesUnbound checks the bound API against the unbound
// one over cache-hit and store-fallback sensors alike.
func TestBoundQueryMatchesUnbound(t *testing.T) {
	_, _, st, qe := testEnv(t)
	st.Insert("/r9/n9/power", sensor.Reading{Value: 5, Time: 50 * sec})
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
		bavg, bok := b.Average(5 * time.Second)
		uavg, uok := qe.Average(topic, 5*time.Second)
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

// TestCacheSinkPushBatch checks that the batched sink path delivers the
// same data as per-reading pushes, including topic-run grouping, store
// persistence and series forwarding.
func TestCacheSinkPushBatch(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	st := store.New()
	var forwarded []Output
	sink := NewCacheSink(caches, nav, 16, time.Second)
	sink.Store = st
	sink.Forward = SinkFunc(func(topic sensor.Topic, r sensor.Reading) {
		forwarded = append(forwarded, Output{Topic: topic, Reading: r})
	})

	outs := []Output{
		{Topic: "/n0/a", Reading: sensor.Reading{Value: 1, Time: 1 * sec}},
		{Topic: "/n0/b", Reading: sensor.Reading{Value: 2, Time: 1 * sec}},
		// A run of three readings on one topic: one cache lock, one
		// store batch, in-order delivery.
		{Topic: "/n0/c", Reading: sensor.Reading{Value: 3, Time: 1 * sec}},
		{Topic: "/n0/c", Reading: sensor.Reading{Value: 4, Time: 2 * sec}},
		{Topic: "/n0/c", Reading: sensor.Reading{Value: 5, Time: 3 * sec}},
	}
	PushOutputs(sink, outs)

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
	if len(forwarded) != len(outs) {
		t.Fatalf("forwarded %d readings, want %d", len(forwarded), len(outs))
	}
	cc, _ := caches.Get("/n0/c")
	if rs := cc.ViewAbsolute(1*sec, 3*sec, nil); len(rs) != 3 || rs[2].Value != 5 {
		t.Fatalf("run contents = %+v", rs)
	}
}

// TestPushOutputsShimsPlainSinks verifies the default shim: sinks that
// only implement Push still receive every reading of a batch, in order.
func TestPushOutputsShimsPlainSinks(t *testing.T) {
	var got []Output
	sink := SinkFunc(func(topic sensor.Topic, r sensor.Reading) {
		got = append(got, Output{Topic: topic, Reading: r})
	})
	outs := make([]Output, 5)
	for i := range outs {
		outs[i] = Output{Topic: sensor.Topic(fmt.Sprintf("/n/%d", i)), Reading: sensor.Reading{Value: float64(i)}}
	}
	PushOutputs(sink, outs)
	if len(got) != 5 || got[4].Reading.Value != 4 {
		t.Fatalf("shimmed pushes = %+v", got)
	}
}
