package core

import (
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/sensor"
)

// BoundSensor is a sensor handle resolved once against the Query Engine's
// cache set: the topic together with the cache that serves it. Queries
// through a bound handle skip the per-call topic hash and shard lock of
// cache.Set.Get — the dominant fixed cost of the steady-state tick path —
// and go straight to the ring buffer.
//
// Binding is lazy and sticky: a handle created before the sensor's cache
// exists (operator output sensors are typical — their caches appear on the
// first sink push) re-resolves on every query until the cache shows up,
// then never looks it up again. This is sound because a cache.Set never
// replaces or removes a cache once created (GetOrCreate keeps originals),
// so a resolved pointer cannot go stale.
//
// Handles are safe for concurrent use.
type BoundSensor struct {
	// Topic is the bound sensor topic.
	Topic sensor.Topic

	qe *QueryEngine
	c  atomic.Pointer[cache.Cache]
}

// Bind creates a bound handle for topic. The handle resolves its cache on
// first use and keeps it forever after.
func (qe *QueryEngine) Bind(topic sensor.Topic) *BoundSensor {
	b := &BoundSensor{Topic: topic, qe: qe}
	b.resolved() // bind eagerly when the cache already exists
	return b
}

// resolved returns the sensor's cache, resolving and memoising it on first
// success; nil while no cache exists yet.
func (b *BoundSensor) resolved() *cache.Cache {
	if c := b.c.Load(); c != nil {
		return c
	}
	if c, ok := b.qe.caches.Get(b.Topic); ok {
		b.c.Store(c)
		return c
	}
	return nil
}

// Latest returns the most recent reading, cache-first like
// QueryEngine.Latest but without the topic lookup on the hit path.
func (b *BoundSensor) Latest() (sensor.Reading, bool) {
	return b.qe.latestIn(b.resolved(), b.Topic)
}

// QueryRelative appends to dst the readings in [latest-lookback, latest],
// like QueryEngine.QueryRelative but without the topic lookup on the hit
// path. On the steady-state cache hit it performs zero allocations when
// dst has sufficient capacity.
func (b *BoundSensor) QueryRelative(lookback time.Duration, dst []sensor.Reading) []sensor.Reading {
	return b.qe.relativeIn(b.resolved(), b.Topic, lookback, dst)
}

// QueryAbsolute appends to dst the readings with timestamps in [t0, t1],
// like QueryEngine.QueryAbsolute but without the topic lookup on the hit
// path.
func (b *BoundSensor) QueryAbsolute(t0, t1 int64, dst []sensor.Reading) []sensor.Reading {
	return b.qe.absoluteIn(b.resolved(), b.Topic, t0, t1, dst)
}

// BoundUnit pairs a unit with bound handles for every input and output,
// index-parallel with Unit.Inputs and Unit.Outputs. Operators obtain it
// once per computation via QueryEngine.BindUnit and query through the
// handles, paying the topic resolution once per sensor per unit lifetime
// instead of once per query.
type BoundUnit struct {
	Unit    *units.Unit
	Inputs  []*BoundSensor
	Outputs []*BoundSensor

	qe *QueryEngine
}

// Input returns the bound handle of input i.
func (bu *BoundUnit) Input(i int) *BoundSensor { return bu.Inputs[i] }

// Output returns the bound handle of output i.
func (bu *BoundUnit) Output(i int) *BoundSensor { return bu.Outputs[i] }

// InputNamed returns the bound handle of the input with the given short
// sensor name, if present.
func (bu *BoundUnit) InputNamed(name string) (*BoundSensor, bool) {
	for i, t := range bu.Unit.Inputs {
		if t.Name() == name {
			return bu.Inputs[i], true
		}
	}
	return nil, false
}

// BindUnit returns the unit's bound handles, building and attaching them
// on first use. The binding is stored on the unit itself (not in a side
// table), so dynamic-unit operators that replace their unit set every tick
// do not leak bindings: a binding is garbage-collected with its unit.
//
// The steady-state cost is one atomic load and a type assertion per call.
func (qe *QueryEngine) BindUnit(u *units.Unit) *BoundUnit {
	if b := u.Binding(); b != nil {
		if bu, ok := b.(*BoundUnit); ok && bu.qe == qe {
			return bu
		}
		// Bound against a different engine (only plausible in tests that
		// share units between hosts): serve a fresh, unattached binding.
		return qe.buildBoundUnit(u)
	}
	bu := qe.buildBoundUnit(u)
	if won, ok := u.Bind(bu).(*BoundUnit); ok && won.qe == qe {
		return won // the racing winner, possibly another goroutine's
	}
	return bu
}

func (qe *QueryEngine) buildBoundUnit(u *units.Unit) *BoundUnit {
	bu := &BoundUnit{Unit: u, qe: qe}
	bu.Inputs = make([]*BoundSensor, len(u.Inputs))
	for i, t := range u.Inputs {
		bu.Inputs[i] = qe.Bind(t)
	}
	bu.Outputs = make([]*BoundSensor, len(u.Outputs))
	for i, t := range u.Outputs {
		bu.Outputs[i] = qe.Bind(t)
	}
	return bu
}
