// Package telemetry is the repo's self-monitoring layer: a
// dependency-free, allocation-free metrics registry plus lightweight
// span timing and a structured slow-query log.
//
// The design splits the work into a hot path and a cold path. The hot
// path — Counter.Inc, Gauge.Set, Histogram.Observe — is
// atomic-increment-only: no locks, no allocations, no map lookups.
// Metric handles are resolved once at component construction
// (Registry.Counter, CounterVec.With, ...) and then held in struct
// fields, so instrumented code pays one atomic RMW per event. The cold
// path — registration, Snapshot, WritePrometheus — takes the registry
// lock and runs at scrape cadence.
//
// A process-wide enable switch (SetEnabled) turns every hot-path
// operation into a single atomic load, which is how the paired
// overhead benchmarks measure the instrumentation cost honestly: the
// "off" side still executes the instrumented code, it just bails at
// the gate.
//
// All constructors are nil-receiver safe: a metric minted from a nil
// *Registry is live (it counts) but unattached (nothing exposes it),
// so call sites never need nil checks and tests that do not care about
// telemetry pay nothing for it.
package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// MetricType distinguishes the three exposition families.
type MetricType uint8

// The metric families understood by the registry and the Prometheus
// exposition writer.
const (
	TypeCounter MetricType = iota + 1
	TypeGauge
	TypeHistogram
)

// String returns the Prometheus TYPE keyword for t.
func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// disabled is the process-wide kill switch, stored inverted so the
// zero value means "enabled". Hot paths issue exactly one atomic load
// against it before touching their metric.
var disabled atomic.Bool

// SetEnabled flips the process-wide instrumentation switch. With
// telemetry disabled every Counter.Inc/Gauge.Set/Histogram.Observe
// reduces to one atomic load, and Clock returns the zero time so span
// timing skips time.Now entirely. Registration and Snapshot still
// work; only hot-path mutation is gated.
func SetEnabled(on bool) { disabled.Store(!on) }

// Enabled reports whether hot-path instrumentation is currently live.
func Enabled() bool { return !disabled.Load() }

// Clock returns the current time for span timing, or the zero time
// when telemetry is disabled. Pair it with Histogram.ObserveSince:
//
//	start := telemetry.Clock()
//	... work ...
//	hist.ObserveSince(start)
//
// so the disabled cost is one atomic load and no time.Now call.
func Clock() time.Time {
	if disabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// Counter is a monotonically increasing uint64 metric. The zero value
// is ready to use; counters handed out by a Registry are additionally
// visible to Snapshot and the exposition endpoints.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() {
	if disabled.Load() {
		return
	}
	c.v.Add(1)
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if disabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down, stored as IEEE
// bits in a uint64 so mutation stays lock-free. The zero value is
// ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if disabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (which may be negative) to the gauge via a CAS loop.
func (g *Gauge) Add(delta float64) {
	if disabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a named collection of metrics. Metrics are grouped into
// families (one name, one type, one label-key set); registering the
// same unlabelled name twice returns the same metric, so independent
// components can share a family without coordination. The zero value
// is not usable; call NewRegistry. A nil *Registry is safe: every
// constructor returns a live but unattached metric.
type Registry struct {
	// mu guards the registry and every family in it. Metric values are
	// atomics outside it, and no updater or func callback runs under it.
	mu             sync.RWMutex
	families       map[string]*family
	order          []string // registration-ordered family names, sorted lazily at snapshot
	sorted         bool
	globalUpdaters []*FuncHandle
}

// family holds every child metric sharing one exposition name. Its
// registry's mu guards it.
type family struct {
	name   string
	help   string
	typ    MetricType
	keys   []string  // label keys, empty for unlabelled families
	bounds []float64 // histogram bucket upper bounds

	plain    any            // unlabelled child: *Counter, *Gauge or *Histogram
	children map[string]any // label-values key -> child
	childKey []string       // sorted children keys, rebuilt on registration
	funcs    []*FuncHandle  // callback-backed children, summed per label set
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry used by the daemons. Libraries
// take a *Registry so tests can isolate; main packages pass Default.
var Default = NewRegistry()

// lookup returns the family for name, creating it on first use and
// panicking on a type or label-key mismatch — re-registering a name
// with a different shape is a programming error, not a runtime
// condition. The caller holds r.mu.
func (r *Registry) lookup(name, help string, typ MetricType, keys []string, bounds []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, keys: keys, bounds: bounds}
		r.families[name] = f
		r.order = append(r.order, name)
		r.sorted = false
		return f
	}
	if f.typ != typ || len(f.keys) != len(keys) {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s(%d labels), was %s(%d labels)",
			name, typ, len(keys), f.typ, len(f.keys)))
	}
	for i := range keys {
		if f.keys[i] != keys[i] {
			panic(fmt.Sprintf("telemetry: %s re-registered with label %q, was %q", name, keys[i], f.keys[i]))
		}
	}
	return f
}

// Counter registers (or finds) an unlabelled counter family and
// returns its single child.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, TypeCounter, nil, nil)
	if f.plain == nil {
		f.plain = &Counter{}
	}
	return f.plain.(*Counter)
}

// Gauge registers (or finds) an unlabelled gauge family and returns
// its single child.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, TypeGauge, nil, nil)
	if f.plain == nil {
		f.plain = &Gauge{}
	}
	return f.plain.(*Gauge)
}

// Histogram registers (or finds) an unlabelled histogram family with
// the given bucket upper bounds and returns its single child.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, TypeHistogram, nil, checkBounds(bounds))
	if f.plain == nil {
		f.plain = newHistogram(f.bounds)
	}
	return f.plain.(*Histogram)
}

// FuncHandle is a registered callback metric (GaugeFunc, CounterFunc
// or AddUpdater). Closing it unregisters the callback; components that
// register funcs over their own state must Close the handles before
// tearing that state down.
type FuncHandle struct {
	f      *family // nil for updaters and unattached handles
	r      *Registry
	labels []string
	fn     func() float64
	upd    func() // updater body, exclusive with fn
}

// Close unregisters the callback from its registry. Closing a nil or
// already-closed handle is a no-op.
func (h *FuncHandle) Close() {
	if h == nil || h.r == nil {
		return
	}
	h.r.mu.Lock()
	if h.f != nil {
		h.f.funcs = removeHandle(h.f.funcs, h)
	} else {
		h.r.globalUpdaters = removeHandle(h.r.globalUpdaters, h)
	}
	h.r.mu.Unlock()
	h.r = nil
}

func removeHandle(hs []*FuncHandle, h *FuncHandle) []*FuncHandle {
	for i, x := range hs {
		if x == h {
			return append(hs[:i:i], hs[i+1:]...)
		}
	}
	return hs
}

// GaugeFunc registers a callback-backed gauge. The callback runs at
// snapshot time; when several live handles share one family and label
// set their values are summed, which lets N broker or DB instances
// contribute to one exposition series. labelPairs alternates key,
// value (possibly empty).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) *FuncHandle {
	return r.addFunc(name, help, TypeGauge, fn, labelPairs)
}

// CounterFunc registers a callback-backed counter: like GaugeFunc but
// exposed with counter semantics. The callback must be monotonic.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) *FuncHandle {
	return r.addFunc(name, help, TypeCounter, fn, labelPairs)
}

func (r *Registry) addFunc(name, help string, typ MetricType, fn func() float64, labelPairs []string) *FuncHandle {
	if r == nil {
		return &FuncHandle{}
	}
	keys, vals := splitPairs(labelPairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, typ, keys, nil)
	h := &FuncHandle{f: f, r: r, labels: vals, fn: fn}
	f.funcs = append(f.funcs, h)
	return h
}

// AddUpdater registers a hook that runs once per Snapshot (and
// WritePrometheus) before any family is visited. Use it when one
// expensive stats call feeds several plain gauges: the hook calls the
// source once and Sets each gauge, keeping every derived series
// consistent within a single scrape.
func (r *Registry) AddUpdater(fn func()) *FuncHandle {
	if r == nil {
		return &FuncHandle{}
	}
	h := &FuncHandle{r: r, upd: fn}
	r.mu.Lock()
	r.globalUpdaters = append(r.globalUpdaters, h)
	r.mu.Unlock()
	return h
}

func splitPairs(pairs []string) (keys, vals []string) {
	if len(pairs)%2 != 0 {
		panic("telemetry: label pairs must alternate key, value")
	}
	for i := 0; i < len(pairs); i += 2 {
		keys = append(keys, pairs[i])
		vals = append(vals, pairs[i+1])
	}
	return keys, vals
}
