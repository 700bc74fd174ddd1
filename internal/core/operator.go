package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

// Mode selects an operator's mode of operation (paper §IV-b).
type Mode int

const (
	// Online operators are invoked at regular intervals, producing
	// time-series-like output that feeds management decisions.
	Online Mode = iota
	// OnDemand operators compute only when explicitly invoked through the
	// RESTful API, and propagate output only in the response.
	OnDemand
)

// String returns the configuration keyword for the mode.
func (m Mode) String() string {
	if m == OnDemand {
		return "ondemand"
	}
	return "online"
}

// ParseMode converts a configuration keyword into a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "online":
		return Online, nil
	case "ondemand", "on-demand":
		return OnDemand, nil
	}
	return Online, fmt.Errorf("core: unknown mode %q", s)
}

// Output is one reading produced by an operator for an output sensor.
type Output struct {
	Topic   sensor.Topic
	Reading sensor.Reading
}

// Sink receives the readings produced by operators (and, in a Pusher, by
// sampler plugins), a batch at a time: one operator tick's outputs, one
// sampler round. Implementations must be safe for concurrent use:
// operators tick concurrently, each pushing from its own goroutine. outs
// may alias a recycled buffer: implementations consume it before
// returning and retain nothing. It may be empty.
type Sink interface {
	PushBatch(outs []Output)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(outs []Output)

// PushBatch calls f(outs).
func (f SinkFunc) PushBatch(outs []Output) { f(outs) }

// TickContext carries reusable scratch buffers for a run of unit
// computations, eliminating the per-unit-per-tick heap churn of building
// fresh reading and output slices in every computation. The tick path
// hands each computation a pooled context; Compute implementations slice
// the buffers to zero length, use them, and store any growth back so the
// capacity is retained for the next unit.
//
// A context is owned by exactly one computation at a time; buffers (and
// any output slice aliasing them) are valid only until the tick has
// copied the computation's outputs out.
type TickContext struct {
	// Readings is scratch space for Query Engine calls.
	Readings []sensor.Reading
	// Outputs is scratch space for the produced outputs; Compute
	// conventionally appends into Outputs[:0] and returns the result.
	Outputs []Output
	// Floats is scratch space for intermediate numeric vectors whose
	// lifetime ends with the computation (per-unit feature or sample
	// buffers that are NOT retained in model state).
	Floats []float64
}

// tickCtxPool recycles contexts across ticks. sync.Pool gives effectively
// per-P caching, so steady-state computations keep reusing grown buffers
// without contending for them.
var tickCtxPool = sync.Pool{New: func() any { return new(TickContext) }}

func getTickContext() *TickContext   { return tickCtxPool.Get().(*TickContext) }
func putTickContext(tc *TickContext) { tickCtxPool.Put(tc) }

// tickBuf gathers a sequential operator tick's outputs in unit order,
// copied out of the context the units share, so that the sink receives
// the tick as one batch.
type tickBuf struct {
	outs []Output
}

var tickBufPool = sync.Pool{New: func() any { return new(tickBuf) }}

// Operator is a computational entity performing an ODA task over a set of
// units (paper §V-C1). Implementations usually embed *Base and provide
// Compute.
type Operator interface {
	// Name identifies the operator instance.
	Name() string
	// Plugin names the operator plugin that created this operator.
	Plugin() string
	// Mode returns Online or OnDemand.
	Mode() Mode
	// Interval is the computation interval for Online operators.
	Interval() time.Duration
	// Parallel reports the unit-management policy: parallel units may be
	// computed concurrently (one model per unit); sequential units share
	// one model and are processed in order (paper §IV-c).
	Parallel() bool
	// Units returns the operator's units.
	Units() []*units.Unit
	// Compute performs the analysis for one unit at the given time,
	// returning readings for (a subset of) the unit's output sensors. It
	// runs against the caller's TickContext: the returned outputs may
	// alias the context's buffers and are consumed (copied into the
	// tick's batch or handed to the on-demand caller) before the context
	// is given to the next computation.
	Compute(qe *QueryEngine, u *units.Unit, now time.Time, tc *TickContext) ([]Output, error)
}

// Preparer is implemented by operators with work to do once before their
// units compute, on every tick and every on-demand call: a job operator
// rebuilds its one-unit-per-job set (paper §V-C), and clustering fits the
// one model all its units are points of, so that each unit's Compute only
// publishes its share. A failing Prepare skips the units.
type Preparer interface {
	Prepare(qe *QueryEngine, now time.Time) error
}

// Base carries the configuration and unit set common to all operators.
// Plugin operators embed *Base and implement Compute.
//
// A Base built from a template (OperatorConfig.Build) keeps the template
// and the navigator it resolved against, and follows the tree: before
// each tick or on-demand call, if the navigator's generation moved since
// the units were last resolved, it resolves them again, adding units for
// new domain nodes and replacing, under the same name, units whose
// sensors changed (units.Template.Instantiate). No unit is ever removed.
type Base struct {
	name     string
	plugin   string
	mode     Mode
	interval time.Duration
	parallel bool

	// nav and tmpl are what the units are resolved from; tmpl is nil for
	// an operator that sets its own units.
	nav  *navigator.Navigator
	tmpl *units.Template
	// gen is the navigator generation the units were last resolved at.
	gen atomic.Uint64

	mu    sync.RWMutex
	units []*units.Unit
}

// NewBase constructs the embedded operator core of an operator that sets
// its own units (SetUnits).
func NewBase(name, plugin string, mode Mode, interval time.Duration, parallel bool) *Base {
	if interval <= 0 {
		interval = time.Second
	}
	return &Base{name: name, plugin: plugin, mode: mode, interval: interval, parallel: parallel}
}

// Name implements Operator.
func (b *Base) Name() string { return b.name }

// Plugin implements Operator.
func (b *Base) Plugin() string { return b.plugin }

// Mode implements Operator.
func (b *Base) Mode() Mode { return b.mode }

// Interval implements Operator.
func (b *Base) Interval() time.Duration { return b.interval }

// Parallel implements Operator.
func (b *Base) Parallel() bool { return b.parallel }

// Units implements Operator; the returned slice must not be mutated.
func (b *Base) Units() []*units.Unit {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.units
}

// SetUnits replaces the operator's unit set (used by a Preparer that
// rebuilds its units).
func (b *Base) SetUnits(us []*units.Unit) {
	b.mu.Lock()
	b.units = us
	b.mu.Unlock()
}

// resolve brings the units up to the navigator's current generation.
// The generation is read first, so a topic created while it runs leaves
// the units stale for the next call to see. It holds b.mu throughout, so
// that concurrent resolutions (direct Tick calls are not serialized) store
// each generation with the units resolved at it.
func (b *Base) resolve() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.nav.Generation()
	us, err := b.tmpl.Instantiate(b.nav, b.units)
	b.gen.Store(gen)
	if err != nil {
		return err
	}
	b.units = us
	return nil
}

// follow re-resolves the units of a template-built operator whose tree
// changed since they were resolved; with an unchanged tree it costs one
// atomic load. A tree in which no unit can be built yet leaves the
// operator with none.
func (b *Base) follow() {
	if b.tmpl != nil && b.nav.Generation() != b.gen.Load() {
		_ = b.resolve()
	}
}

// Tick executes one computation round of an operator: it runs the
// operator's Prepare, if any, then computes every unit — sequentially or
// in parallel according to the unit-management policy — and hands the
// sink every unit's outputs, in unit order, as one PushBatch: one burst,
// so one WAL write per operator per tick at a host with a persistent
// store. No output is visible before the tick's last unit has computed.
// Unit failures do not stop other units, matching the isolation expected
// between independent per-unit models: a failing unit's outputs are still
// delivered, and all errors are aggregated with errors.Join so no failure
// is lost. Tick runs under no bound; a Manager's ticks run under its
// Scheduler.
func Tick(op Operator, qe *QueryEngine, sink Sink, now time.Time) error {
	return tickBounded(op, qe, sink, now, nil)
}

// tickBounded is Tick with Prepare and every computation holding a slot
// of sched (see computeUnits).
func tickBounded(op Operator, qe *QueryEngine, sink Sink, now time.Time, sched *Scheduler) error {
	if err := prepare(op, qe, now, sched); err != nil {
		return err
	}
	return computeUnits(op, qe, sink, now, sched, op.Units())
}

// prepare brings op's units up to the sensor tree, if it embeds a Base,
// then runs its Prepare, if it has one, holding one slot of sched.
func prepare(op Operator, qe *QueryEngine, now time.Time, sched *Scheduler) error {
	if f, ok := op.(interface{ follow() }); ok {
		f.follow()
	}
	p, ok := op.(Preparer)
	if !ok {
		return nil
	}
	sched.acquire()
	defer sched.release()
	if err := p.Prepare(qe, now); err != nil {
		return fmt.Errorf("core: %s: prepare: %w", op.Name(), err)
	}
	return nil
}

// computeUnits is the one loop that runs an operator's Compute, for ticks
// and on-demand calls alike. A sequential operator's unit loop runs on
// the calling goroutine, in unit order, holding one slot of sched. A
// parallel operator's units run on one goroutine each, each holding one
// slot while it computes and keeping a copy of its outputs; the copies
// are joined in unit order once all are done. Either way the sink
// receives the tick as one PushBatch.
func computeUnits(op Operator, qe *QueryEngine, sink Sink, now time.Time, sched *Scheduler, us []*units.Unit) error {
	if !op.Parallel() {
		sched.acquire()
		defer sched.release()
		return tickSequential(op, qe, sink, now, us)
	}
	slots := make([][]Output, len(us))
	errs := make([]error, len(us))
	var wg sync.WaitGroup
	for i, u := range us {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched.acquire()
			defer sched.release()
			slots[i], errs[i] = computeUnit(op, qe, u, now)
		}()
	}
	wg.Wait()
	sink.PushBatch(slices.Concat(slots...))
	return errors.Join(errs...)
}

// computeUnit computes one unit on a context of its own and returns a
// copy of the outputs, which may alias the context.
func computeUnit(op Operator, qe *QueryEngine, u *units.Unit, now time.Time) ([]Output, error) {
	tc := getTickContext()
	defer putTickContext(tc)
	outs, err := op.Compute(qe, u, now, tc)
	if err != nil {
		err = fmt.Errorf("core: %s: unit %s: %w", op.Name(), u.Name, err)
	}
	return append([]Output(nil), outs...), err
}

// tickSequential computes the units in order on one context and hands
// the sink their outputs as one batch. It allocates nothing once the
// pools are warm; the gather buffer starts at one output per unit, so a
// fresh one costs one allocation, not one per doubling.
func tickSequential(op Operator, qe *QueryEngine, sink Sink, now time.Time, us []*units.Unit) error {
	tb := tickBufPool.Get().(*tickBuf)
	tb.outs = slices.Grow(tb.outs[:0], len(us))
	tc := getTickContext()
	var errs []error
	for _, u := range us {
		outs, err := op.Compute(qe, u, now, tc)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: %s: unit %s: %w", op.Name(), u.Name, err))
		}
		// Outputs may alias tc: copy them out before the next unit reuses
		// the buffers.
		tb.outs = append(tb.outs, outs...)
	}
	putTickContext(tc)
	sink.PushBatch(tb.outs)
	tickBufPool.Put(tb)
	return errors.Join(errs...)
}
