package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

// gauge counts the computations that enter it, and how many of them
// were in it at once at the peak.
type gauge struct {
	active, peak, total atomic.Int32
}

func (g *gauge) enter() {
	g.total.Add(1)
	a := g.active.Add(1)
	for {
		p := g.peak.Load()
		if a <= p || g.peak.CompareAndSwap(p, a) {
			break
		}
	}
}

func (g *gauge) leave() { g.active.Add(-1) }

// blockingOp sleeps in Compute and records how many computations of this
// operator run at once, and, through shared, in a gauge that several
// operators may share.
type blockingOp struct {
	*Base
	dur time.Duration
	gauge
	// shared picks the gauge a computation at now also enters; nil
	// enters none.
	shared func(now time.Time) *gauge
}

func (o *blockingOp) Compute(qe *QueryEngine, u *units.Unit, now time.Time, _ *TickContext) ([]Output, error) {
	var g *gauge
	if o.shared != nil {
		g = o.shared(now)
		g.enter()
		defer g.leave()
	}
	o.enter()
	defer o.leave()
	time.Sleep(o.dur)
	return nil, nil
}

// newBlockingOp builds a sequential one-unit blocking operator.
func newBlockingOp(t testing.TB, nav *navigator.Navigator, name string, dur time.Duration) *blockingOp {
	t.Helper()
	return buildBlockingOp(t, nav, OperatorConfig{
		Name:    name,
		Inputs:  []string{"power"},
		Outputs: []string{"block-" + name},
		Unit:    "/r0/n0/",
	}, dur)
}

// newParallelBlockingOp builds a parallel blocking operator with one
// unit per node of testEnv.
func newParallelBlockingOp(t testing.TB, nav *navigator.Navigator, name string, dur time.Duration) *blockingOp {
	t.Helper()
	return buildBlockingOp(t, nav, OperatorConfig{
		Name:     name,
		Inputs:   []string{"power"},
		Outputs:  []string{"<bottomup>block-" + name},
		Parallel: true,
	}, dur)
}

func buildBlockingOp(t testing.TB, nav *navigator.Navigator, cfg OperatorConfig, dur time.Duration) *blockingOp {
	t.Helper()
	base, err := cfg.Build("blocktest", nav)
	if err != nil {
		t.Fatal(err)
	}
	return &blockingOp{Base: base, dur: dur}
}

var pluginSeq atomic.Int64

// uniquePlugin suffixes name with a per-process counter. The plugin
// registry is process-wide and refuses a name twice, so a test that
// registers a plugin uses a fresh name on every run (go test -count=N).
func uniquePlugin(name string) string {
	return fmt.Sprintf("%s-%d", name, pluginSeq.Add(1))
}

// registerOpList registers a plugin producing ops under a fresh name
// derived from plugin, and returns that name.
func registerOpList(t *testing.T, plugin string, ops ...Operator) string {
	t.Helper()
	name := uniquePlugin(plugin)
	RegisterPlugin(name, func(json.RawMessage, *QueryEngine, Env) ([]Operator, error) {
		return ops, nil
	})
	return name
}

// TestTickAllJoinsErrors verifies that TickAll reports every failing
// operator instead of only the first one.
func TestTickAllJoinsErrors(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	for _, s := range []sensor.Topic{"/r0/n0/hollow", "/r0/n1/hollow"} {
		if err := nav.AddSensor(s); err != nil {
			t.Fatal(err)
		}
	}
	var ops []Operator
	for _, name := range []string{"joinA", "joinB"} {
		cfg := OperatorConfig{
			Name:    name,
			Inputs:  []string{"hollow"},
			Outputs: []string{"hollow-" + name},
			Unit:    "/r0/n" + string(name[len(name)-1]-'A'+'0') + "/",
		}
		base, err := cfg.Build("jointest", nav)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, &avgOperator{Base: base})
	}
	plugin := registerOpList(t, "jointest", ops...)
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	t.Cleanup(m.Close)
	if err := m.LoadPlugin(plugin, nil); err != nil {
		t.Fatal(err)
	}
	err := m.TickAll(time.Unix(1, 0))
	if err == nil {
		t.Fatal("expected errors from both operators")
	}
	for _, name := range []string{"joinA", "joinB"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q is missing operator %s", err, name)
		}
	}
}

// TestTickJoinsUnitErrors verifies that a sequential tick aggregates every
// failing unit instead of dropping all but the first.
func TestTickJoinsUnitErrors(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	for _, s := range []sensor.Topic{"/r0/n0/void", "/r0/n1/void", "/r1/n0/void", "/r1/n1/void"} {
		if err := nav.AddSensor(s); err != nil {
			t.Fatal(err)
		}
	}
	cfg := OperatorConfig{
		Name:    "voidavg",
		Inputs:  []string{"void"},
		Outputs: []string{"<bottomup>void-avg"},
	}
	base, err := cfg.Build("voidtest", nav)
	if err != nil {
		t.Fatal(err)
	}
	op := &avgOperator{Base: base}
	if got := len(op.Units()); got != 4 {
		t.Fatalf("units = %d, want 4", got)
	}
	err = Tick(op, qe, NewCacheSink(caches, nav, 16, time.Second), time.Unix(1, 0))
	if err == nil {
		t.Fatal("expected unit errors")
	}
	for _, unit := range []string{"/r0/n0/", "/r1/n1/"} {
		if !strings.Contains(err.Error(), unit) {
			t.Errorf("error %q is missing unit %s", err, unit)
		}
	}
}

// TestTickAllDispatchesConcurrently verifies that independent operators
// overlap during TickAll once the bound has room for them.
func TestTickAllDispatchesConcurrently(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	var ops []Operator
	for _, name := range []string{"conc0", "conc1", "conc2", "conc3"} {
		ops = append(ops, newBlockingOp(t, nav, name, 10*time.Millisecond))
	}
	plugin := registerOpList(t, "conctest", ops...)
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	t.Cleanup(m.Close)
	m.SetThreads(4)
	if err := m.LoadPlugin(plugin, nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := m.TickAll(time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Sequential execution would need >= 40ms; concurrent dispatch on a
	// bound of 4 needs barely more than 10ms. The generous bound keeps
	// the test robust on loaded CI machines.
	if elapsed >= 35*time.Millisecond {
		t.Errorf("TickAll of 4 blocking operators took %v; expected concurrent dispatch well under 35ms", elapsed)
	}
}

// TestNoOverlappingTicksPerOperator verifies the per-operator serialization
// guarantee: concurrent TickAll calls (and wall-clock loops) never overlap
// two ticks of the same operator.
func TestNoOverlappingTicksPerOperator(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	op := newBlockingOp(t, nav, "serial", time.Millisecond)
	plugin := registerOpList(t, "serialtest", op)
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	t.Cleanup(m.Close)
	m.SetThreads(4)
	if err := m.LoadPlugin(plugin, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				_ = m.TickAll(time.Unix(int64(k), 0))
			}
		}()
	}
	wg.Wait()
	if p := op.peak.Load(); p != 1 {
		t.Errorf("peak concurrent computes of one operator = %d, want 1", p)
	}
	st := m.Status()
	if len(st) != 1 || st[0].Ticks != 40 {
		t.Errorf("status = %+v, want 40 ticks", st)
	}
	if st[0].LastDuration <= 0 {
		t.Errorf("LastDuration = %v, want > 0", st[0].LastDuration)
	}
}

// TestOnDemandSerializedWithTicks extends the guarantee to on-demand
// calls: concurrent OnDemand and TickAll calls never run two computations
// of one sequential operator at once, and on-demand calls count as no
// tick.
func TestOnDemandSerializedWithTicks(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	op := newBlockingOp(t, nav, "serial-od", time.Millisecond)
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	t.Cleanup(m.Close)
	m.SetThreads(4)
	if err := m.AdoptOperator(op); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(onDemand bool) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				var err error
				if onDemand {
					_, err = m.OnDemand("serial-od", "", time.Unix(int64(k), 0))
				} else {
					err = m.TickAll(time.Unix(int64(k), 0))
				}
				if err != nil {
					t.Error(err)
				}
			}
		}(i%2 == 0)
	}
	wg.Wait()
	if p := op.peak.Load(); p != 1 {
		t.Errorf("peak concurrent computes of one sequential operator = %d, want 1", p)
	}
	if st := m.Status(); len(st) != 1 || st[0].Ticks != 20 {
		t.Errorf("status = %+v, want 20 ticks", st)
	}
}

// TestManagerStartStopStatusRace hammers lifecycle, status and tick paths
// from many goroutines; run under -race it guards the lock discipline of
// Manager (including the Status lock-order fix).
func TestManagerStartStopStatusRace(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	var ops []Operator
	for _, name := range []string{"raceA", "raceB", "raceC"} {
		cfg := OperatorConfig{
			Name:       name,
			Inputs:     []string{"power"},
			Outputs:    []string{"<bottomup>race-" + name},
			IntervalMs: 1,
			Parallel:   name == "raceB",
		}
		base, err := cfg.Build("racetest", nav)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, &avgOperator{Base: base})
	}
	plugin := registerOpList(t, "racetest", ops...)
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	t.Cleanup(m.Close)
	if err := m.LoadPlugin(plugin, nil); err != nil {
		t.Fatal(err)
	}
	m.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i {
				case 0:
					_ = m.Status()
				case 1:
					_ = m.TickAll(time.Unix(100, 0))
				case 2:
					_ = m.StopOperator("raceA")
					_ = m.StartOperator("raceA")
				case 3:
					_ = m.Operators()
					_, _ = m.Operator("raceB")
					_ = m.SchedulerStats()
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	m.Stop()
	for _, st := range m.Status() {
		if st.Running {
			t.Errorf("operator %s still running after Stop", st.Name)
		}
	}
}

// TestManagerThreadsConfig verifies the `threads` knob: SetThreads and the
// Config field both set the bound.
func TestManagerThreadsConfig(t *testing.T) {
	_, caches, _, qe := testEnv(t)
	m := NewManager(qe, NewCacheSink(caches, qe.Navigator(), 16, time.Second), Env{})
	t.Cleanup(m.Close)
	m.SetThreads(3)
	if m.Threads() != 3 {
		t.Fatalf("Threads = %d, want 3", m.Threads())
	}
	var cfg Config
	if err := json.Unmarshal([]byte(`{"threads": 2, "plugins": []}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if m.Threads() != 2 {
		t.Fatalf("Threads after LoadConfig = %d, want 2", m.Threads())
	}
	if st := m.SchedulerStats(); st.Threads != 2 {
		t.Fatalf("SchedulerStats.Threads = %d, want 2", st.Threads)
	}
}

// TestThreadsBoundHoldsAfterClose: four 10 ms operators ticked together
// on SetThreads(2) never compute more than two at once, and Close leaves
// that bound in force for ticks that come after it.
func TestThreadsBoundHoldsAfterClose(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	m.SetThreads(2)
	var all gauge
	for i := 0; i < 4; i++ {
		op := newBlockingOp(t, nav, fmt.Sprintf("bound%d", i), 10*time.Millisecond)
		op.shared = func(time.Time) *gauge { return &all }
		if err := m.AdoptOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, closed := range []bool{false, true} {
		if closed {
			m.Close()
		}
		all.peak.Store(0)
		if err := m.TickAll(time.Unix(1, 0)); err != nil {
			t.Fatal(err)
		}
		if p := all.peak.Load(); p > 2 {
			t.Errorf("closed=%v: %d computations ran at once on SetThreads(2)", closed, p)
		}
	}
}

// TestStopWaitsForRunningTick: Close, caught in the middle of a wall-clock
// tick, returns only once that tick is over, so nothing computes or
// reaches the sink after it — the host may close what the sink writes to.
func TestStopWaitsForRunningTick(t *testing.T) {
	nav, _, _, qe := testEnv(t)
	var closed, late atomic.Bool
	sink := SinkFunc(func([]Output) {
		if closed.Load() {
			late.Store(true)
		}
	})
	m := NewManager(qe, sink, Env{})
	op := buildBlockingOp(t, nav, OperatorConfig{
		Name:       "slow",
		Inputs:     []string{"power"},
		Outputs:    []string{"block-slow"},
		Unit:       "/r0/n0/",
		IntervalMs: 10,
	}, 200*time.Millisecond)
	if err := m.AdoptOperator(op); err != nil {
		t.Fatal(err)
	}
	m.Start()
	waitFor(t, "a tick to start computing", func() bool { return op.active.Load() > 0 })
	m.Close()
	closed.Store(true)
	if n := op.active.Load(); n != 0 {
		t.Errorf("%d computations still running when Close returned", n)
	}
	time.Sleep(250 * time.Millisecond)
	if late.Load() {
		t.Error("a tick pushed into the sink after Close returned")
	}
}
