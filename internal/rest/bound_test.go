package rest

import (
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

// gauge counts the computations that enter it and the most that were in
// it at once.
type gauge struct{ active, peak, total atomic.Int32 }

func (g *gauge) enter() {
	g.total.Add(1)
	a := g.active.Add(1)
	for {
		p := g.peak.Load()
		if a <= p || g.peak.CompareAndSwap(p, a) {
			return
		}
	}
}

// sleeper is a parallel operator whose units sleep; each computation
// enters the gauge its tick time picks.
type sleeper struct {
	*core.Base
	pick func(now time.Time) *gauge
}

func (s *sleeper) Compute(_ *core.QueryEngine, _ *units.Unit, now time.Time, _ *core.TickContext) ([]core.Output, error) {
	g := s.pick(now)
	g.enter()
	time.Sleep(5 * time.Millisecond)
	g.active.Add(-1)
	return nil, nil
}

// TestSetThreadsDuringTickAll swaps the bound from 4 to 1 while a TickAll
// of parallel operators is computing. Every tick of both rounds
// completes, /status reports the new bound at once, and the computations
// of the round started after the swap never run more than one at a time.
// (The first round's ticks take whichever bound is current when each
// begins, so its peak is not pinned.)
func TestSetThreadsDuringTickAll(t *testing.T) {
	qe := core.NewQueryEngine(navigator.New(), cache.NewSet(), nil)
	m := core.NewManager(qe, core.SinkFunc(func([]core.Output) {}), core.Env{})
	t.Cleanup(m.Close)
	m.SetThreads(4)
	var before, after gauge
	pick := func(now time.Time) *gauge {
		if now.Unix() == 1 {
			return &before
		}
		return &after
	}
	const ops, unitsPerOp = 3, 4
	for i := 0; i < ops; i++ {
		op := &sleeper{Base: core.NewBase(fmt.Sprintf("sleep%d", i), "sleeptest", core.Online, time.Second, true), pick: pick}
		us := make([]*units.Unit, unitsPerOp)
		for k := range us {
			us[k] = &units.Unit{Name: sensor.Topic(fmt.Sprintf("/n%d/", k))}
		}
		op.SetUnits(us)
		if err := m.AdoptOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewHandler(m, qe))
	t.Cleanup(srv.Close)

	first := make(chan error, 1)
	go func() { first <- m.TickAll(time.Unix(1, 0)) }()
	deadline := time.Now().Add(5 * time.Second)
	for before.active.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the first round never started computing")
		}
		time.Sleep(100 * time.Microsecond)
	}
	m.SetThreads(1)
	var status struct {
		Scheduler core.SchedulerStats `json:"scheduler"`
	}
	if code := getJSON(t, srv.URL+"/status", &status); code != 200 || status.Scheduler.Threads != 1 {
		t.Fatalf("/status = %d, scheduler %+v; want threads 1", code, status.Scheduler)
	}
	if err := m.TickAll(time.Unix(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if p := after.peak.Load(); p > 1 {
		t.Errorf("%d computations started after the swap to 1 ran at once", p)
	}
	if b, a := before.total.Load(), after.total.Load(); b != ops*unitsPerOp || a != ops*unitsPerOp {
		t.Errorf("computations: %d before and %d after the swap, want %d each", b, a, ops*unitsPerOp)
	}
	for _, st := range m.Status() {
		if st.Ticks != 2 || st.LastErr != "" {
			t.Errorf("operator %s: %d ticks, error %q; want 2 ticks, none", st.Name, st.Ticks, st.LastErr)
		}
	}
}
