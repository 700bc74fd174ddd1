package controller

import (
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/hardware"
	"github.com/dcdb/wintermute/internal/sim/workload"
)

func newRig(t testing.TB, budget float64) (*core.QueryEngine, *core.CacheSink, *Operator) {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	if err := nav.AddSensor("/n1/power"); err != nil {
		t.Fatal(err)
	}
	caches.GetOrCreate("/n1/power", 64, time.Second)
	qe := core.NewQueryEngine(nav, caches, nil)
	sink := core.NewCacheSink(caches, nav, 64, time.Second)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "cap",
			Inputs:  []string{"power"},
			Outputs: []string{"freq-target"},
			Unit:    "/n1/",
		},
		BudgetW: budget,
		Gain:    0.005,
	}
	op, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	return qe, sink, op
}

func TestKnobDropsWhenOverBudget(t *testing.T) {
	qe, sink, op := newRig(t, 150)
	for i := 0; i < 20; i++ {
		now := time.Unix(int64(i), 0)
		sink.PushBatch([]core.Output{{Topic: "/n1/power", Reading: sensor.At(200, now)}}) // 50 W over budget
		if err := core.Tick(op, qe, sink, now); err != nil {
			t.Fatal(err)
		}
	}
	r, ok := qe.Latest("/n1/freq-target")
	if !ok {
		t.Fatal("no control output")
	}
	if r.Value >= 1 {
		t.Errorf("knob = %v, should have dropped below 1", r.Value)
	}
	if r.Value < 0.5 {
		t.Errorf("knob = %v, must respect the minimum", r.Value)
	}
}

func TestKnobRecoversUnderBudget(t *testing.T) {
	qe, sink, op := newRig(t, 150)
	for i := 0; i < 30; i++ {
		now := time.Unix(int64(i), 0)
		sink.PushBatch([]core.Output{{Topic: "/n1/power", Reading: sensor.At(220, now)}})
		if err := core.Tick(op, qe, sink, now); err != nil {
			t.Fatal(err)
		}
	}
	low, _ := qe.Latest("/n1/freq-target")
	for i := 30; i < 60; i++ {
		now := time.Unix(int64(i), 0)
		sink.PushBatch([]core.Output{{Topic: "/n1/power", Reading: sensor.At(100, now)}}) // well under budget
		if err := core.Tick(op, qe, sink, now); err != nil {
			t.Fatal(err)
		}
	}
	high, _ := qe.Latest("/n1/freq-target")
	if high.Value <= low.Value {
		t.Errorf("knob did not recover: %v -> %v", low.Value, high.Value)
	}
}

func TestKnobClampsAtMin(t *testing.T) {
	qe, sink, op := newRig(t, 50)
	for i := 0; i < 300; i++ {
		now := time.Unix(int64(i), 0)
		sink.PushBatch([]core.Output{{Topic: "/n1/power", Reading: sensor.At(300, now)}})
		if err := core.Tick(op, qe, sink, now); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := qe.Latest("/n1/freq-target")
	if r.Value != 0.5 {
		t.Errorf("knob = %v, want clamped at 0.5", r.Value)
	}
}

// TestClosedLoopWithHardware wires the full feedback loop of paper §IV-d:
// hardware power -> controller -> actuator -> hardware DVFS knob. Under a
// saturating workload the loop must pull power towards the budget.
func TestClosedLoopWithHardware(t *testing.T) {
	qe, sink, op := newRig(t, 150)
	node := hardware.NewNode(hardware.Config{Cores: 4, Seed: 1, TurboProb: 1e-9})
	node.SetApp(workload.MustNew("hpl", 1, 7200), 0)
	const sec = int64(time.Second)
	var freePower float64
	for i := int64(0); i < 600; i++ {
		ns := i * sec
		now := time.Unix(0, ns)
		node.Advance(ns)
		sink.PushBatch([]core.Output{{Topic: "/n1/power", Reading: sensor.Reading{Value: node.Power(), Time: ns}}})
		if err := core.Tick(op, qe, sink, now); err != nil {
			t.Fatal(err)
		}
		// Actuator: apply the published knob to the hardware.
		if r, ok := qe.Latest("/n1/freq-target"); ok {
			node.SetFreqScale(r.Value)
		}
		if i == 60 {
			freePower = node.Power() // before the loop has bitten hard
		}
	}
	final := node.Power()
	if final >= freePower {
		t.Fatalf("feedback loop ineffective: %v -> %v W", freePower, final)
	}
	if final > 175 {
		t.Errorf("power %v W far above 150 W budget after 10 min of control", final)
	}
}

func TestConfigValidation(t *testing.T) {
	nav := navigator.New()
	if err := nav.AddSensor("/n1/power"); err != nil {
		t.Fatal(err)
	}
	qe := core.NewQueryEngine(nav, cache.NewSet(), nil)
	base := core.OperatorConfig{
		Inputs: []string{"power"}, Outputs: []string{"f"}, Unit: "/n1/",
	}
	if _, err := New(Config{OperatorConfig: base}, qe); err == nil {
		t.Error("missing budget should fail")
	}
	if _, err := New(Config{OperatorConfig: base, BudgetW: 100, Min: 0.9, Max: 0.6}, qe); err == nil {
		t.Error("min above max should fail")
	}
}

func TestNoDataNoOutput(t *testing.T) {
	qe, _, op := newRig(t, 100)
	outs, err := op.Compute(qe, op.Units()[0], time.Unix(0, 0), new(core.TickContext))
	if err != nil || len(outs) != 0 {
		t.Fatalf("no-data compute = %+v, %v", outs, err)
	}
}
