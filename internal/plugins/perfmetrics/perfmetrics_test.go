package perfmetrics

import (
	"math"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/hardware"
	"github.com/dcdb/wintermute/internal/sim/workload"
)

const sec = int64(time.Second)

// env builds one cpu with synthetic counters: cycles grow by 2e9/s,
// instructions by 1e9/s (CPI 2), flops by 5e8/s, vector-ops by 2.5e8/s,
// cache misses by 1e6/s.
func env(t testing.TB) *core.QueryEngine {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	rates := map[string]float64{
		CounterCycles:       2e9,
		CounterInstructions: 1e9,
		CounterFlops:        5e8,
		CounterVectorOps:    2.5e8,
		CounterCacheMisses:  1e6,
	}
	for name, rate := range rates {
		topic := sensor.Topic("/n1/cpu00/").Join(name)
		if err := nav.AddSensor(topic); err != nil {
			t.Fatal(err)
		}
		c := caches.GetOrCreate(topic, 16, time.Second)
		for k := 0; k < 10; k++ {
			c.StoreBatch([]sensor.Reading{{Value: rate * float64(k), Time: int64(k) * sec}})
		}
	}
	return core.NewQueryEngine(nav, caches, nil)
}

func mk(t testing.TB, qe *core.QueryEngine, outputs []string) *Operator {
	t.Helper()
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name: "pm",
			Inputs: []string{
				CounterCycles, CounterInstructions, CounterFlops,
				CounterVectorOps, CounterCacheMisses,
			},
			Outputs: outputs,
			Unit:    "/n1/cpu00/",
		},
		WindowMs: 3000,
	}
	o, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestAllMetrics(t *testing.T) {
	qe := env(t)
	o := mk(t, qe, []string{MetricCPI, MetricFlopsRate, MetricVectorRatio, MetricMissRate})
	outs, err := o.Compute(qe, o.Units()[0], time.Unix(9, 0), new(core.TickContext))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 {
		t.Fatalf("outs = %+v", outs)
	}
	got := map[string]float64{}
	for _, out := range outs {
		got[out.Topic.Name()] = out.Reading.Value
	}
	if math.Abs(got[MetricCPI]-2) > 1e-9 {
		t.Errorf("cpi = %v, want 2", got[MetricCPI])
	}
	if math.Abs(got[MetricFlopsRate]-5e8) > 1 {
		t.Errorf("flops-rate = %v, want 5e8", got[MetricFlopsRate])
	}
	if math.Abs(got[MetricVectorRatio]-0.5) > 1e-9 {
		t.Errorf("vector-ratio = %v, want 0.5", got[MetricVectorRatio])
	}
	if math.Abs(got[MetricMissRate]-1e-3) > 1e-12 {
		t.Errorf("miss-rate = %v, want 1e-3", got[MetricMissRate])
	}
}

func TestWarmupProducesNoOutput(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	for _, name := range []string{CounterCycles, CounterInstructions} {
		topic := sensor.Topic("/n1/cpu00/").Join(name)
		if err := nav.AddSensor(topic); err != nil {
			t.Fatal(err)
		}
		c := caches.GetOrCreate(topic, 8, time.Second)
		c.StoreBatch([]sensor.Reading{{Value: 1, Time: 0}}) // single reading only
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name:   "pm",
			Inputs: []string{CounterCycles, CounterInstructions},
			Outputs: []string{
				MetricCPI,
			},
			Unit: "/n1/cpu00/",
		},
	}
	o, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := o.Compute(qe, o.Units()[0], time.Unix(0, 0), new(core.TickContext))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Fatalf("warm-up outs = %+v", outs)
	}
}

func TestUnknownMetricRejected(t *testing.T) {
	qe := env(t)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "pm",
			Inputs:  []string{CounterCycles, CounterInstructions},
			Outputs: []string{"bogus-metric"},
			Unit:    "/n1/cpu00/",
		},
	}
	if _, err := New(cfg, qe); err == nil {
		t.Error("unknown metric should fail at construction")
	}
}

// TestEndToEndWithHardwareModel drives the real pipeline: hardware model
// -> counter sensors -> perfmetrics CPI, and checks the LAMMPS band.
func TestEndToEndWithHardwareModel(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	node := hardware.NewNode(hardware.Config{Cores: 2, Seed: 1})
	node.SetApp(workload.MustNew("lammps", 1, 3600), 0)
	for _, name := range []string{CounterCycles, CounterInstructions} {
		if err := nav.AddSensor(sensor.Topic("/n1/cpu00/").Join(name)); err != nil {
			t.Fatal(err)
		}
	}
	sink := core.NewCacheSink(caches, nav, 32, time.Second)
	qe := core.NewQueryEngine(nav, caches, nil)
	for i := int64(0); i < 10; i++ {
		ns := i * sec
		node.Advance(ns)
		cy, in, _, _, _ := node.CoreCounters(0)
		sink.PushBatch([]core.Output{
			{Topic: "/n1/cpu00/cpu-cycles", Reading: sensor.Reading{Value: cy, Time: ns}},
			{Topic: "/n1/cpu00/instructions", Reading: sensor.Reading{Value: in, Time: ns}},
		})
	}
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "pm",
			Inputs:  []string{CounterCycles, CounterInstructions},
			Outputs: []string{MetricCPI},
			Unit:    "/n1/cpu00/",
		},
		WindowMs: 2000,
	}
	o, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := o.Compute(qe, o.Units()[0], time.Unix(9, 0), new(core.TickContext))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outs = %+v", outs)
	}
	cpi := outs[0].Reading.Value
	if cpi < 1.2 || cpi > 2.2 {
		t.Errorf("pipeline CPI = %v, want ~1.6", cpi)
	}
}
