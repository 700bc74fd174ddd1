package regressor

import (
	"math"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

const interval = 250 * time.Millisecond

// signal is a predictable power-like trace: a slow sine plus a square wave.
func signal(step int) float64 {
	t := float64(step) * 0.25
	v := 150 + 40*math.Sin(2*math.Pi*t/60)
	if int(t/15)%2 == 0 {
		v += 20
	}
	return v
}

type rig struct {
	qe   *core.QueryEngine
	sink *core.CacheSink
	op   *Operator
}

func newRig(t testing.TB, trainSize int, outputs []string) *rig {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	if err := nav.AddSensor("/n1/power"); err != nil {
		t.Fatal(err)
	}
	caches.GetOrCreate("/n1/power", 720, interval)
	qe := core.NewQueryEngine(nav, caches, nil)
	sink := core.NewCacheSink(caches, nav, 720, interval)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name:       "reg",
			Inputs:     []string{"power"},
			Outputs:    outputs,
			Unit:       "/n1/",
			IntervalMs: 250,
		},
		Target:          "power",
		TrainingSetSize: trainSize,
		Trees:           16,
		Seed:            7,
	}
	op, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{qe: qe, sink: sink, op: op}
}

// step feeds one reading and runs one tick.
func (r *rig) step(t testing.TB, i int) {
	now := time.Unix(0, int64(i)*int64(interval))
	r.sink.PushBatch([]core.Output{{Topic: "/n1/power", Reading: sensor.At(signal(i), now)}})
	if err := core.Tick(r.op, r.qe, r.sink, now); err != nil {
		t.Fatal(err)
	}
}

func TestTrainsAfterConfiguredSamples(t *testing.T) {
	r := newRig(t, 100, []string{"power-pred"})
	for i := 0; i < 50; i++ {
		r.step(t, i)
	}
	if r.op.Trained() {
		t.Fatal("trained too early")
	}
	have, want := r.op.TrainingProgress()
	if want != 100 || have < 45 {
		t.Fatalf("progress = %d/%d", have, want)
	}
	for i := 50; i < 110; i++ {
		r.step(t, i)
	}
	if !r.op.Trained() {
		t.Fatal("should be trained after 100+ samples")
	}
}

func TestOnlinePredictionAccuracy(t *testing.T) {
	r := newRig(t, 400, []string{"power-pred", "power-pred-err"})
	// Train over several signal periods, then evaluate online.
	for i := 0; i < 900; i++ {
		r.step(t, i)
	}
	if !r.op.Trained() {
		t.Fatal("not trained")
	}
	if got := r.op.AvgRelError(); got > 0.15 {
		t.Errorf("avg rel error = %v, want < 15%% on a predictable signal", got)
	}
	// Prediction sensor materialised through the pipeline.
	pred := r.qe.QueryRelative("/n1/power-pred", time.Hour, nil)
	if len(pred) == 0 {
		t.Fatal("no prediction readings")
	}
	errs := r.qe.QueryRelative("/n1/power-pred-err", time.Hour, nil)
	if len(errs) == 0 {
		t.Fatal("no error readings")
	}
	// Predictions stay inside the plausible power envelope.
	for _, p := range pred {
		if p.Value < 80 || p.Value > 250 {
			t.Fatalf("prediction %v outside envelope", p.Value)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	nav := navigator.New()
	if err := nav.AddSensor("/n1/power"); err != nil {
		t.Fatal(err)
	}
	qe := core.NewQueryEngine(nav, cache.NewSet(), nil)
	// Missing target.
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Inputs: []string{"power"}, Outputs: []string{"p"}, Unit: "/n1/",
		},
	}
	if _, err := New(cfg, qe); err == nil {
		t.Error("missing target should fail")
	}
	// Target not among inputs.
	cfg.Target = "voltage"
	if _, err := New(cfg, qe); err == nil {
		t.Error("target not among inputs should fail")
	}
}

func TestDefaultTrainingSetSize(t *testing.T) {
	r := newRig(t, 0, []string{"p"})
	if _, want := r.op.TrainingProgress(); want != 30000 {
		t.Fatalf("default training set size = %d, want 30000 (paper)", want)
	}
}

func TestSequentialForced(t *testing.T) {
	nav := navigator.New()
	if err := nav.AddSensor("/n1/power"); err != nil {
		t.Fatal(err)
	}
	caches := cache.NewSet()
	caches.GetOrCreate("/n1/power", 8, interval)
	qe := core.NewQueryEngine(nav, caches, nil)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Inputs: []string{"power"}, Outputs: []string{"p"}, Unit: "/n1/",
			Parallel: true, // must be overridden: the model is shared
		},
		Target: "power",
	}
	op, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	if op.Parallel() {
		t.Error("regressor must force sequential unit management")
	}
}

func TestNoDataIsQuiet(t *testing.T) {
	r := newRig(t, 10, []string{"p"})
	outs, err := r.op.Compute(r.qe, r.op.Units()[0], time.Unix(0, 0), new(core.TickContext))
	if err != nil || len(outs) != 0 {
		t.Fatalf("empty compute = %+v, %v", outs, err)
	}
}

// TestModelSurvivesNewNode checks that a node joining after the model
// was trained gets a unit of its own at the next tick, while the trained
// model, the existing unit and its prediction state stay as they were.
func TestModelSurvivesNewNode(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	qe := core.NewQueryEngine(nav, caches, nil)
	sink := core.NewCacheSink(caches, nav, 720, interval)
	feed := func(topic sensor.Topic, i int) time.Time {
		now := time.Unix(0, int64(i)*int64(interval))
		sink.PushBatch([]core.Output{{Topic: topic, Reading: sensor.At(signal(i), now)}})
		return now
	}
	feed("/r0/n0/power", 0)
	op, err := New(Config{
		OperatorConfig: core.OperatorConfig{
			Name: "reg", Inputs: []string{"<bottomup>power"}, Outputs: []string{"<bottomup>power-pred"}, IntervalMs: 250,
		},
		Target: "power", TrainingSetSize: 50, Trees: 4, Seed: 7,
	}, qe)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 60; i++ {
		if err := core.Tick(op, qe, sink, feed("/r0/n0/power", i)); err != nil {
			t.Fatal(err)
		}
	}
	if !op.Trained() || len(op.Units()) != 1 {
		t.Fatalf("trained %v with %d units; want a trained model on one unit", op.Trained(), len(op.Units()))
	}
	u0 := op.Units()[0]
	st0 := op.state[u0.Name]
	feed("/r0/n1/power", 60)
	if err := core.Tick(op, qe, sink, feed("/r0/n0/power", 60)); err != nil {
		t.Fatal(err)
	}
	us := op.Units()
	if len(us) != 2 || us[0] != u0 || us[1].Name != "/r0/n1/" {
		t.Fatalf("units after the new node = %v; want /r0/n0/ kept and /r0/n1/ added", us)
	}
	if !op.Trained() || op.state[u0.Name] != st0 || !st0.hasPred {
		t.Errorf("trained %v, state kept %v, predicting %v: the model or its state was lost",
			op.Trained(), op.state[u0.Name] == st0, st0.hasPred)
	}
}
