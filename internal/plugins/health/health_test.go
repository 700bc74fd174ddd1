package health

import (
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

func env(t testing.TB, temp float64, at time.Time) *core.QueryEngine {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	if err := nav.AddSensor("/n1/temp"); err != nil {
		t.Fatal(err)
	}
	c := caches.GetOrCreate("/n1/temp", 8, time.Second)
	c.StoreBatch([]sensor.Reading{sensor.At(temp, at)})
	return core.NewQueryEngine(nav, caches, nil)
}

func mk(t testing.TB, qe *core.QueryEngine, cfg Config) *Operator {
	t.Helper()
	cfg.OperatorConfig = core.OperatorConfig{
		Name: "h", Inputs: []string{"temp"}, Outputs: []string{"health"}, Unit: "/n1/",
	}
	o, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func status(t testing.TB, o *Operator, qe *core.QueryEngine, now time.Time) float64 {
	t.Helper()
	outs, err := o.Compute(qe, o.Units()[0], now, new(core.TickContext))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Topic != "/n1/health" {
		t.Fatalf("outs = %+v", outs)
	}
	return outs[0].Reading.Value
}

func TestGrades(t *testing.T) {
	now := time.Unix(100, 0)
	cases := []struct {
		temp float64
		want float64
	}{
		{50, StatusOK},
		{66, StatusWarning},
		{81, StatusCritical},
		{9, StatusWarning},  // below warnBelow
		{4, StatusCritical}, // below critBelow
	}
	for _, c := range cases {
		qe := env(t, c.temp, now)
		o := mk(t, qe, Config{WarnAbove: 65, CritAbove: 80, WarnBelow: 10, CritBelow: 5})
		if got := status(t, o, qe, now); got != c.want {
			t.Errorf("temp %v: status = %v, want %v", c.temp, got, c.want)
		}
	}
}

func TestStaleDetection(t *testing.T) {
	old := time.Unix(100, 0)
	qe := env(t, 50, old)
	o := mk(t, qe, Config{WarnAbove: 65, StaleAfterMs: 5000})
	// Fresh enough.
	if got := status(t, o, qe, old.Add(2*time.Second)); got != StatusOK {
		t.Errorf("fresh status = %v", got)
	}
	// Stale.
	if got := status(t, o, qe, old.Add(10*time.Second)); got != StatusStale {
		t.Errorf("stale status = %v", got)
	}
}

func TestMissingSensorIsStale(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	if err := nav.AddSensor("/n1/temp"); err != nil {
		t.Fatal(err)
	}
	caches.GetOrCreate("/n1/temp", 4, time.Second) // no readings
	qe := core.NewQueryEngine(nav, caches, nil)
	o := mk(t, qe, Config{WarnAbove: 65})
	if got := status(t, o, qe, time.Unix(5, 0)); got != StatusStale {
		t.Errorf("missing data status = %v", got)
	}
}

func TestWorstOfManyInputs(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	now := time.Unix(100, 0)
	for name, v := range map[string]float64{"a": 50, "b": 90} {
		topic := sensor.Topic("/n1/").Join(name)
		if err := nav.AddSensor(topic); err != nil {
			t.Fatal(err)
		}
		caches.GetOrCreate(topic, 4, time.Second).StoreBatch([]sensor.Reading{sensor.At(v, now)})
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name: "h", Inputs: []string{"a", "b"}, Outputs: []string{"health"}, Unit: "/n1/",
		},
		WarnAbove: 65, CritAbove: 80,
	}
	o, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := o.Compute(qe, o.Units()[0], now, new(core.TickContext))
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Reading.Value != StatusCritical {
		t.Errorf("worst-of = %v, want critical", outs[0].Reading.Value)
	}
}

func TestInvalidThresholds(t *testing.T) {
	qe := env(t, 50, time.Unix(1, 0))
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Inputs: []string{"temp"}, Outputs: []string{"health"}, Unit: "/n1/",
		},
		WarnAbove: 80, CritAbove: 65,
	}
	if _, err := New(cfg, qe); err == nil {
		t.Error("crit below warn should fail")
	}
}
