package aggregator

import (
	"math"
	"strconv"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

const sec = int64(time.Second)

// env: one rack with two nodes; each node has a power sensor with values
// node0: 10,20,30,40 and node1: 100,200,300,400.
func env(t testing.TB) *core.QueryEngine {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	for n, base := range []float64{10, 100} {
		topic := sensor.Topic("/r1/").JoinNode("n" + string(rune('0'+n))).Join("power")
		if err := nav.AddSensor(topic); err != nil {
			t.Fatal(err)
		}
		c := caches.GetOrCreate(topic, 8, time.Second)
		for k := 1; k <= 4; k++ {
			c.StoreBatch([]sensor.Reading{{Value: base * float64(k), Time: int64(k) * sec}})
		}
	}
	return core.NewQueryEngine(nav, caches, nil)
}

func mkOp(t testing.TB, qe *core.QueryEngine, op Op, windowMs int) *Operator {
	t.Helper()
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "agg",
			Inputs:  []string{"<bottomup>power"},
			Outputs: []string{"<topdown>power-agg"},
		},
		Operation: op,
		WindowMs:  windowMs,
	}
	o, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func compute(t testing.TB, o *Operator, qe *core.QueryEngine) float64 {
	t.Helper()
	us := o.Units()
	if len(us) != 1 {
		t.Fatalf("units = %d, want 1 rack unit", len(us))
	}
	outs, err := o.Compute(qe, us[0], time.Unix(100, 0), new(core.TickContext))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Topic != "/r1/power-agg" {
		t.Fatalf("outs = %+v", outs)
	}
	return outs[0].Reading.Value
}

func TestMeanAcrossNodes(t *testing.T) {
	qe := env(t)
	// Window covers last 2 readings of each node: 30,40,300,400.
	got := compute(t, mkOp(t, qe, Mean, 1000), qe)
	if got != (30.0+40+300+400)/4 {
		t.Fatalf("mean = %v", got)
	}
}

func TestSumRollup(t *testing.T) {
	qe := env(t)
	// Sum adds per-sensor window means: mean(30,40) + mean(300,400).
	got := compute(t, mkOp(t, qe, Sum, 0), qe) // default window = interval = 1s
	if got != 35+350 {
		t.Fatalf("sum = %v, want 385", got)
	}
}

func TestMinMaxStd(t *testing.T) {
	qe := env(t)
	if got := compute(t, mkOp(t, qe, Min, 1000), qe); got != 30 {
		t.Fatalf("min = %v", got)
	}
	if got := compute(t, mkOp(t, qe, Max, 1000), qe); got != 400 {
		t.Fatalf("max = %v", got)
	}
	got := compute(t, mkOp(t, qe, Std, 1000), qe)
	want := 0.0
	{
		vals := []float64{30, 40, 300, 400}
		var m float64
		for _, v := range vals {
			m += v
		}
		m /= 4
		for _, v := range vals {
			want += (v - m) * (v - m)
		}
		want = math.Sqrt(want / 4)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("std = %v, want %v", got, want)
	}
}

func TestDeltaForCounters(t *testing.T) {
	qe := env(t)
	// Window covers all 4 readings: deltas are 40-10=30 and 400-100=300.
	got := compute(t, mkOp(t, qe, Delta, 10000), qe)
	if got != 330 {
		t.Fatalf("delta = %v", got)
	}
}

func TestDefaultOperation(t *testing.T) {
	qe := env(t)
	o := mkOp(t, qe, "", 1000)
	if o.op != Mean {
		t.Fatalf("default op = %q", o.op)
	}
}

func TestUnknownOperation(t *testing.T) {
	qe := env(t)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Inputs:  []string{"<bottomup>power"},
			Outputs: []string{"<topdown>x"},
		},
		Operation: "median",
	}
	if _, err := New(cfg, qe); err == nil {
		t.Error("unknown operation should fail")
	}
}

func TestNoDataError(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	if err := nav.AddSensor("/r1/n1/power"); err != nil {
		t.Fatal(err)
	}
	caches.GetOrCreate("/r1/n1/power", 4, time.Second) // empty cache
	qe := core.NewQueryEngine(nav, caches, nil)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Inputs:  []string{"power"},
			Outputs: []string{"avg"},
			Unit:    "/r1/n1/",
		},
	}
	o, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Compute(qe, o.Units()[0], time.Unix(1, 0), new(core.TickContext)); err == nil {
		t.Error("empty inputs should error")
	}
}

func TestTickThroughSink(t *testing.T) {
	qe := env(t)
	o := mkOp(t, qe, Mean, 1000)
	var pushed []core.Output
	sink := core.SinkFunc(func(outs []core.Output) {
		pushed = append(pushed, outs...)
	})
	if err := core.Tick(o, qe, sink, time.Unix(100, 0)); err != nil {
		t.Fatal(err)
	}
	if len(pushed) != 1 {
		t.Fatalf("pushed = %d", len(pushed))
	}
}

// TestTickSteadyStateAllocs pins the pooled-TickContext path: once the
// bound handles and scratch arenas are warm, a 64-unit sequential
// core.Tick allocates at most twice (the tick's own closure and error
// bookkeeping), independent of the unit count.
func TestTickSteadyStateAllocs(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	for n := 0; n < 64; n++ {
		topic := sensor.Topic("/r1/").JoinNode("n" + strconv.Itoa(n)).Join("power")
		if err := nav.AddSensor(topic); err != nil {
			t.Fatal(err)
		}
		c := caches.GetOrCreate(topic, 180, time.Second)
		for k := 0; k < 180; k++ {
			c.StoreBatch([]sensor.Reading{{Value: float64(k), Time: int64(k) * sec}})
		}
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	op, err := New(Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "agg",
			Inputs:  []string{"power"},
			Outputs: []string{"<bottomup>power-agg"},
		},
		Operation: Mean,
		WindowMs:  60000,
	}, qe)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(op.Units()); n != 64 {
		t.Fatalf("units = %d, want 64", n)
	}
	pushed := 0
	sink := core.SinkFunc(func(outs []core.Output) { pushed += len(outs) })
	now := time.Unix(179, 0)
	tick := func() {
		if err := core.Tick(op, qe, sink, now); err != nil {
			t.Fatal(err)
		}
	}
	tick() // warm: bind the units, grow the scratch buffers
	if pushed != 64 {
		t.Fatalf("warm-up tick pushed %d outputs, want 64", pushed)
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs > 2 {
		t.Fatalf("warm 64-unit tick allocates %.1f/op, want <= 2", allocs)
	}
}
