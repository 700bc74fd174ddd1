package smoothing

import (
	"fmt"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

const sec = int64(time.Second)

func env(t testing.TB) *core.QueryEngine {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	for n := 0; n < 3; n++ {
		for _, name := range []string{"power", "temp"} {
			topic := sensor.Topic(fmt.Sprintf("/r1/n%d/%s", n, name))
			if err := nav.AddSensor(topic); err != nil {
				t.Fatal(err)
			}
			c := caches.GetOrCreate(topic, 512, time.Second)
			for k := 0; k < 400; k++ {
				c.StoreBatch([]sensor.Reading{{Value: float64(k%100) + float64(n)*1000, Time: int64(k) * sec}})
			}
		}
	}
	return core.NewQueryEngine(nav, caches, nil)
}

func TestDerivedOutputsLayout(t *testing.T) {
	qe := env(t)
	op, err := New(Config{
		Inputs:   []string{"<bottomup>power", "<bottomup>temp"},
		WindowsS: []int{60, 300},
	}, qe)
	if err != nil {
		t.Fatal(err)
	}
	us := op.Units()
	if len(us) != 3 {
		t.Fatalf("units = %d, want one per node", len(us))
	}
	u := us[0]
	if len(u.Inputs) != 2 || len(u.Outputs) != 4 {
		t.Fatalf("unit io = %d in, %d out", len(u.Inputs), len(u.Outputs))
	}
	if u.Outputs[0] != "/r1/n0/power-avg60" || u.Outputs[1] != "/r1/n0/power-avg300" ||
		u.Outputs[2] != "/r1/n0/temp-avg60" || u.Outputs[3] != "/r1/n0/temp-avg300" {
		t.Fatalf("outputs = %v", u.Outputs)
	}
}

func TestComputeAverages(t *testing.T) {
	qe := env(t)
	op, err := New(Config{
		Inputs:   []string{"<bottomup>power"},
		WindowsS: []int{9},
	}, qe)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := op.Compute(qe, op.Units()[0], time.Unix(399, 0), new(core.TickContext))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outs = %+v", outs)
	}
	// Values 90..99 (last 10 readings of the k%100 ramp at node 0).
	want := (90.0 + 99) / 2
	if outs[0].Reading.Value != want {
		t.Fatalf("avg = %v, want %v", outs[0].Reading.Value, want)
	}
}

func TestSmoothedSensorsJoinPipeline(t *testing.T) {
	qe := env(t)
	nav := qe.Navigator()
	caches := cache.NewSet() // separate set: only derived sensors land here
	sink := core.NewCacheSink(caches, nav, 64, time.Second)
	op, err := New(Config{Inputs: []string{"<bottomup>power"}, WindowsS: []int{60}}, qe)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Tick(op, qe, sink, time.Unix(399, 0)); err != nil {
		t.Fatal(err)
	}
	// Derived sensors are registered in the tree, so downstream pattern
	// units can bind to them.
	if !nav.HasSensor("/r1/n1/power-avg60") {
		t.Fatal("derived sensor not registered")
	}
}

func TestDefaults(t *testing.T) {
	qe := env(t)
	op, err := New(Config{Inputs: []string{"<bottomup>power"}}, qe)
	if err != nil {
		t.Fatal(err)
	}
	if op.Name() != "smoothing" {
		t.Errorf("name = %q", op.Name())
	}
	if len(op.windows) != 2 || op.windows[0] != 60*time.Second {
		t.Errorf("default windows = %v", op.windows)
	}
}

func TestConfigErrors(t *testing.T) {
	qe := env(t)
	if _, err := New(Config{Inputs: []string{"<bottomup>power"}, WindowsS: []int{0}}, qe); err == nil {
		t.Error("zero window should fail")
	}
	if _, err := New(Config{Inputs: []string{"<oops"}}, qe); err == nil {
		t.Error("bad pattern should fail")
	}
	if _, err := New(Config{Inputs: []string{"<bottomup>nonexistent"}}, qe); err == nil {
		t.Error("unresolvable inputs should fail")
	}
	if _, err := New(Config{}, qe); err == nil {
		t.Error("no inputs should fail")
	}
}
