package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

const sec = int64(time.Second)

// testEnv builds a small system: 2 racks x 2 nodes with power sensors,
// caches pre-filled with a ramp, and a store holding older history.
func testEnv(t testing.TB) (*navigator.Navigator, *cache.Set, *store.Store, *QueryEngine) {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	st := store.New()
	for r := 0; r < 2; r++ {
		for n := 0; n < 2; n++ {
			topic := sensor.Topic(fmt.Sprintf("/r%d/n%d/power", r, n))
			if err := nav.AddSensor(topic); err != nil {
				t.Fatal(err)
			}
			c := caches.GetOrCreate(topic, 16, time.Second)
			// Store holds 0..31; cache holds the last 16 (16..31).
			for i := 0; i < 32; i++ {
				rd := sensor.Reading{Value: float64(i), Time: int64(i) * sec}
				st.InsertBatch(topic, []sensor.Reading{rd})
				if i >= 16 {
					c.StoreBatch([]sensor.Reading{rd})
				}
			}
		}
	}
	qe := NewQueryEngine(nav, caches, st)
	return nav, caches, st, qe
}

func TestQueryRelativeFromCache(t *testing.T) {
	_, _, _, qe := testEnv(t)
	rs := qe.QueryRelative("/r0/n0/power", 3*time.Second, nil)
	if len(rs) != 4 || rs[0].Value != 28 || rs[3].Value != 31 {
		t.Fatalf("relative = %+v", rs)
	}
}

func TestQueryRelativeStoreFallback(t *testing.T) {
	nav, caches, st, _ := testEnv(t)
	// A sensor that exists only in the store.
	st.InsertBatch("/r9/n9/power", []sensor.Reading{{Value: 1, Time: 10 * sec}})
	st.InsertBatch("/r9/n9/power", []sensor.Reading{{Value: 2, Time: 11 * sec}})
	qe := NewQueryEngine(nav, caches, st)
	rs := qe.QueryRelative("/r9/n9/power", time.Second, nil)
	if len(rs) != 2 || rs[1].Value != 2 {
		t.Fatalf("fallback = %+v", rs)
	}
	// Without a store, nothing is returned.
	qe2 := NewQueryEngine(nav, caches, nil)
	if rs := qe2.QueryRelative("/r9/n9/power", time.Second, nil); len(rs) != 0 {
		t.Fatalf("cache-only should be empty, got %+v", rs)
	}
}

func TestQueryAbsoluteCacheVsStore(t *testing.T) {
	_, _, _, qe := testEnv(t)
	// Beside a store every absolute window is the store's, whether or
	// not the cache still holds it.
	rs := qe.QueryAbsolute("/r0/n0/power", 20*sec, 22*sec, nil)
	if len(rs) != 3 || rs[0].Value != 20 {
		t.Fatalf("cached absolute = %+v", rs)
	}
	rs = qe.QueryAbsolute("/r0/n0/power", 2*sec, 5*sec, nil)
	if len(rs) != 4 || rs[0].Value != 2 {
		t.Fatalf("store absolute = %+v", rs)
	}
}

func TestQueryAbsoluteCacheOnly(t *testing.T) {
	nav, caches, _, _ := testEnv(t)
	qe := NewQueryEngine(nav, caches, nil)
	// Without a store, the partial cache view is the best obtainable.
	rs := qe.QueryAbsolute("/r0/n0/power", 0, 20*sec, nil)
	if len(rs) != 5 || rs[0].Value != 16 {
		t.Fatalf("partial cache absolute = %+v", rs)
	}
}

func TestLatestAndAverage(t *testing.T) {
	_, _, st, qe := testEnv(t)
	r, ok := qe.Latest("/r0/n0/power")
	if !ok || r.Value != 31 {
		t.Fatalf("Latest = %+v, %v", r, ok)
	}
	avg, ok := qe.AggregateRelative("/r0/n0/power", 3*time.Second).Value(store.AggAvg)
	if !ok || avg != (28.0+29+30+31)/4 {
		t.Fatalf("Average = %v, %v", avg, ok)
	}
	// Store-only sensor.
	st.InsertBatch("/only/store", []sensor.Reading{{Value: 5, Time: sec}})
	if r, ok := qe.Latest("/only/store"); !ok || r.Value != 5 {
		t.Fatalf("store Latest = %+v, %v", r, ok)
	}
	if avg, ok := qe.AggregateRelative("/only/store", time.Second).Value(store.AggAvg); !ok || avg != 5 {
		t.Fatalf("store Average = %v, %v", avg, ok)
	}
	if _, ok := qe.Latest("/none"); ok {
		t.Error("missing sensor should have no latest")
	}
	if _, ok := qe.AggregateRelative("/none", time.Second).Value(store.AggAvg); ok {
		t.Error("missing sensor should have no average")
	}
}

// avgOperator computes the mean of all unit inputs over a 4s window; it
// writes one reading to each output.
type avgOperator struct {
	*Base
	computeCount int32
	mu           sync.Mutex
	seen         []sensor.Topic
}

func (a *avgOperator) Compute(qe *QueryEngine, u *units.Unit, now time.Time, _ *TickContext) ([]Output, error) {
	a.mu.Lock()
	a.computeCount++
	a.seen = append(a.seen, u.Name)
	a.mu.Unlock()
	var sum float64
	var n int
	for _, in := range u.Inputs {
		for _, r := range qe.QueryRelative(in, 4*time.Second, nil) {
			sum += r.Value
			n++
		}
	}
	if n == 0 {
		return nil, errors.New("no data")
	}
	outs := make([]Output, 0, len(u.Outputs))
	for _, o := range u.Outputs {
		outs = append(outs, Output{Topic: o, Reading: sensor.At(sum/float64(n), now)})
	}
	return outs, nil
}

func newAvgOperator(t testing.TB, nav *navigator.Navigator, parallel bool) *avgOperator {
	t.Helper()
	cfg := OperatorConfig{
		Name:     "avg1",
		Inputs:   []string{"power"},
		Outputs:  []string{"<bottomup>power-avg"},
		Parallel: parallel,
	}
	base, err := cfg.Build("testavg", nav)
	if err != nil {
		t.Fatal(err)
	}
	return &avgOperator{Base: base}
}

func TestTickSequential(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	op := newAvgOperator(t, nav, false)
	if len(op.Units()) != 4 {
		t.Fatalf("units = %d, want 4", len(op.Units()))
	}
	sink := NewCacheSink(caches, nav, 16, time.Second)
	now := time.Unix(100, 0)
	if err := Tick(op, qe, sink, now); err != nil {
		t.Fatal(err)
	}
	// Output sensors exist in cache and navigator, enabling pipelines.
	out, ok := caches.Get("/r0/n0/power-avg")
	if !ok {
		t.Fatal("output cache missing")
	}
	r, _ := out.Latest()
	want := (27.0 + 28 + 29 + 30 + 31) / 5
	if r.Value != want {
		t.Fatalf("avg output = %v, want %v", r.Value, want)
	}
	if !nav.HasSensor("/r0/n0/power-avg") {
		t.Error("output sensor not registered in navigator")
	}
}

func TestTickParallel(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	op := newAvgOperator(t, nav, true)
	sink := NewCacheSink(caches, nav, 16, time.Second)
	if err := Tick(op, qe, sink, time.Unix(100, 0)); err != nil {
		t.Fatal(err)
	}
	if op.computeCount != 4 {
		t.Fatalf("computeCount = %d", op.computeCount)
	}
	for r := 0; r < 2; r++ {
		for n := 0; n < 2; n++ {
			topic := sensor.Topic(fmt.Sprintf("/r%d/n%d/power-avg", r, n))
			if _, ok := caches.Get(topic); !ok {
				t.Errorf("missing output %q", topic)
			}
		}
	}
}

func TestTickPropagatesErrors(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	// Operator bound to a sensor with no readings: avgOperator errors.
	if err := nav.AddSensor("/r0/n0/empty"); err != nil {
		t.Fatal(err)
	}
	cfg := OperatorConfig{
		Name:    "avg-err",
		Inputs:  []string{"empty"},
		Outputs: []string{"empty-avg"},
		Unit:    "/r0/n0/",
	}
	base, err := cfg.Build("testavg", nav)
	if err != nil {
		t.Fatal(err)
	}
	op := &avgOperator{Base: base}
	sink := NewCacheSink(caches, nav, 16, time.Second)
	if err := Tick(op, qe, sink, time.Unix(1, 0)); err == nil {
		t.Error("expected error from empty input")
	}
}

// pipelineStage2 consumes the avg operator's output.
func TestPipelineAcrossOperators(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	op1 := newAvgOperator(t, nav, false)
	sink := NewCacheSink(caches, nav, 16, time.Second)
	if err := Tick(op1, qe, sink, time.Unix(100, 0)); err != nil {
		t.Fatal(err)
	}
	// Second stage binds to the first stage's output sensors, which only
	// exist because the sink registered them.
	cfg := OperatorConfig{
		Name:    "stage2",
		Inputs:  []string{"power-avg"},
		Outputs: []string{"<bottomup>power-avg2"},
	}
	base, err := cfg.Build("testavg", nav)
	if err != nil {
		t.Fatal(err)
	}
	op2 := &avgOperator{Base: base}
	if err := Tick(op2, qe, sink, time.Unix(101, 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := caches.Get("/r1/n1/power-avg2"); !ok {
		t.Fatal("pipeline output missing")
	}
}

func TestManagerLifecycle(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	plugin := registerAvg("testavg-lifecycle")
	sink := NewCacheSink(caches, nav, 16, time.Second)
	m := NewManager(qe, sink, Env{})
	raw, _ := json.Marshal(OperatorConfig{
		Name: "avgA", Inputs: []string{"power"}, Outputs: []string{"<bottomup>avgA"},
		IntervalMs: 10,
	})
	if err := m.LoadPlugin(plugin, raw); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlugin("nope", nil); err == nil {
		t.Error("unknown plugin should fail")
	}
	if _, ok := m.Operator("avgA"); !ok {
		t.Fatal("operator not registered")
	}
	// Manual tick drive.
	if err := m.TickAll(time.Unix(50, 0)); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	if len(st) != 1 || st[0].Ticks != 1 || st[0].Units != 4 {
		t.Fatalf("status = %+v", st)
	}
	// Real ticker loop.
	m.Start()
	time.Sleep(50 * time.Millisecond)
	m.Stop()
	st = m.Status()
	if st[0].Ticks < 2 {
		t.Errorf("expected several ticks, got %d", st[0].Ticks)
	}
	if st[0].Running {
		t.Error("operator should be stopped")
	}
	if n := m.UnloadPlugin(plugin); n != 1 {
		t.Errorf("UnloadPlugin removed %d", n)
	}
	if len(m.Operators()) != 0 {
		t.Error("operators should be gone")
	}
}

// TestLoadPluginRejectsUnknownField checks that a plugin block is decoded
// strictly: a field the plugin's config does not have fails the load, and
// the error names it.
func TestLoadPluginRejectsUnknownField(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	plugin := registerAvg("testavg-strict")
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	for _, raw := range []string{
		`{"name":"typo","inputs":["power"],"outputs":["<bottomup>t"],"interval":10}`,
		`{"name":"typo","inputs":["power"],"outputs":["<bottomup>t"],"windowMs":10}`,
	} {
		err := m.LoadPlugin(plugin, json.RawMessage(raw))
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: err = %v, want an unknown-field error", raw, err)
		}
	}
	if err := m.LoadPlugin(plugin, json.RawMessage(`{"name":"ok","inputs":["power"],"outputs":["<bottomup>t"]} trailing`)); err == nil {
		t.Error("trailing data after the config should fail")
	}
	if len(m.Operators()) != 0 {
		t.Errorf("operators loaded from bad configs: %d", len(m.Operators()))
	}
}

// TestLoadConfigFileIsStrict checks that the -config file itself is
// decoded strictly: a misspelt top-level field fails instead of loading
// no operator.
func TestLoadConfigFileIsStrict(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	plugin := registerAvg("testavg-file")
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	block := `{"plugin": "` + plugin + `", "config": {"name": "f", "inputs": ["power"], "outputs": ["<bottomup>f"]}}`
	dir := t.TempDir()
	for _, c := range []struct {
		body string
		ok   bool
	}{
		{`{"threads": 2, "plugins": [` + block + `]}`, true},
		{`{"threads": 2, "plugin": [` + block + `]}`, false},
	} {
		path := filepath.Join(dir, "wintermute.json")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := m.LoadConfigFile(path)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v", c.body, err)
		}
	}
	if _, ok := m.Operator("f"); !ok || m.Threads() != 2 {
		t.Errorf("the good file did not load: operator f missing or threads %d", m.Threads())
	}
}

func TestManagerDuplicateOperator(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	plugin := registerAvg("testavg-dup")
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	raw, _ := json.Marshal(OperatorConfig{
		Name: "dup", Inputs: []string{"power"}, Outputs: []string{"<bottomup>dupout"},
	})
	if err := m.LoadPlugin(plugin, raw); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadPlugin(plugin, raw); err == nil {
		t.Error("duplicate operator name should fail")
	}
}

func TestOnDemand(t *testing.T) {
	_, _, _, qe := testEnv(t)
	plugin := registerAvg("testavg-ondemand")
	pushes := 0
	sink := SinkFunc(func(outs []Output) { pushes += len(outs) })
	m := NewManager(qe, sink, Env{})
	raw, _ := json.Marshal(OperatorConfig{
		Name: "od", Mode: "ondemand",
		Inputs: []string{"power"}, Outputs: []string{"<bottomup>od-out"},
	})
	if err := m.LoadPlugin(plugin, raw); err != nil {
		t.Fatal(err)
	}
	// Specific unit.
	outs, err := m.OnDemand("od", "/r0/n1/", time.Unix(42, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Topic != "/r0/n1/od-out" {
		t.Fatalf("outs = %+v", outs)
	}
	// All units.
	outs, err = m.OnDemand("od", "", time.Unix(42, 0))
	if err != nil || len(outs) != 4 {
		t.Fatalf("all units outs = %d, err %v", len(outs), err)
	}
	// OnDemand output must not reach the sink.
	if pushes != 0 {
		t.Errorf("on-demand output leaked to sink: %d pushes", pushes)
	}
	// Ticker must not run OnDemand operators.
	if err := m.TickAll(time.Unix(43, 0)); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st[0].Ticks != 0 {
		t.Error("ondemand operator should not tick")
	}
	// Unknown operator/unit errors.
	if _, err := m.OnDemand("nope", "", time.Now()); err == nil {
		t.Error("unknown operator should fail")
	}
	if _, err := m.OnDemand("od", "/bogus/", time.Now()); err == nil {
		t.Error("unknown unit should fail")
	}
	// StartOperator on ondemand is a no-op.
	if err := m.StartOperator("od"); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st[0].Running {
		t.Error("ondemand operator must not run a loop")
	}
}

// TestFindUnit checks the lookup of one unit by name, which OnDemand
// does: a name is normalised to node form, and an unknown unit fails.
func TestFindUnit(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	if err := m.AdoptOperator(newAvgOperator(t, nav, false)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []sensor.Topic{"/r0/n0/", "/r0/n0", "r0/n0"} {
		outs, err := m.OnDemand("avg1", name, time.Unix(42, 0))
		if err != nil || len(outs) != 1 || outs[0].Topic != "/r0/n0/power-avg" {
			t.Errorf("unit %q: outs = %+v, err %v", name, outs, err)
		}
	}
	if _, err := m.OnDemand("avg1", "/zzz/", time.Unix(42, 0)); err == nil {
		t.Error("unknown unit found")
	}
}

func TestModeParsing(t *testing.T) {
	if m, err := ParseMode(""); err != nil || m != Online {
		t.Error("empty mode should default to online")
	}
	if m, err := ParseMode("ondemand"); err != nil || m != OnDemand {
		t.Error("ondemand parse failed")
	}
	if _, err := ParseMode("sometimes"); err == nil {
		t.Error("bad mode should fail")
	}
	if Online.String() != "online" || OnDemand.String() != "ondemand" {
		t.Error("mode strings wrong")
	}
}

func TestOperatorConfigDefaults(t *testing.T) {
	nav, _, _, _ := testEnv(t)
	cfg := OperatorConfig{Inputs: []string{"power"}, Outputs: []string{"<bottomup>x"}}
	base, err := cfg.Build("plug", nav)
	if err != nil {
		t.Fatal(err)
	}
	if base.Name() != "plug" {
		t.Errorf("default name = %q", base.Name())
	}
	if base.Interval() != time.Second {
		t.Errorf("default interval = %v", base.Interval())
	}
	if base.Mode() != Online {
		t.Error("default mode should be online")
	}
	if cfg.IntervalDuration() != time.Second {
		t.Error("IntervalDuration default wrong")
	}
}

func TestOperatorConfigErrors(t *testing.T) {
	nav, _, _, _ := testEnv(t)
	bad := []OperatorConfig{
		{Mode: "bogus", Inputs: []string{"power"}, Outputs: []string{"<bottomup>x"}},
		{Inputs: []string{"<oops"}, Outputs: []string{"<bottomup>x"}},
		{Inputs: []string{"power"}, Outputs: []string{}},
		{Inputs: []string{"nothing-here"}, Outputs: []string{"<bottomup>x"}},
	}
	for i, cfg := range bad {
		if _, err := cfg.Build("p", nav); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

// TestBuildWithoutUnitsYet checks that a tree without a node of the unit
// domain, or without the configured unit node, is a state and not an
// error: the operator builds with no unit.
func TestBuildWithoutUnitsYet(t *testing.T) {
	nav, _, _, _ := testEnv(t)
	for _, cfg := range []OperatorConfig{
		{Inputs: []string{"power"}, Outputs: []string{"<bottomup>x"}, Unit: "/missing/"},
		{Inputs: []string{"power"}, Outputs: []string{"<bottomup-5>x"}},
	} {
		b, err := cfg.Build("p", nav)
		if err != nil || len(b.Units()) != 0 {
			t.Errorf("%+v: err %v, want 0 units and no error", cfg, err)
		}
	}
}

// TestUnitsFollowTree checks that an operator built on an empty tree gains
// its units at the first tick after the tree grew, replaces a unit whose
// inputs changed, and keeps the very units of an unchanged tree.
func TestUnitsFollowTree(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	qe := NewQueryEngine(nav, caches, nil)
	base, err := OperatorConfig{Inputs: []string{"<bottomup>power"}, Outputs: []string{"<bottomup-1>psum"}}.Build("p", nav)
	if err != nil {
		t.Fatal(err)
	}
	op := &avgOperator{Base: base}
	sink := NewCacheSink(caches, nav, 16, time.Second)
	if err := Tick(op, qe, sink, time.Unix(1, 0)); err != nil || len(op.Units()) != 0 {
		t.Fatalf("empty tree: %d units, err %v", len(op.Units()), err)
	}
	ingest := func(topic sensor.Topic) {
		sink.PushBatch([]Output{{Topic: topic, Reading: sensor.Reading{Value: 1, Time: sec}}})
	}
	ingest("/r0/n0/power")
	Tick(op, qe, sink, time.Unix(1, 0))
	us := op.Units()
	if len(us) != 1 || len(us[0].Inputs) != 1 {
		t.Fatalf("after one node: units = %v", us)
	}
	// The tick's own output created /r0/psum; the next tick re-resolves
	// and keeps the unchanged unit.
	Tick(op, qe, sink, time.Unix(1, 0))
	if got := op.Units(); len(got) != 1 || got[0] != us[0] {
		t.Fatalf("unchanged unit replaced: %v", got)
	}
	ingest("/r0/n1/power")
	Tick(op, qe, sink, time.Unix(1, 0))
	got := op.Units()
	if len(got) != 1 || got[0] == us[0] || len(got[0].Inputs) != 2 {
		t.Fatalf("after a second node: units = %v, want a new /r0/ unit with 2 inputs", got)
	}
}

func TestRegisteredPluginsSorted(t *testing.T) {
	names := RegisteredPlugins()
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("plugin names not sorted")
		}
	}
}

func TestDuplicatePluginPanics(t *testing.T) {
	plugin := registerAvg("dup-plugin-x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	Register(plugin, func(OperatorConfig, *QueryEngine, Env) (Operator, error) { return nil, nil })
}

// registerAvg registers, under a fresh name derived from name, a plugin
// that builds one avgOperator from an OperatorConfig, and returns the
// name.
func registerAvg(name string) string {
	plugin := uniquePlugin(name)
	Register(plugin, func(oc OperatorConfig, qe *QueryEngine, _ Env) (*avgOperator, error) {
		base, err := oc.Build(plugin, qe.Navigator())
		if err != nil {
			return nil, err
		}
		return &avgOperator{Base: base}, nil
	})
	return plugin
}

// errBadUnit is what orderOperator's failing unit reports.
var errBadUnit = errors.New("bad unit")

// orderOperator emits two outputs per unit, valued by the unit's index,
// into its TickContext — so outputs alias the context the next unit
// reuses — and fails one unit after it has produced its outputs.
type orderOperator struct {
	*Base
	bad int
}

func (o *orderOperator) Compute(_ *QueryEngine, u *units.Unit, now time.Time, tc *TickContext) ([]Output, error) {
	var i int
	fmt.Sscanf(string(u.Name), "/n%d/", &i)
	outs := tc.Outputs[:0]
	for k := 0; k < 2; k++ {
		outs = append(outs, Output{Topic: u.Outputs[0], Reading: sensor.Reading{Value: float64(2*i + k), Time: now.UnixNano()}})
	}
	tc.Outputs = outs
	if i == o.bad {
		return outs, errBadUnit
	}
	return outs, nil
}

// TestTickIsOneBatch: one tick of a sequential or a parallel operator,
// under no bound, a bound of 1 or a bound of 4, reaches the sink as one PushBatch holding every
// unit's outputs in unit order — a failing unit's included — and the
// failure still comes back through errors.Join.
func TestTickIsOneBatch(t *testing.T) {
	const n, bad = 20, 7
	us := make([]*units.Unit, n)
	for i := range us {
		name := sensor.Topic(fmt.Sprintf("/n%02d/", i))
		us[i] = &units.Unit{Name: name, Outputs: []sensor.Topic{name.Join("out")}}
	}
	for _, parallel := range []bool{false, true} {
		for _, s := range []*Scheduler{nil, NewScheduler(1), NewScheduler(4)} {
			bound := 0
			if s != nil {
				bound = s.Threads()
			}
			name := fmt.Sprintf("parallel=%v/bound=%d", parallel, bound)
			op := &orderOperator{Base: NewBase("order", "test", Online, time.Second, parallel), bad: bad}
			op.SetUnits(us)
			var calls [][]Output
			var mu sync.Mutex
			sink := SinkFunc(func(outs []Output) {
				mu.Lock()
				calls = append(calls, append([]Output(nil), outs...))
				mu.Unlock()
			})
			for tick := 0; tick < 3; tick++ {
				calls = nil
				err := tickBounded(op, nil, sink, time.Unix(int64(tick), 0), s)
				if !errors.Is(err, errBadUnit) || !strings.Contains(err.Error(), "unit /n07/") {
					t.Fatalf("%s: err = %v, want the joined failure of unit /n07/", name, err)
				}
				if len(calls) != 1 {
					t.Fatalf("%s: tick %d made %d PushBatch calls, want 1", name, tick, len(calls))
				}
				if len(calls[0]) != 2*n {
					t.Fatalf("%s: the batch holds %d outputs, want %d", name, len(calls[0]), 2*n)
				}
				for j, o := range calls[0] {
					if want := us[j/2].Outputs[0]; o.Topic != want || o.Reading.Value != float64(j) {
						t.Fatalf("%s: output %d = %s %v, want %s %d", name, j, o.Topic, o.Reading.Value, want, j)
					}
				}
			}
		}
	}
}
