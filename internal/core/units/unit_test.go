package units

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

// paperTemplate is the exact pattern unit of the paper's §III-C example.
func paperTemplate(t testing.TB) *Template {
	t.Helper()
	tpl, err := NewTemplate(
		[]string{
			"<topdown+1>power",
			"<bottomup, filter cpu>cpu-cycles",
			"<bottomup, filter cpu>cache-misses",
		},
		[]string{"<bottomup-1>healthy"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

// TestPaperExampleResolution reproduces the resolution walked through in
// paper §III-C: binding the pattern unit to /r03/c02/s02/ must yield the
// exact sensors of Figure 2.
func TestPaperExampleResolution(t *testing.T) {
	nv := figure2Tree(t)
	tpl := paperTemplate(t)
	u, err := tpl.ResolveFor(nv, "/r03/c02/s02/")
	if err != nil {
		t.Fatal(err)
	}
	wantIn := []sensor.Topic{
		"/r03/c02/power",
		"/r03/c02/s02/cpu0/cpu-cycles",
		"/r03/c02/s02/cpu1/cpu-cycles",
		"/r03/c02/s02/cpu0/cache-misses",
		"/r03/c02/s02/cpu1/cache-misses",
	}
	if len(u.Inputs) != len(wantIn) {
		t.Fatalf("inputs = %v", u.Inputs)
	}
	got := map[sensor.Topic]bool{}
	for _, i := range u.Inputs {
		got[i] = true
	}
	for _, w := range wantIn {
		if !got[w] {
			t.Errorf("missing input %q; got %v", w, u.Inputs)
		}
	}
	if len(u.Outputs) != 1 || u.Outputs[0] != "/r03/c02/s02/healthy" {
		t.Errorf("outputs = %v", u.Outputs)
	}
	if u.Name != "/r03/c02/s02/" {
		t.Errorf("unit name = %q", u.Name)
	}
}

// TestPaperExampleInstantiation: instantiating the same template over the
// whole tree must build exactly one unit — s02 — because the siblings
// s01/s03/s04 have no CPU sub-nodes and therefore "cannot be built".
func TestPaperExampleInstantiation(t *testing.T) {
	nv := figure2Tree(t)
	tpl := paperTemplate(t)
	us, err := tpl.Instantiate(nv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 1 || us[0].Name != "/r03/c02/s02/" {
		t.Fatalf("units = %v", us)
	}
}

// TestInstantiateManyUnits checks large-scale instantiation: one config
// block producing one unit per compute node (paper §III-C's motivation).
func TestInstantiateManyUnits(t *testing.T) {
	nv := navigator.New()
	for r := 0; r < 4; r++ {
		for n := 0; n < 16; n++ {
			base := fmt.Sprintf("/r%02d/n%02d", r, n)
			for _, s := range []string{"power", "temp"} {
				if err := nv.AddSensor(sensor.Topic(base + "/" + s)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tpl, err := NewTemplate(
		[]string{"<bottomup>power", "<bottomup>temp"},
		[]string{"<bottomup>power-pred"},
	)
	if err != nil {
		t.Fatal(err)
	}
	us, err := tpl.Instantiate(nv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 64 {
		t.Fatalf("units = %d, want 64", len(us))
	}
	// Deterministic, sorted order.
	for i := 1; i < len(us); i++ {
		if us[i].Name <= us[i-1].Name {
			t.Fatal("units not sorted by name")
		}
	}
	// Every unit has its own sensors.
	u := us[0]
	if u.Name != "/r00/n00/" || u.Outputs[0] != "/r00/n00/power-pred" {
		t.Errorf("unit[0] = %v", u)
	}
}

func TestResolveForUnknownNode(t *testing.T) {
	nv := figure2Tree(t)
	tpl := paperTemplate(t)
	if _, err := tpl.ResolveFor(nv, "/does/not/exist/"); err == nil {
		t.Error("unknown unit node should fail")
	}
}

func TestResolveMissingInput(t *testing.T) {
	nv := figure2Tree(t)
	tpl, err := NewTemplate([]string{"voltage"}, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tpl.ResolveFor(nv, "/r03/c02/s02/")
	if !errors.Is(err, ErrUnresolved) {
		t.Errorf("err = %v, want ErrUnresolved", err)
	}
}

func TestSameNodeOutputCreatesTopic(t *testing.T) {
	nv := figure2Tree(t)
	tpl, err := NewTemplate([]string{"memfree"}, []string{"mem-alarm"})
	if err != nil {
		t.Fatal(err)
	}
	u, err := tpl.ResolveFor(nv, "/r03/c02/s02/")
	if err != nil {
		t.Fatal(err)
	}
	if u.Outputs[0] != "/r03/c02/s02/mem-alarm" {
		t.Errorf("output = %v", u.Outputs)
	}
}

func TestAbsoluteInput(t *testing.T) {
	nv := figure2Tree(t)
	tpl, err := NewTemplate([]string{"/r03/inlet-temp"}, []string{"<bottomup-1>alarm"})
	if err != nil {
		t.Fatal(err)
	}
	us, err := tpl.Instantiate(nv, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All four server nodes get a unit; each reads the same absolute topic.
	if len(us) != 4 {
		t.Fatalf("units = %d, want 4", len(us))
	}
	for _, u := range us {
		if len(u.Inputs) != 1 || u.Inputs[0] != "/r03/inlet-temp" {
			t.Errorf("unit %v inputs = %v", u.Name, u.Inputs)
		}
	}
}

func TestRootFallbackUnit(t *testing.T) {
	nv := figure2Tree(t)
	// No level-anchored output: single root unit for operator-level output.
	tpl, err := NewTemplate([]string{"/r03/inlet-temp"}, []string{"avg-error"})
	if err != nil {
		t.Fatal(err)
	}
	us, err := tpl.Instantiate(nv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 1 || us[0].Name != sensor.Root {
		t.Fatalf("units = %v", us)
	}
	if us[0].Outputs[0] != "/avg-error" {
		t.Errorf("output = %v", us[0].Outputs)
	}
}

// TestInstantiateEmptyDomain checks that a template whose domain has no
// node yet builds no unit and reports no error: the nodes may come later.
// So does a Unit node the tree does not have.
func TestInstantiateEmptyDomain(t *testing.T) {
	nv := figure2Tree(t)
	tpl, err := NewTemplate([]string{"memfree"}, []string{"<bottomup-9>x"})
	if err != nil {
		t.Fatal(err)
	}
	if us, err := tpl.Instantiate(nv, nil); err != nil || len(us) != 0 {
		t.Errorf("empty unit domain = %v, %v; want no unit and no error", us, err)
	}
	tpl, err = NewTemplate([]string{"memfree"}, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	tpl.Unit = "/missing/"
	if us, err := tpl.Instantiate(nv, nil); err != nil || len(us) != 0 {
		t.Errorf("absent unit node = %v, %v; want no unit and no error", us, err)
	}
	if us, err := tpl.Instantiate(navigator.New(), nil); err != nil || len(us) != 0 {
		t.Errorf("empty tree = %v, %v; want no unit and no error", us, err)
	}
}

// TestInstantiateExtendsPrev checks the re-resolution rule: units of prev
// are kept when they resolve the same or not at all, replaced under the
// same name when their sensors changed, and new domain nodes add units.
func TestInstantiateExtendsPrev(t *testing.T) {
	nv := navigator.New()
	add := func(ts ...sensor.Topic) {
		t.Helper()
		if err := nv.AddSensors(ts); err != nil {
			t.Fatal(err)
		}
	}
	add("/r1/n0/power", "/r1/n1/power")
	tpl, err := NewTemplate([]string{"<bottomup>power"}, []string{"<bottomup-1>psum"})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := tpl.Instantiate(nv, nil)
	if err != nil || len(prev) != 1 {
		t.Fatalf("units = %v, %v", prev, err)
	}
	// Nothing changed: the very same unit comes back.
	same, err := tpl.Instantiate(nv, prev)
	if err != nil || len(same) != 1 || same[0] != prev[0] {
		t.Fatalf("unchanged tree: units = %v, %v", same, err)
	}
	add("/r1/n2/power", "/r2/n0/power")
	next, err := tpl.Instantiate(nv, prev)
	if err != nil || len(next) != 2 {
		t.Fatalf("grown tree: units = %v, %v", next, err)
	}
	if next[0].Name != "/r1/" || next[0] == prev[0] || len(next[0].Inputs) != 3 {
		t.Errorf("changed unit = %v, want a new /r1/ with 3 inputs", next[0])
	}
	if next[1].Name != "/r2/" || len(next[1].Inputs) != 1 {
		t.Errorf("new unit = %v", next[1])
	}
	// A deeper subtree moves <bottomup> below every unit: none of them
	// resolves any more, so all are kept, and the new domain nodes have
	// no power sensor, so none is added.
	add("/telemetry/http/query/2xx/count")
	deep, err := tpl.Instantiate(nv, next)
	if err != nil || len(deep) != 2 || deep[0] != next[0] || deep[1] != next[1] {
		t.Errorf("deeper tree: units = %v, %v; want the two units unchanged", deep, err)
	}
}

func TestInstantiateNoOutputs(t *testing.T) {
	tpl := &Template{}
	if _, err := tpl.Instantiate(figure2Tree(t), nil); err == nil {
		t.Error("template without outputs should fail")
	}
}

func TestInstantiateFilterRestrictsUnits(t *testing.T) {
	nv := figure2Tree(t)
	tpl, err := NewTemplate(
		[]string{"memfree"},
		[]string{"<bottomup-1, filter ^s0[13]$>flag"},
	)
	if err != nil {
		t.Fatal(err)
	}
	us, err := tpl.Instantiate(nv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 2 {
		t.Fatalf("units = %v", us)
	}
	if us[0].Name != "/r03/c02/s01/" || us[1].Name != "/r03/c02/s03/" {
		t.Errorf("unit names = %v, %v", us[0].Name, us[1].Name)
	}
}

func TestUnitString(t *testing.T) {
	u := &Unit{
		Name:    "/r1/n1/",
		Inputs:  []sensor.Topic{"/r1/n1/power"},
		Outputs: []sensor.Topic{"/r1/n1/pred"},
	}
	s := u.String()
	for _, want := range []string{"/r1/n1/", "/r1/n1/power", "/r1/n1/pred"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestNewTemplateErrors(t *testing.T) {
	if _, err := NewTemplate([]string{"<bad"}, []string{"x"}); err == nil {
		t.Error("bad input pattern should fail")
	}
	if _, err := NewTemplate([]string{"x"}, []string{"<bad"}); err == nil {
		t.Error("bad output pattern should fail")
	}
}
