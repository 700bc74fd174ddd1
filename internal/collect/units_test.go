package collect

import (
	"strings"
	"testing"
	"time"

	_ "github.com/dcdb/wintermute/internal/plugins/aggregator"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// psumConfig sums each rack's node power into <rack>/psum.
const psumConfig = `{"name":"psum","operation":"sum","windowMs":10000,
	"inputs":["<bottomup>power"],"outputs":["<bottomup-1>psum"]}`

// ingestAt stores one reading of v for topic at t.
func ingestAt(a *Agent, topic sensor.Topic, v float64, t time.Time) {
	a.IngestBatch(topic, []sensor.Reading{sensor.At(v, t)})
}

// latestValue returns topic's newest value, failing the test without one.
func latestValue(t *testing.T, a *Agent, topic sensor.Topic) float64 {
	t.Helper()
	r, ok := a.QE.Latest(topic)
	if !ok {
		t.Fatalf("%s has no reading; tree has %v", topic, a.Nav.AllSensors())
	}
	return r.Value
}

// TestAggregatorLoadsOnEmptyAgent: an aggregator loaded on an agent that
// has seen no sensor yet loads with 0 units, and produces output once two
// nodes have published.
func TestAggregatorLoadsOnEmptyAgent(t *testing.T) {
	a, err := New(Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Manager.LoadPlugin("aggregator", []byte(psumConfig)); err != nil {
		t.Fatalf("loading on an empty agent: %v", err)
	}
	if st := a.Manager.Status(); len(st) != 1 || st[0].Units != 0 {
		t.Fatalf("status = %+v, want one operator with 0 units", st)
	}
	now := time.Unix(1000, 0)
	if err := a.TickOnce(now); err != nil {
		t.Fatalf("tick with 0 units: %v", err)
	}
	ingestAt(a, "/r0/n0/power", 1, now)
	ingestAt(a, "/r0/n1/power", 2, now)
	now = now.Add(time.Second)
	if err := a.TickOnce(now); err != nil {
		t.Fatal(err)
	}
	if v := latestValue(t, a, "/r0/psum"); v != 3 {
		t.Fatalf("/r0/psum = %v, want 3", v)
	}
	if st := a.Manager.Status(); st[0].Units != 1 {
		t.Fatalf("units = %d, want 1", st[0].Units)
	}
}

// TestLateNodesJoinAggregate: nodes that publish after the aggregator
// loaded join their rack's sum, and a new rack gets a sum of its own, from
// the next tick on.
func TestLateNodesJoinAggregate(t *testing.T) {
	a, err := New(Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	now := time.Unix(1000, 0)
	ingestAt(a, "/r1/n0/power", 1, now)
	if err := a.Manager.LoadPlugin("aggregator", []byte(psumConfig)); err != nil {
		t.Fatal(err)
	}
	if err := a.TickOnce(now); err != nil {
		t.Fatal(err)
	}
	if v := latestValue(t, a, "/r1/psum"); v != 1 {
		t.Fatalf("/r1/psum = %v before the late nodes, want 1", v)
	}
	now = now.Add(time.Second)
	ingestAt(a, "/r1/n1/power", 2, now)
	ingestAt(a, "/r2/n0/power", 5, now)
	if err := a.TickOnce(now); err != nil {
		t.Fatal(err)
	}
	if v := latestValue(t, a, "/r1/psum"); v != 3 {
		t.Fatalf("/r1/psum = %v, want 3", v)
	}
	if v := latestValue(t, a, "/r2/psum"); v != 5 {
		t.Fatalf("/r2/psum = %v, want 5", v)
	}
}

// TestDeeperSubtreeLeavesUnitsAlone: a self-monitoring pass that adds a
// subtree deeper than the nodes moves <bottomup> below them. The loaded
// operator neither loses nor gains a unit, and keeps computing. An
// operator loaded after the pass resolves its levels against the deeper
// tree and cannot be built: that level rule is ROADMAP item 20.
func TestDeeperSubtreeLeavesUnitsAlone(t *testing.T) {
	reg := telemetry.NewRegistry()
	a, err := New(Config{StoreDir: t.TempDir(), Metrics: reg, SelfMonitorEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	now := time.Unix(1000, 0)
	ingestAt(a, "/r0/n0/power", 1, now)
	ingestAt(a, "/r0/n1/power", 2, now)
	nodeSum := `{"name":"nsum","operation":"sum","windowMs":100,"inputs":["<bottomup>power"],"outputs":["<bottomup>psum"]}`
	if err := a.Manager.LoadPlugin("aggregator", []byte(nodeSum)); err != nil {
		t.Fatal(err)
	}
	op, _ := a.Manager.Operator("nsum")
	before := op.Units()
	if len(before) != 2 {
		t.Fatalf("units = %v, want 2", before)
	}
	// A labelled histogram shaped like the REST request histogram.
	reg.NewHistogramVec("probe_request_seconds", "probe", telemetry.DefDurationBuckets, "route", "code").
		With("query", "2xx").Observe(0.01)
	a.SelfMon.PublishOnce(now)
	if d := a.Nav.MaxDepth(); d <= 2 {
		t.Fatalf("max depth = %d after the pass; want a deeper tree", d)
	}
	now = now.Add(time.Second)
	ingestAt(a, "/r0/n0/power", 4, now)
	if err := a.TickOnce(now); err != nil {
		t.Fatal(err)
	}
	after := op.Units()
	if len(after) != 2 || after[0] != before[0] || after[1] != before[1] {
		t.Fatalf("units after the pass = %v, want the same two", after)
	}
	if v := latestValue(t, a, "/r0/n0/psum"); v != 4 {
		t.Fatalf("/r0/n0/psum = %v, want 4", v)
	}
	late := strings.Replace(nodeSum, "nsum", "nsum-late", 1)
	if err := a.Manager.LoadPlugin("aggregator", []byte(late)); err == nil || !strings.Contains(err.Error(), "no unit could be built") {
		t.Fatalf("loading after the pass: err = %v, want no unit could be built", err)
	}
}
