package fingerprint

import (
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/hardware"
	"github.com/dcdb/wintermute/internal/sim/jobs"
	"github.com/dcdb/wintermute/internal/sim/workload"
)

// rig drives two nodes through labelled application phases, with CPI and
// miss-rate metrics derived from the hardware models.
type rig struct {
	qe    *core.QueryEngine
	sink  *core.CacheSink
	table *jobs.Table
	op    *Operator
	nodes []*hardware.Node
	paths []sensor.Topic
	prevC []float64
	prevI []float64
	prevM []float64
}

func newRig(t testing.TB, trainSize int) *rig {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	qe := core.NewQueryEngine(nav, caches, nil)
	sink := core.NewCacheSink(caches, nav, 64, time.Second)
	r := &rig{qe: qe, sink: sink, table: jobs.NewTable()}
	for i := 0; i < 2; i++ {
		path := sensor.Topic("/r1/").JoinNode("n" + string(rune('1'+i)))
		for _, s := range []string{"cpi", "miss-rate", "flops-rate"} {
			if err := nav.AddSensor(path.Join(s)); err != nil {
				t.Fatal(err)
			}
		}
		r.nodes = append(r.nodes, hardware.NewNode(hardware.Config{Cores: 4, Seed: int64(i + 1)}))
		r.paths = append(r.paths, path)
	}
	r.prevC = make([]float64, 2)
	r.prevI = make([]float64, 2)
	r.prevM = make([]float64, 2)
	op, err := New(Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "fp",
			Inputs:  []string{"cpi", "miss-rate", "flops-rate"},
			Outputs: []string{"<bottomup>app-class", "<bottomup>app-conf"},
		},
		TrainingSetSize: trainSize,
		Trees:           12,
		Seed:            5,
	}, qe, core.Env{Jobs: r.table})
	if err != nil {
		t.Fatal(err)
	}
	r.op = op
	return r
}

// runPhase runs app on both nodes for `secs` simulated seconds starting
// at t0, with job labels, sampling metrics and ticking the operator.
func (r *rig) runPhase(t testing.TB, app string, t0, secs int64) {
	jobID := r.table.Submit("u", append([]sensor.Topic(nil), r.paths...),
		t0*int64(time.Second), (t0+secs)*int64(time.Second))
	job, _ := r.table.Job(jobID)
	job.Name = app
	r.table.Add(job)
	for i, n := range r.nodes {
		n.SetApp(workload.MustNew(app, int64(i)+t0, float64(secs)), t0*int64(time.Second))
	}
	for s := t0; s < t0+secs; s++ {
		ns := s * int64(time.Second)
		now := time.Unix(0, ns)
		for i, n := range r.nodes {
			n.Advance(ns)
			var cy, in, ms float64
			for c := 0; c < 4; c++ {
				c1, i1, m1, _, _ := n.CoreCounters(c)
				cy += c1
				in += i1
				ms += m1
			}
			dt := 1.0
			cpi := 0.0
			if in-r.prevI[i] > 0 {
				cpi = (cy - r.prevC[i]) / (in - r.prevI[i])
			}
			missRate := (ms - r.prevM[i]) / dt
			flopsRate := (in - r.prevI[i]) / dt
			r.prevC[i], r.prevI[i], r.prevM[i] = cy, in, ms
			r.sink.PushBatch([]core.Output{
				{Topic: r.paths[i].Join("cpi"), Reading: sensor.Reading{Value: cpi, Time: ns}},
				{Topic: r.paths[i].Join("miss-rate"), Reading: sensor.Reading{Value: missRate, Time: ns}},
				{Topic: r.paths[i].Join("flops-rate"), Reading: sensor.Reading{Value: flopsRate, Time: ns}},
			})
		}
		if s > t0+1 {
			if err := core.Tick(r.op, r.qe, r.sink, now); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTrainsAndRecognisesApps(t *testing.T) {
	r := newRig(t, 120)
	// Labelled training phases alternating two very different apps.
	t0 := int64(0)
	for round := 0; round < 3; round++ {
		r.runPhase(t, "lammps", t0, 40)
		t0 += 40
		r.runPhase(t, "kripke", t0, 40)
		t0 += 40
	}
	if !r.op.Trained() {
		have, want := r.op.TrainingProgress()
		t.Fatalf("not trained: %d/%d", have, want)
	}
	classes := r.op.Classes()
	if len(classes) != 2 || classes[0] != "kripke" || classes[1] != "lammps" {
		t.Fatalf("classes = %v", classes)
	}
	// Recognition phase: run lammps again, unlabelled readings classified.
	r.runPhase(t, "lammps", t0, 30)
	label, ok := r.qe.Latest(r.paths[0].Join("app-class"))
	if !ok {
		t.Fatal("no classification output")
	}
	if int(label.Value) != 1 { // index of "lammps"
		t.Errorf("classified as %v, want lammps (1); classes %v", label.Value, classes)
	}
	conf, ok := r.qe.Latest(r.paths[0].Join("app-conf"))
	if !ok || conf.Value < 0.5 {
		t.Errorf("confidence = %v, %v", conf.Value, ok)
	}
}

func TestUnknownWhenUncertain(t *testing.T) {
	r := newRig(t, 60)
	t0 := int64(0)
	r.runPhase(t, "lammps", t0, 40)
	t0 += 40
	r.runPhase(t, "kripke", t0, 40)
	t0 += 40
	if !r.op.Trained() {
		t.Skip("training incomplete at this scale") // deterministic rig: should not happen
	}
	// Idle node produces out-of-distribution metrics; prediction may be
	// either class but with split votes it must degrade to Unknown, and
	// the output must always be a valid class index or Unknown.
	r.runPhase(t, "idle", t0, 30)
	label, ok := r.qe.Latest(r.paths[0].Join("app-class"))
	if !ok {
		t.Fatal("no output")
	}
	if v := int(label.Value); v != Unknown && v != 0 && v != 1 {
		t.Errorf("class = %v, not a valid index", v)
	}
}

func TestConfigErrors(t *testing.T) {
	nav := navigator.New()
	if err := nav.AddSensor("/n1/cpi"); err != nil {
		t.Fatal(err)
	}
	qe := core.NewQueryEngine(nav, cache.NewSet(), nil)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Inputs: []string{"cpi"}, Outputs: []string{"app"}, Unit: "/n1/",
		},
	}
	if _, err := New(cfg, qe, core.Env{}); err == nil {
		t.Error("missing job provider should fail")
	}
	table := jobs.NewTable()
	op, err := New(cfg, qe, core.Env{Jobs: table})
	if err != nil {
		t.Fatal(err)
	}
	if op.Parallel() {
		t.Error("fingerprint must force sequential unit management")
	}
	if _, want := op.TrainingProgress(); want != 500 {
		t.Errorf("default training size = %d", want)
	}
	if op.Classes() != nil {
		t.Error("untrained Classes should be nil")
	}
}

func TestJobLabelHelper(t *testing.T) {
	j := core.Job{ID: "job1"}
	if j.Label() != "job1" {
		t.Error("Label should fall back to ID")
	}
	j.Name = "lammps"
	if j.Label() != "lammps" {
		t.Error("Label should prefer Name")
	}
}
