// Package persyst implements the job-level aggregation operator plugin of
// the paper's case study 2 (§VI-C), a re-implementation of the PerSyst
// framework's quantile transport: "at each computing interval, it queries
// the set of running jobs on the HPC system, and for each of them it
// instantiates a unit according to its configuration. [...] the operator
// computes a series of job-level statistical indicators" — here the
// deciles of a derived metric (e.g. CPI) across all cores of a job.
//
// It is a job operator plugin (paper §V-C): its units are dynamic, one per
// running job, with inputs gathered from all compute nodes the job runs
// on and outputs published under a virtual /jobs/<id>/ subtree.
package persyst

import (
	"fmt"
	"math"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/ml/quantile"
	"github.com/dcdb/wintermute/internal/sensor"
)

// Config parameterises a persyst operator.
type Config struct {
	// Name identifies the operator (default "persyst").
	Name string `json:"name"`
	// IntervalMs is the computation interval (default 1000).
	IntervalMs int `json:"intervalMs"`
	// Metric is the short name of the input metric aggregated per job,
	// e.g. "cpi" as produced by the perfmetrics plugin.
	Metric string `json:"metric"`
	// Quantiles are the probabilities published per job; the default is
	// the eleven deciles 0, 0.1, ..., 1.0 of the paper's Figure 7.
	Quantiles []float64 `json:"quantiles"`
	// JobPrefix is the virtual component under which job outputs are
	// published (default "/jobs/").
	JobPrefix string `json:"jobPrefix"`
}

// Operator aggregates a metric into per-job quantiles.
type Operator struct {
	*core.Base
	cfg  Config
	jobs core.JobProvider
}

// New builds a persyst operator; it requires a job provider in the
// environment.
func New(cfg Config, qe *core.QueryEngine, env core.Env) (*Operator, error) {
	if env.Jobs == nil {
		return nil, fmt.Errorf("persyst: no job provider available")
	}
	if cfg.Metric == "" {
		return nil, fmt.Errorf("persyst: missing metric name")
	}
	if cfg.Name == "" {
		cfg.Name = "persyst"
	}
	if cfg.JobPrefix == "" {
		cfg.JobPrefix = "/jobs/"
	}
	if len(cfg.Quantiles) == 0 {
		for i := 0; i <= 10; i++ {
			cfg.Quantiles = append(cfg.Quantiles, float64(i)/10)
		}
	}
	for _, q := range cfg.Quantiles {
		if q < 0 || q > 1 || math.IsNaN(q) {
			return nil, fmt.Errorf("persyst: quantile %v out of range", q)
		}
	}
	base := core.NewBase(cfg.Name, "persyst", core.Online, time.Duration(cfg.IntervalMs)*time.Millisecond, false)
	return &Operator{Base: base, cfg: cfg, jobs: env.Jobs}, nil
}

// outputName renders the output sensor name of one quantile: deciles get
// the dec0..dec10 names of the paper, other probabilities a q<percent>
// name.
func (o *Operator) outputName(q float64) string {
	dec := q * 10
	if dec == math.Trunc(dec) {
		return fmt.Sprintf("%s-dec%d", o.cfg.Metric, int(dec))
	}
	return fmt.Sprintf("%s-q%02d", o.cfg.Metric, int(math.Round(q*100)))
}

// Prepare implements core.Preparer: one unit per running job, with
// inputs discovered from the sensor tree below the job's nodes.
func (o *Operator) Prepare(qe *core.QueryEngine, now time.Time) error {
	running := o.jobs.RunningJobs(now.UnixNano())
	nav := qe.Navigator()
	us := make([]*units.Unit, 0, len(running))
	for _, job := range running {
		var inputs []sensor.Topic
		for _, node := range job.Nodes {
			for _, tp := range nav.SensorsBelow(node) {
				if tp.Name() == o.cfg.Metric {
					inputs = append(inputs, tp)
				}
			}
		}
		if len(inputs) == 0 {
			continue // upstream pipeline stage not warm yet
		}
		unitPath := sensor.Topic(o.cfg.JobPrefix).AsNode().JoinNode(job.ID)
		u := &units.Unit{Name: unitPath, Inputs: inputs}
		for _, q := range o.cfg.Quantiles {
			u.Outputs = append(u.Outputs, unitPath.Join(o.outputName(q)))
		}
		us = append(us, u)
	}
	o.SetUnits(us)
	return nil
}

// Compute implements core.Operator: the latest reading of every input is
// collected and reduced to the configured quantiles. The per-job sample
// vector lives in the context's float scratch. Units are rebuilt every
// tick by Prepare, so bound handles are attached to each fresh unit
// on its first computation and collected with it.
func (o *Operator) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, tc *core.TickContext) ([]core.Output, error) {
	bu := qe.BindUnit(u)
	values := tc.Floats[:0]
	for i := range u.Inputs {
		if r, ok := bu.Inputs[i].Latest(); ok {
			values = append(values, r.Value)
		}
	}
	tc.Floats = values
	if len(values) == 0 {
		return nil, nil
	}
	qs := quantile.ExactMany(values, o.cfg.Quantiles)
	outs := tc.Outputs[:0]
	for i, v := range qs {
		if math.IsNaN(v) {
			continue
		}
		outs = append(outs, core.Output{Topic: u.Outputs[i], Reading: sensor.At(v, now)})
	}
	tc.Outputs = outs
	return outs, nil
}

func init() { core.Register("persyst", New) }
