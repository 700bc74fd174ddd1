// Package perfmetrics implements the first stage of the paper's case
// study 2 (§VI-C): an operator plugin that converts raw per-core
// performance counters into derived metrics "such as cycles per
// instruction (CPI), floating point operations per second (FLOPS) or
// vectorization ratio, which are useful to evaluate application
// performance". Instantiated in Pushers, typically with one unit per CPU
// core, its outputs feed the persyst plugin in the Collect Agent — the
// pipeline of paper §IV-d.
package perfmetrics

import (
	"fmt"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/sensor"
)

// Counter names expected among the unit inputs (matched by sensor name).
const (
	CounterCycles       = "cpu-cycles"
	CounterInstructions = "instructions"
	CounterFlops        = "flops"
	CounterVectorOps    = "vector-ops"
	CounterCacheMisses  = "cache-misses"
)

// Metric names produced on outputs (matched by output sensor name).
const (
	MetricCPI         = "cpi"
	MetricFlopsRate   = "flops-rate"
	MetricVectorRatio = "vector-ratio"
	MetricMissRate    = "miss-rate" // cache misses per instruction
)

// Config parameterises a perfmetrics operator. The metrics computed are
// chosen by the *names* of the output pattern expressions: an output
// named "cpi" produces CPI, "flops-rate" produces FLOPS, and so on.
type Config struct {
	core.OperatorConfig
	// WindowMs is the differentiation window in milliseconds (default:
	// two computation intervals, guaranteeing two samples).
	WindowMs int `json:"windowMs"`
}

// Operator derives performance metrics from counter deltas.
type Operator struct {
	*core.Base
	window time.Duration
}

// New builds a perfmetrics operator from a parsed config.
func New(cfg Config, qe *core.QueryEngine) (*Operator, error) {
	base, err := cfg.OperatorConfig.Build("perfmetrics", qe.Navigator())
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.WindowMs) * time.Millisecond
	if window <= 0 {
		window = 2 * cfg.OperatorConfig.IntervalDuration()
	}
	// Validate that every requested output metric is computable, from
	// the patterns: units may come only later.
	for _, expr := range cfg.Outputs {
		p, _ := units.Parse(expr) // Build has parsed it
		if _, err := requiredCounters(sensor.Topic(p.Name).Name()); err != nil {
			return nil, err
		}
	}
	return &Operator{Base: base, window: window}, nil
}

// requiredCounters maps a metric name to the counters it differentiates.
func requiredCounters(metric string) ([2]string, error) {
	switch metric {
	case MetricCPI:
		return [2]string{CounterCycles, CounterInstructions}, nil
	case MetricFlopsRate:
		return [2]string{CounterFlops, ""}, nil
	case MetricVectorRatio:
		return [2]string{CounterVectorOps, CounterFlops}, nil
	case MetricMissRate:
		return [2]string{CounterCacheMisses, CounterInstructions}, nil
	}
	return [2]string{}, fmt.Errorf("perfmetrics: unknown metric %q", metric)
}

// delta returns the (first, last) readings of the input sensor with the
// given short name over the differentiation window, querying through the
// unit's bound handles.
func (o *Operator) delta(bu *core.BoundUnit, name string, buf []sensor.Reading) (first, last sensor.Reading, ok bool, out []sensor.Reading) {
	in, found := bu.InputNamed(name)
	if !found {
		return sensor.Reading{}, sensor.Reading{}, false, buf
	}
	buf = in.QueryRelative(o.window, buf[:0])
	if len(buf) < 2 {
		return sensor.Reading{}, sensor.Reading{}, false, buf
	}
	return buf[0], buf[len(buf)-1], true, buf
}

// Compute implements core.Operator: each output sensor receives its
// derived metric computed from counter deltas over the window.
func (o *Operator) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, tc *core.TickContext) ([]core.Output, error) {
	bu := qe.BindUnit(u)
	outs := tc.Outputs[:0]
	buf := tc.Readings
	defer func() {
		tc.Outputs = outs
		tc.Readings = buf
	}()
	for _, out := range u.Outputs {
		metric := out.Name()
		counters, err := requiredCounters(metric)
		if err != nil {
			return outs, err
		}
		var num, den float64
		var ok bool
		var f, l sensor.Reading
		f, l, ok, buf = o.delta(bu, counters[0], buf)
		if !ok {
			continue // not enough data yet; normal during warm-up
		}
		num = sensor.Delta(f, l)
		switch metric {
		case MetricFlopsRate:
			den = float64(l.Time-f.Time) / 1e9 // per second
		default:
			f2, l2, ok2, b := o.delta(bu, counters[1], buf)
			buf = b
			if !ok2 {
				continue
			}
			den = sensor.Delta(f2, l2)
		}
		if den <= 0 {
			continue
		}
		outs = append(outs, core.Output{Topic: out, Reading: sensor.At(num/den, now)})
	}
	return outs, nil
}

func init() {
	core.Register("perfmetrics", func(cfg Config, qe *core.QueryEngine, _ core.Env) (*Operator, error) { return New(cfg, qe) })
}
