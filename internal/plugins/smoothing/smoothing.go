// Package smoothing implements DCDB's sensor-smoothing operator plugin:
// for every input sensor it continuously publishes moving averages over a
// set of time windows as derived sensors living next to the original
// (e.g. /node/power -> /node/power-avg60). Smoothed series are the usual
// first stage of dashboards and of coarse-scale pipelines consuming
// fine-grained data.
package smoothing

import (
	"fmt"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// Config parameterises a smoothing operator. Outputs are derived, not
// configured: each input sensor S gets one output S-avg<w> per window of w
// seconds.
type Config struct {
	// Name identifies the operator (default "smoothing").
	Name string `json:"name"`
	// IntervalMs is the computation interval (default 1000).
	IntervalMs int `json:"intervalMs"`
	// Parallel selects parallel unit management.
	Parallel bool `json:"parallel"`
	// Inputs are pattern expressions selecting the sensors to smooth.
	Inputs []string `json:"inputs"`
	// WindowsS are the averaging windows in seconds (default 60 and 300,
	// DCDB's common configuration).
	WindowsS []int `json:"windowsS"`
}

// Operator publishes moving averages of its input sensors.
type Operator struct {
	*core.Base
	windows []time.Duration
}

// suffix renders the derived-sensor suffix of one window.
func suffix(w int) string { return fmt.Sprintf("-avg%d", w) }

// New builds a smoothing operator from a parsed config.
func New(cfg Config, qe *core.QueryEngine) (*Operator, error) {
	if len(cfg.WindowsS) == 0 {
		cfg.WindowsS = []int{60, 300}
	}
	op := &Operator{}
	for _, w := range cfg.WindowsS {
		if w <= 0 {
			return nil, fmt.Errorf("smoothing: non-positive window %d", w)
		}
		op.windows = append(op.windows, time.Duration(w)*time.Second)
	}
	oc := core.OperatorConfig{Name: cfg.Name, IntervalMs: cfg.IntervalMs, Parallel: cfg.Parallel, Inputs: cfg.Inputs}
	// One output per (input, window), ordered input-major so Compute can
	// index outputs as i*len(windows)+j.
	base, err := oc.Build("smoothing", qe.Navigator(), func(u *units.Unit) []sensor.Topic {
		outs := make([]sensor.Topic, 0, len(u.Inputs)*len(cfg.WindowsS))
		for _, in := range u.Inputs {
			for _, w := range cfg.WindowsS {
				outs = append(outs, in+sensor.Topic(suffix(w)))
			}
		}
		return outs
	})
	if err != nil {
		return nil, err
	}
	op.Base = base
	return op, nil
}

// Compute implements core.Operator: output (i, j) receives the average of
// input i over window j. Averages are computed through bound handles,
// outputs accumulate in the context's buffer.
func (o *Operator) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, tc *core.TickContext) ([]core.Output, error) {
	bu := qe.BindUnit(u)
	outs := tc.Outputs[:0]
	for i := range u.Inputs {
		for j, w := range o.windows {
			avg, ok := bu.Inputs[i].AggregateRelative(w).Value(store.AggAvg)
			if !ok {
				continue // sensor not warm yet
			}
			outs = append(outs, core.Output{
				Topic:   u.Outputs[i*len(o.windows)+j],
				Reading: sensor.At(avg, now),
			})
		}
	}
	tc.Outputs = outs
	return outs, nil
}

func init() {
	core.Register("smoothing", func(cfg Config, qe *core.QueryEngine, _ core.Env) (*Operator, error) { return New(cfg, qe) })
}
