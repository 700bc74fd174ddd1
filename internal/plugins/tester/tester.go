// Package tester implements the tester operator plugin of paper §VI-A:
// operators that "simply perform a certain number of queries over the
// input sensors of their units" per computation interval. It is the
// workload used to characterise the Query Engine's overhead (Figure 5),
// parameterised by the number of queries, the queried time range, and the
// query mode (absolute vs relative time-stamps).
package tester

import (
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/sensor"
)

// Config parameterises a tester operator.
type Config struct {
	core.OperatorConfig
	// Queries is the number of sensor queries issued per computation
	// interval (the x-axis of Figure 5).
	Queries int `json:"queries"`
	// WindowMs is the temporal range of each query in milliseconds (the
	// y-axis of Figure 5); 0 retrieves only the most recent value.
	WindowMs int `json:"windowMs"`
	// Absolute selects absolute-timestamp queries (binary search,
	// O(log N)) instead of relative ones (O(1)).
	Absolute bool `json:"absolute"`
}

// Operator issues configurable query load against the Query Engine.
type Operator struct {
	*core.Base
	cfg Config

	// readings counts the total readings retrieved, exposed for tests.
	mu       sync.Mutex
	readings uint64
}

// New builds a tester operator from a parsed config.
func New(cfg Config, qe *core.QueryEngine) (*Operator, error) {
	base, err := cfg.OperatorConfig.Build("tester", qe.Navigator())
	if err != nil {
		return nil, err
	}
	if cfg.Queries <= 0 {
		cfg.Queries = 1
	}
	return &Operator{Base: base, cfg: cfg}, nil
}

// ReadingsRetrieved returns the cumulative number of readings fetched.
func (o *Operator) ReadingsRetrieved() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.readings
}

// Compute issues the configured number of queries round-robin over the
// unit's input sensors and reports the number of readings retrieved on the
// unit's outputs. The query workload runs through bound sensor handles
// against the context's reading scratch, so a steady-state tick performs
// no per-query topic resolution and no allocations — the configuration
// the paper's Figure 5 sweeps.
func (o *Operator) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, tc *core.TickContext) ([]core.Output, error) {
	if len(u.Inputs) == 0 {
		return nil, nil
	}
	bu := qe.BindUnit(u)
	window := time.Duration(o.cfg.WindowMs) * time.Millisecond
	nowNs := now.UnixNano()
	buf := tc.Readings
	var total int
	for q := 0; q < o.cfg.Queries; q++ {
		in := bu.Inputs[q%len(u.Inputs)]
		buf = buf[:0]
		if o.cfg.Absolute {
			buf = in.QueryAbsolute(nowNs-int64(window), nowNs, buf)
		} else {
			buf = in.QueryRelative(window, buf)
		}
		total += len(buf)
	}
	tc.Readings = buf
	o.mu.Lock()
	o.readings += uint64(total)
	o.mu.Unlock()
	outs := tc.Outputs[:0]
	for _, out := range u.Outputs {
		outs = append(outs, core.Output{Topic: out, Reading: sensor.At(float64(total), now)})
	}
	tc.Outputs = outs
	return outs, nil
}

func init() {
	core.Register("tester", func(cfg Config, qe *core.QueryEngine, _ core.Env) (*Operator, error) { return New(cfg, qe) })
}
