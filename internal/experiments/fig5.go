package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/plugins/tester"
	"github.com/dcdb/wintermute/internal/pusher"
	"github.com/dcdb/wintermute/internal/samplers"
)

// Fig5Config parameterises experiment E1 (Figure 5): the runtime overhead
// of the Query Engine on a CPU-saturating benchmark, as a function of the
// number of queries per interval and the temporal range of each query, in
// absolute and relative query modes.
type Fig5Config struct {
	// Queries are the per-interval query counts (paper: 2..1000).
	Queries []int
	// WindowsMs are the query temporal ranges in ms (paper: 0..100000;
	// 0 retrieves only the most recent value).
	WindowsMs []int
	// NumSensors is the size of the tester monitoring plugin (paper:
	// 1000 monotonic sensors).
	NumSensors int
	// SampleInterval is the sampling and operator interval (paper: 1 s).
	SampleInterval time.Duration
	// CacheRetention is the sensor-cache span (paper: 180 s).
	CacheRetention time.Duration
	// Warmup fills caches for this simulated span before measuring.
	Warmup time.Duration
	// Kernel is the HPL stand-in; Repeats runs per cell, median taken.
	Kernel  KernelConfig
	Repeats int
}

// DefaultFig5 mirrors the paper's grid.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		Queries:        []int{2, 10, 100, 500, 1000},
		WindowsMs:      []int{0, 12500, 25000, 50000, 100000},
		NumSensors:     1000,
		SampleInterval: time.Second,
		CacheRetention: 180 * time.Second,
		Warmup:         180 * time.Second,
		Kernel:         DefaultKernel(),
		Repeats:        3,
	}
}

// QuickFig5 is a scaled-down grid for smoke runs and tests.
func QuickFig5() Fig5Config {
	return Fig5Config{
		Queries:        []int{2, 100},
		WindowsMs:      []int{0, 25000},
		NumSensors:     200,
		SampleInterval: 250 * time.Millisecond,
		CacheRetention: 60 * time.Second,
		Warmup:         60 * time.Second,
		Kernel:         KernelConfig{N: 192, Iters: 4},
		Repeats:        1,
	}
}

// Fig5Cell is one heatmap cell.
type Fig5Cell struct {
	Queries  int
	WindowMs int
	// OverheadPc is the measured percentage increase of the kernel's
	// runtime with the Pusher active. On shared or small machines this
	// measurement is dominated by scheduling noise; the paper measured it
	// on dedicated 64-core nodes.
	OverheadPc float64
	// TickCost is the directly-measured CPU time of one operator
	// computation interval (all queries) — noise-free.
	TickCost time.Duration
	// BoundPc is the analytical overhead bound implied by TickCost: the
	// fraction of one core the operator consumes per interval, spread
	// over the machine's cores. It is the apples-to-apples counterpart
	// of the paper's heatmap values.
	BoundPc float64
}

// Fig5Result holds both heatmaps plus the baseline runtime.
type Fig5Result struct {
	Baseline time.Duration
	Absolute []Fig5Cell
	Relative []Fig5Cell
}

// Cell returns the overhead of the (queries, windowMs) cell in the given
// mode, and whether it exists.
func (r *Fig5Result) Cell(absolute bool, queries, windowMs int) (float64, bool) {
	cells := r.Relative
	if absolute {
		cells = r.Absolute
	}
	for _, c := range cells {
		if c.Queries == queries && c.WindowMs == windowMs {
			return c.OverheadPc, true
		}
	}
	return 0, false
}

// MaxOverhead returns the largest overhead across both heatmaps.
func (r *Fig5Result) MaxOverhead() float64 {
	max := 0.0
	for _, cs := range [][]Fig5Cell{r.Absolute, r.Relative} {
		for _, c := range cs {
			if c.OverheadPc > max {
				max = c.OverheadPc
			}
		}
	}
	return max
}

// RunFig5 measures the overhead grid. For each cell a Pusher is stood up
// with the tester monitoring plugin (NumSensors monotonic sensors) and a
// tester operator issuing the cell's query load. Two measurements are
// taken: (1) the directly-timed cost of one operator interval, from which
// an analytical overhead bound follows; and (2) the wall-clock overhead of
// the compute kernel with the live Pusher active, using interleaved
// baseline/active pairs so slow machine drift cancels.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	baseline := medianKernel(cfg.Kernel, cfg.Repeats)
	res := &Fig5Result{Baseline: baseline}
	for _, absolute := range []bool{false, true} {
		for _, w := range cfg.WindowsMs {
			for _, q := range cfg.Queries {
				cell, err := measureCell(cfg, q, w, absolute)
				if err != nil {
					return nil, err
				}
				if absolute {
					res.Absolute = append(res.Absolute, cell)
				} else {
					res.Relative = append(res.Relative, cell)
				}
			}
		}
	}
	return res, nil
}

func medianKernel(k KernelConfig, repeats int) time.Duration {
	if repeats < 1 {
		repeats = 1
	}
	ds := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		d, _ := RunKernel(k)
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// measureCell stands up the Pusher for one grid cell and takes both the
// analytical and the wall-clock measurement.
func measureCell(cfg Fig5Config, queries, windowMs int, absolute bool) (Fig5Cell, error) {
	cell := Fig5Cell{Queries: queries, WindowMs: windowMs}
	p, err := pusher.New(pusher.Config{Name: "fig5", CacheRetention: cfg.CacheRetention})
	if err != nil {
		return cell, err
	}
	defer p.Close()
	sampler := samplers.NewTester("tester-mon", "/node/", cfg.NumSensors, cfg.SampleInterval)
	if err := p.AddSampler(sampler); err != nil {
		return cell, err
	}
	// Pre-fill caches to steady state under a simulated clock so every
	// cell queries fully-populated caches, as in the paper (the cluster
	// had been monitoring continuously).
	start := time.Now().Add(-cfg.Warmup)
	for ts := start; ts.Before(time.Now()); ts = ts.Add(cfg.SampleInterval) {
		p.SampleOnce(ts)
	}
	// Tester operator: round-robin inputs over all monitored sensors.
	inputs := make([]string, 0, cfg.NumSensors)
	for i := 0; i < cfg.NumSensors; i++ {
		inputs = append(inputs, fmt.Sprintf("test%d", i))
	}
	opCfg := tester.Config{
		OperatorConfig: core.OperatorConfig{
			Name:       "tester-op",
			Inputs:     inputs,
			Outputs:    []string{"tester-readings"},
			Unit:       "/node/",
			IntervalMs: int(cfg.SampleInterval / time.Millisecond),
		},
		Queries:  queries,
		WindowMs: windowMs,
		Absolute: absolute,
	}
	raw, err := json.Marshal(opCfg)
	if err != nil {
		return cell, err
	}
	if err := p.Manager.LoadPlugin("tester", raw); err != nil {
		return cell, err
	}
	// Analytical bound: time one full operator interval directly.
	const tickReps = 5
	tickStart := time.Now()
	for i := 0; i < tickReps; i++ {
		if err := p.Manager.TickAll(time.Now()); err != nil {
			return cell, err
		}
	}
	cell.TickCost = time.Since(tickStart) / tickReps
	cell.BoundPc = 100 * cell.TickCost.Seconds() / cfg.SampleInterval.Seconds() /
		float64(runtime.GOMAXPROCS(0))
	// Wall-clock overhead with the live Pusher, interleaved with fresh
	// baselines so machine-level drift cancels. Stop keeps the worker
	// pool, so every repeat runs the operator's units on it.
	p.Start()
	overheads := make([]float64, 0, cfg.Repeats)
	for i := 0; i < cfg.Repeats; i++ {
		active, _ := RunKernel(cfg.Kernel)
		p.Stop()
		base, _ := RunKernel(cfg.Kernel)
		p.Start()
		overheads = append(overheads, 100*(active.Seconds()-base.Seconds())/base.Seconds())
	}
	sort.Float64s(overheads)
	cell.OverheadPc = overheads[len(overheads)/2]
	if cell.OverheadPc < 0 {
		cell.OverheadPc = 0 // measurement noise floor
	}
	return cell, nil
}
