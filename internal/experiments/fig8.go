package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/ml/stats"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/plugins/clustering"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/cluster"
	"github.com/dcdb/wintermute/internal/sim/hardware"
	"github.com/dcdb/wintermute/internal/sim/workload"
)

// Fig8Config parameterises experiment E4 (Figure 8): Bayesian Gaussian
// mixture clustering of per-node 2-week aggregates of power, temperature
// and CPU idle time across the whole fleet.
type Fig8Config struct {
	// Nodes is the fleet size (paper: CooLMUC-3's 148 nodes).
	Nodes int
	// SampleInterval is the fleet sampling interval. The paper samples
	// at 10 s; coarser sampling is statistically equivalent for 2-week
	// aggregates and keeps memory bounded (see DESIGN.md).
	SampleInterval time.Duration
	// Window is the aggregation window (paper: 2 weeks).
	Window time.Duration
	// Groups define the long-term load mix of the fleet.
	Groups []Fig8Group
	// Anomalies implants this many degraded nodes drawing AnomalyFactor
	// times the healthy power at equal load (paper: one node at ~+20 %).
	Anomalies      int
	AnomalyFactor  float64
	MaxComponents  int
	OutlierDensity float64
	Seed           int64
}

// Fig8Group is one long-term behaviour class of the fleet.
type Fig8Group struct {
	Name string
	// Frac is the fraction of the fleet in this group.
	Frac float64
	// UtilMean is the group's mean long-term utilisation.
	UtilMean float64
	// UtilSpread is the node-to-node variation of mean utilisation.
	UtilSpread float64
}

// DefaultFig8 mirrors the paper's fleet: most nodes in a broad middle
// cluster, an idle-heavy cluster and a heavily-loaded cluster (the paper
// attributes the imbalance to a scheduling policy that does not balance
// workload between nodes).
func DefaultFig8() Fig8Config {
	return Fig8Config{
		Nodes:          148,
		SampleInterval: 5 * time.Minute,
		Window:         14 * 24 * time.Hour,
		Groups: []Fig8Group{
			{Name: "idle-heavy", Frac: 0.2, UtilMean: 0.15, UtilSpread: 0.05},
			{Name: "normal", Frac: 0.6, UtilMean: 0.55, UtilSpread: 0.07},
			{Name: "loaded", Frac: 0.2, UtilMean: 0.92, UtilSpread: 0.04},
		},
		Anomalies:      1,
		AnomalyFactor:  1.2,
		MaxComponents:  8,
		OutlierDensity: 0.001,
		Seed:           31,
	}
}

// QuickFig8 is a scaled-down configuration for smoke runs and tests.
func QuickFig8() Fig8Config {
	cfg := DefaultFig8()
	cfg.Nodes = 90
	cfg.SampleInterval = 30 * time.Minute
	cfg.Window = 7 * 24 * time.Hour
	return cfg
}

// Fig8Point is one compute node in the clustered space.
type Fig8Point struct {
	Node     string
	Power    float64 // W, window average
	Temp     float64 // degC, window average
	IdleTime float64 // s, accumulated over the window
	Label    int     // cluster label; clustering.OutlierLabel for outliers
	Implant  bool    // true for implanted anomalies
}

// Fig8Result is the outcome of the fleet clustering.
type Fig8Result struct {
	Points        []Fig8Point
	NumClusters   int
	Outliers      int
	CorrPowerTemp float64
	CorrPowerIdle float64
	// ImplantFlagged reports how many implanted anomalies were labelled
	// outliers.
	ImplantFlagged int
}

// profileApp drives a node at a fixed long-term utilisation with slow
// wander, standing in for the aggregate of weeks of real job activity.
type profileApp struct {
	util  float64
	seed  uint64
	phase float64
}

// Name implements workload.App.
func (a profileApp) Name() string { return "profile" }

// Duration implements workload.App.
func (a profileApp) Duration() float64 { return math.Inf(1) }

// Util implements workload.App: slow sinusoidal wander around the mean.
func (a profileApp) Util(t float64) float64 {
	u := a.util + 0.08*math.Sin(2*math.Pi*(t/86400+a.phase))
	if u < 0.02 {
		u = 0.02
	}
	if u > 0.99 {
		u = 0.99
	}
	return u
}

// CPI implements workload.App.
func (a profileApp) CPI(core int, t float64) float64 { return 2 }

// FlopFrac implements workload.App.
func (a profileApp) FlopFrac(core int, t float64) float64 { return 0.2 }

// VectorRatio implements workload.App.
func (a profileApp) VectorRatio(core int, t float64) float64 { return 0.4 }

var _ workload.App = profileApp{}

// RunFig8 simulates weeks of fleet-wide monitoring and then runs the
// clustering operator exactly as deployed in the Collect Agent.
func RunFig8(cfg Fig8Config) (*Fig8Result, error) {
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("fig8: no groups configured")
	}
	nav := navigator.New()
	caches := cache.NewSet()
	qe := core.NewQueryEngine(nav, caches, nil)
	capacity := int(cfg.Window/cfg.SampleInterval) + 2
	sink := core.NewCacheSink(caches, nav, capacity, cfg.SampleInterval)

	topo := cluster.Topology{
		Racks: 4, ChassisPerRack: 4, NodesPerChassis: (cfg.Nodes + 15) / 16,
		CoresPerNode: 1, MaxNodes: cfg.Nodes,
	}
	paths := topo.NodePaths()

	// Assign groups and implant anomalies deterministically.
	rng := newSplitRand(cfg.Seed)
	type nodeRT struct {
		node    *hardware.Node
		path    sensor.Topic
		implant bool
	}
	var rts []*nodeRT
	idx := 0
	for g, group := range cfg.Groups {
		count := int(group.Frac*float64(cfg.Nodes) + 0.5)
		if g == len(cfg.Groups)-1 {
			count = cfg.Nodes - idx
		}
		for i := 0; i < count && idx < cfg.Nodes; i++ {
			util := group.UtilMean + (rng.float()*2-1)*group.UtilSpread
			h := hardware.NewNode(hardware.Config{Cores: 1, Seed: cfg.Seed + int64(idx)})
			h.SetApp(profileApp{util: util, seed: uint64(idx), phase: rng.float()}, 0)
			rts = append(rts, &nodeRT{node: h, path: paths[idx]})
			idx++
		}
	}
	// Implants go into the idle-heavy group (the paper's outlier consumes
	// ~20% more power than nodes with similar idle time).
	for i := 0; i < cfg.Anomalies && i < len(rts); i++ {
		rts[i].node.SetPowerFactor(cfg.AnomalyFactor)
		rts[i].implant = true
	}
	for _, rt := range rts {
		for _, s := range []string{"power", "temp", "idle-time"} {
			if err := nav.AddSensor(rt.path.Join(s)); err != nil {
				return nil, err
			}
		}
	}

	// Simulate the aggregation window.
	steps := int(cfg.Window / cfg.SampleInterval)
	for step := 0; step <= steps; step++ {
		ns := int64(step) * int64(cfg.SampleInterval)
		for _, rt := range rts {
			rt.node.Advance(ns)
			sink.PushBatch([]core.Output{
				{Topic: rt.path.Join("power"), Reading: sensor.Reading{Value: rt.node.Power(), Time: ns}},
				{Topic: rt.path.Join("temp"), Reading: sensor.Reading{Value: rt.node.Temp(), Time: ns}},
				{Topic: rt.path.Join("idle-time"), Reading: sensor.Reading{Value: rt.node.IdleSeconds(), Time: ns}},
			})
		}
	}

	op, err := clustering.New(clustering.Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "fleet-clustering",
			Inputs:  []string{"power", "temp", "idle-time"},
			Outputs: []string{"<bottomup>cluster-label"},
		},
		WindowMs:         int(cfg.Window / time.Millisecond),
		Counters:         []string{"idle-time"},
		MaxComponents:    cfg.MaxComponents,
		OutlierThreshold: cfg.OutlierDensity,
		Seed:             cfg.Seed,
	}, qe)
	if err != nil {
		return nil, err
	}
	endNs := int64(steps) * int64(cfg.SampleInterval)
	if err := core.Tick(op, qe, sink, time.Unix(0, endNs)); err != nil {
		return nil, err
	}
	cres := op.LastResult()

	res := &Fig8Result{
		NumClusters: cres.Model.NumActive(),
		Outliers:    cres.Outliers,
	}
	implantByPath := map[sensor.Topic]bool{}
	for _, rt := range rts {
		implantByPath[rt.path] = rt.implant
	}
	var powers, temps, idles []float64
	for i, unitName := range cres.Units {
		pt := Fig8Point{
			Node:     string(unitName),
			Power:    cres.Points[i][0],
			Temp:     cres.Points[i][1],
			IdleTime: cres.Points[i][2],
			Label:    cres.Labels[i],
			Implant:  implantByPath[unitName],
		}
		if pt.Implant && pt.Label == clustering.OutlierLabel {
			res.ImplantFlagged++
		}
		res.Points = append(res.Points, pt)
		powers = append(powers, pt.Power)
		temps = append(temps, pt.Temp)
		idles = append(idles, pt.IdleTime)
	}
	res.CorrPowerTemp = stats.Pearson(powers, temps)
	res.CorrPowerIdle = stats.Pearson(powers, idles)
	return res, nil
}

// splitRand is a tiny deterministic RNG for experiment setup, independent
// of math/rand ordering guarantees.
type splitRand struct{ s uint64 }

func newSplitRand(seed int64) *splitRand { return &splitRand{s: uint64(seed)*2862933555777941757 + 1} }

func (r *splitRand) float() float64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
