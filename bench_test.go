// Package wintermute holds the repository-level benchmark suite: one
// bench per evaluation figure of the paper plus the ablation benches
// called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package wintermute

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/ml/bgmm"
	"github.com/dcdb/wintermute/internal/ml/forest"
	"github.com/dcdb/wintermute/internal/ml/quantile"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/plugins/aggregator"
	"github.com/dcdb/wintermute/internal/plugins/tester"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/cluster"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
	"github.com/dcdb/wintermute/internal/tsdb"

	_ "github.com/dcdb/wintermute/internal/plugins/all"
)

const sec = int64(time.Second)

// --- Figure 5 ablation: cache view modes --------------------------------

func filledCache(n int) *cache.Cache {
	c := cache.New(n, time.Second)
	for i := 0; i < n; i++ {
		c.StoreBatch([]sensor.Reading{{Value: float64(i), Time: int64(i) * sec}})
	}
	return c
}

// BenchmarkCacheViewRelative measures the O(1) relative view (Fig. 5b's
// query path).
func BenchmarkCacheViewRelative(b *testing.B) {
	c := filledCache(180)
	buf := make([]sensor.Reading, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.ViewRelative(50*time.Second, buf[:0])
	}
	_ = buf
}

// BenchmarkCacheViewAbsolute measures the O(log N) binary-search view
// (Fig. 5a's query path).
func BenchmarkCacheViewAbsolute(b *testing.B) {
	c := filledCache(180)
	latest, _ := c.Latest()
	buf := make([]sensor.Reading, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.ViewAbsolute(latest.Time-50*sec, latest.Time, buf[:0])
	}
	_ = buf
}

// --- Figure 5: tester operator query load -------------------------------

func testerEnv(b *testing.B, sensors int) (*core.QueryEngine, *core.Manager) {
	b.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	for i := 0; i < sensors; i++ {
		topic := sensor.Topic(fmt.Sprintf("/node/test%d", i))
		if err := nav.AddSensor(topic); err != nil {
			b.Fatal(err)
		}
		c := caches.GetOrCreate(topic, 180, time.Second)
		for k := 0; k < 180; k++ {
			c.StoreBatch([]sensor.Reading{{Value: float64(k), Time: int64(k) * sec}})
		}
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	sink := core.NewCacheSink(caches, nav, 180, time.Second)
	m := core.NewManager(qe, sink, core.Env{})
	b.Cleanup(m.Close)
	return qe, m
}

func benchTesterOperator(b *testing.B, absolute bool) {
	qe, m := testerEnv(b, 1000)
	inputs := make([]string, 1000)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("test%d", i)
	}
	raw, _ := json.Marshal(tester.Config{
		OperatorConfig: core.OperatorConfig{
			Name: "t", Inputs: inputs, Outputs: []string{"n"}, Unit: "/node/",
		},
		Queries:  1000,
		WindowMs: 100000,
		Absolute: absolute,
	})
	if err := m.LoadPlugin("tester", raw); err != nil {
		b.Fatal(err)
	}
	now := time.Unix(179, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.TickAll(now); err != nil {
			b.Fatal(err)
		}
	}
	_ = qe
}

// BenchmarkQueryEngineRelative reproduces Fig. 5's heaviest relative-mode
// cell: 1000 queries over 100 s ranges per interval.
func BenchmarkQueryEngineRelative(b *testing.B) { benchTesterOperator(b, false) }

// BenchmarkQueryEngineAbsolute reproduces the same cell in absolute mode.
func BenchmarkQueryEngineAbsolute(b *testing.B) { benchTesterOperator(b, true) }

// --- Ablation: cache hit vs store fallback ------------------------------

// benchDB opens the production Storage Backend in a temporary directory
// with the janitor off, closed when the benchmark ends.
func benchDB(b *testing.B) *tsdb.DB {
	b.Helper()
	db, err := tsdb.Open(b.TempDir(), tsdb.Options{FlushEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func BenchmarkQueryCacheHit(b *testing.B) {
	nav := navigator.New()
	caches := cache.NewSet()
	st := benchDB(b)
	_ = nav.AddSensor("/n/power")
	c := caches.GetOrCreate("/n/power", 180, time.Second)
	for k := 0; k < 180; k++ {
		r := sensor.Reading{Value: float64(k), Time: int64(k) * sec}
		c.StoreBatch([]sensor.Reading{r})
		st.InsertBatch("/n/power", []sensor.Reading{r})
	}
	qe := core.NewQueryEngine(nav, caches, st)
	buf := make([]sensor.Reading, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = qe.QueryRelative("/n/power", 60*time.Second, buf[:0])
	}
	_ = buf
}

func BenchmarkQueryStoreFallback(b *testing.B) {
	nav := navigator.New()
	caches := cache.NewSet()
	st := benchDB(b)
	_ = nav.AddSensor("/n/power")
	for k := 0; k < 180; k++ {
		st.InsertBatch("/n/power", []sensor.Reading{{Value: float64(k), Time: int64(k) * sec}})
	}
	qe := core.NewQueryEngine(nav, caches, st) // no cache: store answers
	buf := make([]sensor.Reading, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = qe.QueryRelative("/n/power", 60*time.Second, buf[:0])
	}
	_ = buf
}

// --- Tentpole: bound sensor handles vs per-call topic resolution ---------

// boundQueryEnv builds one hot sensor served from a populated cache set.
func boundQueryEnv(b *testing.B) *core.QueryEngine {
	b.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	_ = nav.AddSensor("/n/power")
	c := caches.GetOrCreate("/n/power", 180, time.Second)
	for k := 0; k < 180; k++ {
		c.StoreBatch([]sensor.Reading{{Value: float64(k), Time: int64(k) * sec}})
	}
	return core.NewQueryEngine(nav, caches, nil)
}

// BenchmarkQueryRelativeUnbound is the per-call resolution path: every
// query pays the FNV topic hash, the shard map lookup and the shard RLock
// before touching the ring buffer.
func BenchmarkQueryRelativeUnbound(b *testing.B) {
	qe := boundQueryEnv(b)
	buf := make([]sensor.Reading, 0, 256)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = qe.QueryRelative("/n/power", 60*time.Second, buf[:0])
	}
	_ = buf
}

// BenchmarkQueryRelativeBound is the same query through a bound handle:
// topic resolution was paid once at Bind time, the steady state goes
// straight to the ring buffer — and performs zero allocations.
func BenchmarkQueryRelativeBound(b *testing.B) {
	qe := boundQueryEnv(b)
	h := qe.Bind("/n/power")
	buf := make([]sensor.Reading, 0, 256)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = h.QueryRelative(60*time.Second, buf[:0])
	}
	_ = buf
}

// --- Per-tick allocations: pooled scratch arenas --------------------------

// tickAllocEnv builds an aggregator over 64 node units whose caches are
// warm, the steady-state shape of a roll-up operator.
func tickAllocEnv(b *testing.B) (*core.QueryEngine, core.Operator, core.Sink) {
	b.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	for n := 0; n < 64; n++ {
		topic := sensor.Topic(fmt.Sprintf("/r1/n%02d/power", n))
		_ = nav.AddSensor(topic)
		c := caches.GetOrCreate(topic, 180, time.Second)
		for k := 0; k < 180; k++ {
			c.StoreBatch([]sensor.Reading{{Value: float64(k), Time: int64(k) * sec}})
		}
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	op, err := aggregator.New(aggregator.Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "agg",
			Inputs:  []string{"power"},
			Outputs: []string{"<bottomup>power-agg"},
		},
		Operation: aggregator.Mean,
		WindowMs:  60000,
	}, qe)
	if err != nil {
		b.Fatal(err)
	}
	return qe, op, core.SinkFunc(func([]core.Output) {})
}

// BenchmarkTickComputeScratch drives 64 sequential unit computations per
// tick through pooled scratch arenas and bound sensor handles: the
// steady-state tick performs ~zero allocations (pinned by
// TestTickSteadyStateAllocs in internal/plugins/aggregator).
func BenchmarkTickComputeScratch(b *testing.B) {
	qe, op, sink := tickAllocEnv(b)
	now := time.Unix(179, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := core.Tick(op, qe, sink, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTickIntoStore ticks a sequential aggregator over 1,024 node
// units into a CacheSink backed by a real tsdb: the agent's operator
// path from Compute to the WAL. commits/tick is how many WAL writes one
// operator tick costs.
func BenchmarkTickIntoStore(b *testing.B) {
	nav := navigator.New()
	caches := cache.NewSet()
	for n := 0; n < 1024; n++ {
		topic := sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", n/32, n%32))
		_ = nav.AddSensor(topic)
		c := caches.GetOrCreate(topic, 180, time.Second)
		for k := 0; k < 180; k++ {
			c.StoreBatch([]sensor.Reading{{Value: float64(k), Time: int64(k) * sec}})
		}
	}
	reg := telemetry.NewRegistry()
	db, err := tsdb.Open(b.TempDir(), tsdb.Options{FlushEvery: -1, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	qe := core.NewQueryEngine(nav, caches, db)
	op, err := aggregator.New(aggregator.Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "agg",
			Inputs:  []string{"power"},
			Outputs: []string{"<bottomup>power-agg"},
		},
		Operation: aggregator.Mean,
		WindowMs:  60000,
	}, qe)
	if err != nil {
		b.Fatal(err)
	}
	sink := core.NewCacheSink(caches, nav, 180, time.Second)
	sink.Store = db
	tick := func(i int) {
		if err := core.Tick(op, qe, sink, time.Unix(180+int64(i), 0)); err != nil {
			b.Fatal(err)
		}
	}
	tick(0) // warm: bind the units, create the output series
	before, _ := reg.Value("dcdb_tsdb_wal_commits_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(i + 1)
	}
	b.StopTimer()
	after, _ := reg.Value("dcdb_tsdb_wal_commits_total")
	b.ReportMetric((after-before)/float64(b.N), "commits/tick")
}

// --- Unit System at scale ------------------------------------------------

// BenchmarkUnitResolution instantiates one pattern-unit block over the
// full CooLMUC-3 tree (148 nodes x 64 cores), producing one unit per core
// — the large-scale configuration mechanism of paper §III-C.
func BenchmarkUnitResolution(b *testing.B) {
	nav := navigator.New()
	if err := cluster.CooLMUC3().Populate(nav); err != nil {
		b.Fatal(err)
	}
	tpl, err := units.NewTemplate(
		[]string{"<bottomup>cpu-cycles", "<bottomup>instructions"},
		[]string{"<bottomup>cpi"},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		us, err := tpl.Instantiate(nav, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(us) != 148*64 {
			b.Fatalf("units = %d", len(us))
		}
	}
}

// BenchmarkPatternParse measures pattern-expression parsing.
func BenchmarkPatternParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := units.Parse("<bottomup, filter cpu>cpu-cycles"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: sequential vs parallel unit management (§IV-c) -----------

func unitMgmtEnv(b *testing.B, parallel bool) (*core.QueryEngine, core.Operator, core.Sink) {
	b.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	for n := 0; n < 64; n++ {
		topic := sensor.Topic(fmt.Sprintf("/r1/n%02d/power", n))
		_ = nav.AddSensor(topic)
		c := caches.GetOrCreate(topic, 180, time.Second)
		for k := 0; k < 180; k++ {
			c.StoreBatch([]sensor.Reading{{Value: float64(k), Time: int64(k) * sec}})
		}
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	cfg := tester.Config{
		OperatorConfig: core.OperatorConfig{
			Name:     "t",
			Inputs:   []string{"power"},
			Outputs:  []string{"<bottomup>out"},
			Parallel: parallel,
		},
		Queries:  200,
		WindowMs: 100000,
	}
	op, err := tester.New(cfg, qe)
	if err != nil {
		b.Fatal(err)
	}
	return qe, op, core.SinkFunc(func([]core.Output) {})
}

func BenchmarkUnitsSequential(b *testing.B) {
	qe, op, sink := unitMgmtEnv(b, false)
	now := time.Unix(179, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Tick(op, qe, sink, now); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnitsParallel(b *testing.B) {
	qe, op, sink := unitMgmtEnv(b, true)
	now := time.Unix(179, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Tick(op, qe, sink, now); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tentpole: pooled TickAll under many-operator contention -------------

// probeOp models an in-band analytics operator at realistic shape: each
// per-unit computation issues cache queries through the Query Engine (lock
// contention on the sharded cache.Set) and then pays a fixed probe latency,
// standing in for the blocking reads of perf counters / sysfs / IPMI that
// real node-level operators perform. Operator-level concurrency can overlap
// the probes; the query load contends on the cache shards.
type probeOp struct {
	*core.Base
	queries int
	probe   time.Duration
}

// Compute runs the probe workload on the zero-allocation path: bound
// sensor handles and context scratch, like the production plugins.
func (o *probeOp) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, tc *core.TickContext) ([]core.Output, error) {
	bu := qe.BindUnit(u)
	buf := tc.Readings
	for q := 0; q < o.queries; q++ {
		buf = bu.Inputs[q%len(u.Inputs)].QueryRelative(100*time.Second, buf[:0])
	}
	tc.Readings = buf
	if o.probe > 0 {
		time.Sleep(o.probe)
	}
	outs := tc.Outputs[:0]
	for _, topic := range u.Outputs {
		outs = append(outs, core.Output{Topic: topic, Reading: sensor.At(float64(len(buf)), now)})
	}
	tc.Outputs = outs
	return outs, nil
}

type probeConfig struct {
	Name    string `json:"name"`
	Queries int    `json:"queries"`
	ProbeUs int    `json:"probeUs"`
}

func init() {
	core.Register("benchprobe", func(c probeConfig, qe *core.QueryEngine, _ core.Env) (*probeOp, error) {
		oc := core.OperatorConfig{
			Name:     c.Name,
			Inputs:   []string{"power"},
			Outputs:  []string{"<bottomup>" + c.Name},
			Parallel: true,
		}
		base, err := oc.Build("benchprobe", qe.Navigator())
		if err != nil {
			return nil, err
		}
		return &probeOp{Base: base, queries: c.Queries, probe: time.Duration(c.ProbeUs) * time.Microsecond}, nil
	})
}

// benchTickAllContention drives 8 online operators with parallel units (16
// units each) over one sharded cache.Set through Manager.TickAll, with the
// manager's computation bound set to threads. threads=1 is the sequential
// baseline: every computation of every operator runs one after another,
// like the pre-scheduler TickAll. probeUs=0 removes the fixed probe sleep
// so the query cost and cache-shard contention dominate.
func benchTickAllContention(b *testing.B, threads, probeUs int) {
	nav := navigator.New()
	caches := cache.NewSet()
	for n := 0; n < 16; n++ {
		topic := sensor.Topic(fmt.Sprintf("/r1/n%02d/power", n))
		if err := nav.AddSensor(topic); err != nil {
			b.Fatal(err)
		}
		c := caches.GetOrCreate(topic, 180, time.Second)
		for k := 0; k < 180; k++ {
			c.StoreBatch([]sensor.Reading{{Value: float64(k), Time: int64(k) * sec}})
		}
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	sink := core.NewCacheSink(caches, nav, 180, time.Second)
	m := core.NewManager(qe, sink, core.Env{})
	m.SetThreads(threads)
	b.Cleanup(m.Close)
	for i := 0; i < 8; i++ {
		raw, _ := json.Marshal(probeConfig{Name: fmt.Sprintf("probe%d", i), Queries: 25, ProbeUs: probeUs})
		if err := m.LoadPlugin("benchprobe", raw); err != nil {
			b.Fatal(err)
		}
	}
	now := time.Unix(179, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.TickAll(now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTickAllContentionSequential is the pre-scheduler baseline: one
// computation at a time.
func BenchmarkTickAllContentionSequential(b *testing.B) { benchTickAllContention(b, 1, 100) }

// BenchmarkTickAllContentionPooled runs the same load on an 8-thread pool
// (the paper's `threads` knob); 8 operators x 16 parallel units overlap
// both their probe latencies and their cache queries.
func BenchmarkTickAllContentionPooled(b *testing.B) { benchTickAllContention(b, 8, 100) }

// BenchmarkTickAllQueryContentionBound is the probe-free contention
// workload: 8 operators x 16 parallel units on an 8-thread pool, bound
// handles and scratch arenas, nothing to overlap but the cache queries.
func BenchmarkTickAllQueryContentionBound(b *testing.B) { benchTickAllContention(b, 8, 0) }

// --- Figure 6: random forest ---------------------------------------------

func trainedForest(b *testing.B, trees, depth int) (*forest.Forest, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	n, d := 4000, 28 // 4 sensors x 7 features, like the regressor
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.Float64()
		}
		y[i] = 150 + 50*x[i][0] - 30*x[i][7] + rng.NormFloat64()*5
	}
	f := forest.New(forest.Params{Trees: trees, MaxDepth: depth, Seed: 3})
	if err := f.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	return f, x[0]
}

// BenchmarkRegressorPredict measures one online prediction of the Fig. 6
// model (32 trees, 28 features) — the per-interval inference cost that
// must stay negligible next to 250 ms sampling.
func BenchmarkRegressorPredict(b *testing.B) {
	f, probe := trainedForest(b, 32, 12)
	b.ResetTimer()
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s += f.Predict(probe)
	}
	_ = s
}

// BenchmarkForestSweep ablates ensemble size and depth.
func BenchmarkForestSweep(b *testing.B) {
	for _, cfg := range []struct{ trees, depth int }{
		{8, 8}, {32, 12}, {64, 16},
	} {
		b.Run(fmt.Sprintf("trees=%d/depth=%d", cfg.trees, cfg.depth), func(b *testing.B) {
			f, probe := trainedForest(b, cfg.trees, cfg.depth)
			b.ResetTimer()
			var s float64
			for i := 0; i < b.N; i++ {
				s += f.Predict(probe)
			}
			_ = s
		})
	}
}

// --- Figure 7: decile aggregation ----------------------------------------

// BenchmarkDeciles2048 measures one persyst decile computation over 2048
// per-core CPI samples — "each decile is aggregated from 2048 samples at
// a time" (paper §VI-C).
func BenchmarkDeciles2048(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 2048)
	for i := range vals {
		vals[i] = 1.5 + rng.ExpFloat64()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := quantile.Deciles(vals)
		if d[0] > d[10] {
			b.Fatal("deciles inverted")
		}
	}
}

// --- Figure 8: Bayesian GMM ----------------------------------------------

// BenchmarkBGMMFit148 measures one clustering pass at the paper's fleet
// size: 148 nodes x 3 aggregate metrics, the hourly computation of §VI-D.
func BenchmarkBGMMFit148(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([][]float64, 148)
	centers := [][]float64{{95, 47.5, 5e5}, {145, 50.5, 2.7e5}, {195, 53.5, 5e4}}
	for i := range x {
		c := centers[i%3]
		x[i] = []float64{
			c[0] + rng.NormFloat64()*6,
			c[1] + rng.NormFloat64()*0.4,
			c[2] + rng.NormFloat64()*3e4,
		}
	}
	z, _, _ := bgmm.Standardize(x)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := bgmm.Fit(z, bgmm.Params{MaxComponents: 8, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if m.NumActive() < 2 {
			b.Fatalf("clusters = %d", m.NumActive())
		}
	}
}

// --- Substrate micro-benches ----------------------------------------------

func BenchmarkNavigatorResolve(b *testing.B) {
	nav := navigator.New()
	if err := cluster.CooLMUC3().Populate(nav); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := nav.Resolve("/r03/c02/s05/"); !ok {
			b.Fatal("resolve failed")
		}
	}
}

// BenchmarkTransportPublish measures the Pusher->Collect Agent data path:
// encode, route through the broker, decode and deliver locally, at QoS 0.
func BenchmarkTransportPublish(b *testing.B) {
	benchTransportPublish(b, transport.Options{})
}

// BenchmarkTransportPublishQoS1 is the same path at QoS 1, the pushers'
// default: each batch is also acknowledged and popped from the client's
// queue ring. Past warm-up a publish allocates nothing on the client.
func BenchmarkTransportPublishQoS1(b *testing.B) {
	benchTransportPublish(b, transport.Options{SpoolBatches: 256})
}

func benchTransportPublish(b *testing.B, opts transport.Options) {
	broker, err := transport.NewBroker("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer broker.Close()
	recv := make(chan struct{}, 1024)
	broker.SubscribeLocal(func(ms []transport.Message) {
		for range ms {
			recv <- struct{}{}
		}
	})
	client, err := transport.DialOptions(broker.Addr(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	batch := make([]sensor.Reading, 10)
	for i := range batch {
		batch[i] = sensor.Reading{Value: float64(i), Time: int64(i)}
	}
	publish := func(n int) {
		for i := 0; i < n; i++ {
			if err := client.Publish("/r1/n1/power", batch); err != nil {
				b.Fatal(err)
			}
			<-recv
		}
	}
	// Warm-up: every slot of the client's 256-slot ring, and the broker's
	// per-connection buffers, grow once on first use.
	publish(512)
	b.ResetTimer()
	b.ReportAllocs()
	publish(b.N)
	b.StopTimer() // the deferred Close waits out the last acks
}

// --- PR5: concurrent ingest through the group-commit WAL -----------------

// tsdbBenchSeries generates the ingest workload: regularly sampled
// integer sensor values, the shape the chunk codec is built
// for.
func tsdbBenchSeries(n int) []sensor.Reading {
	rng := rand.New(rand.NewSource(7))
	rs := make([]sensor.Reading, n)
	for i := range rs {
		rs[i] = sensor.Reading{
			Value: 100 + float64(i%23) + float64(rng.Intn(5)),
			Time:  int64(i) * sec,
		}
	}
	return rs
}

// benchIngestConcurrent measures sustained multi-writer InsertBatch
// throughput: `writers` goroutines each appending 64-reading batches to
// their own topic. One op is one batch, so ns/op is the sustained
// per-batch cost across the whole writer cohort.
func benchIngestConcurrent(b *testing.B, writers int, walSync bool) {
	db, err := tsdb.Open(b.TempDir(), tsdb.Options{
		FlushEvery: -1,
		WALSync:    walSync,
	})
	if err != nil {
		b.Fatal(err)
	}
	proto := tsdbBenchSeries(64)
	topics := make([]sensor.Topic, writers)
	for w := range topics {
		topics[w] = sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", w/8, w%8))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]sensor.Reading, len(proto))
			copy(batch, proto)
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				for j := range batch {
					batch[j].Time = (i*64 + int64(j)) * sec
				}
				db.InsertBatch(topics[w], batch)
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	db.Close()
	b.StartTimer()
}

// BenchmarkIngestConcurrentGrouped: writers encode outside the lock and
// make one WAL write per batch; with sync on they share each fsync with
// every writer that wrote before it started. Head resolution touches only
// the topic's shard.
func BenchmarkIngestConcurrentGrouped(b *testing.B) {
	for _, writers := range []int{2, 16, 64} {
		for _, walSync := range []bool{false, true} {
			b.Run(fmt.Sprintf("writers=%d/sync=%v", writers, walSync), func(b *testing.B) {
				benchIngestConcurrent(b, writers, walSync)
			})
		}
	}
}

// --- PR7: wildcard expansion through the topic index ---------------------

// benchWildcardExpand measures '#' expansion of one 8-sensor rack while
// the tsdb namespace holds n topics: with the sorted prefix index the
// cost tracks the match count, not the namespace.
func benchWildcardExpand(b *testing.B, n int) {
	st := benchDB(b)
	for i := 0; i < n; i++ {
		st.InsertBatch(sensor.Topic(fmt.Sprintf("/r%03d/n%d/power", i/8, i%8)), []sensor.Reading{{Value: 1, Time: 1}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := st.TopicsPrefix("/r000"); len(got) != 8 {
			b.Fatalf("%d matches", len(got))
		}
	}
}

// BenchmarkWildcardExpandIndexed64 / ...4096 are the acceptance pair:
// expansion cost must be independent of namespace size.
func BenchmarkWildcardExpandIndexed64(b *testing.B)   { benchWildcardExpand(b, 64) }
func BenchmarkWildcardExpandIndexed4096(b *testing.B) { benchWildcardExpand(b, 4096) }
