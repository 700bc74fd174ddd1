package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/tsdb"
)

const (
	warmUp = 3 * time.Second
	// Set-up is timed at least setupRuns times, and again until
	// setupBudget is spent or maxSetupRuns is reached; the median is
	// reported.
	setupRuns    = 3
	maxSetupRuns = 15
	setupBudget  = time.Second

	sweepPeriod  = 200 * time.Millisecond // steady-mixed, oda-tick: 4096 batches per sweep
	tricklePause = 2 * time.Second        // cold-scan: one sweep of the live tree
	tickEvery    = 250 * time.Millisecond
	nodeWindowMs = 9000 // node-sum window: the cache's newest 10 readings, one batch
)

// workload is one of the four named traffic shapes.
type workload struct {
	name    string
	pubs    int           // spooled publisher connections
	sweep   time.Duration // open loop: time to publish every topic once; 0 = closed loop
	slot    time.Duration // observer slot period; 0 = closed loop, or no observer
	pick    func(slot int64) opKind
	opKind  opKind // the operation whose ladder self times are reported
	cold    bool   // preload history before the stack opens; the observer queries it in a closed loop
	plugins bool   // load the operator set
}

var workloads = []workload{
	{name: "ingest-saturate", pubs: 2},
	{name: "steady-mixed", pubs: 1, sweep: sweepPeriod, slot: 10 * time.Millisecond, opKind: opPanel,
		pick: func(slot int64) opKind {
			if slot%10 == 9 {
				return opProbe
			}
			return opPanel
		}},
	{name: "cold-scan", pubs: 1, sweep: tricklePause, opKind: opRange, cold: true},
	{name: "oda-tick", pubs: 1, sweep: sweepPeriod, slot: tickEvery, opKind: opTick, plugins: true,
		pick: func(int64) opKind { return opTick }},
}

// closedLoop reports whether the workload saturates the box on purpose,
// with its publishers or with its observer.
func (w *workload) closedLoop() bool { return w.sweep == 0 || w.cold }

// observes reports whether the workload has a reading side at all.
func (w *workload) observes() bool { return w.pick != nil || w.cold }

// run is one execution of one workload.
type run struct {
	w      *workload
	walk   walk
	traced bool
	reg    *telemetry.Registry
	tr     *tracer

	s         *stack
	cold      *coldSet
	preloaded int     // readings in the store when the generator starts
	recoveryS float64 // cold-scan: Abandon → Open returns
	preFlushS float64 // cold-scan: Flush of the recovered heads
	pubs      []*publisher
	obs       *observer
	c         *counts // traced runs only
	m         map[string]float64
}

// mark is a point-in-time reading of the process and the store.
type mark struct {
	t      time.Time
	cpu    float64
	stored int
	ops    int64 // operations the observer completed
}

func (r *run) mark() mark {
	return mark{t: time.Now(), cpu: cpuSeconds(), stored: r.s.agent.DB.TotalReadings(), ops: r.obs.ops.Load()}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// setUp builds the workload's pipeline from nothing.
func (r *run) setUp() error {
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	if r.w.cold {
		r.cold = newColdSet(time.Now())
		if err := r.preload(dir); err != nil {
			os.RemoveAll(dir)
			return err
		}
	}
	if r.traced {
		r.reg = telemetry.NewRegistry()
	}
	if r.s, err = newStack(dir, r.reg, r.w.pubs); err != nil {
		os.RemoveAll(dir)
		return err
	}
	r.preloaded = r.s.agent.DB.TotalReadings()
	if r.w.plugins {
		if err := r.loadPlugins(); err != nil {
			return err
		}
	}
	return r.prime()
}

// preload writes the cold history straight into a tsdb in dir, kills it,
// recovers it from the WAL and flushes it into one segment.
func (r *run) preload(dir string) error {
	// No janitor: the whole history must still be in the WAL at the kill.
	opts := tsdb.Options{FlushEvery: -1}
	db, err := tsdb.Open(dir, opts)
	if err != nil {
		return err
	}
	c := r.cold
	vals := make([]int32, len(c.topics))
	for i := range vals {
		vals[i] = r.walk.start(coldID + i)
	}
	const chunk = 60 // readings per insert: a pusher sending once a minute
	rs := make([]sensor.Reading, chunk)
	for idx := int64(0); idx < c.readings; idx += chunk {
		for i, topic := range c.topics {
			v := vals[i]
			for j := range rs {
				v = r.walk.next(v, coldID+i, idx+int64(j))
				rs[j] = sensor.Reading{Value: float64(v) / 10, Time: c.t0 + (idx+int64(j))*int64(time.Second)}
			}
			vals[i] = v
			db.InsertBatch(topic, rs)
		}
	}
	db.Abandon()
	start := time.Now()
	if db, err = tsdb.Open(dir, opts); err != nil {
		return err
	}
	r.recoveryS = time.Since(start).Seconds()
	start = time.Now()
	if err := db.Flush(); err != nil {
		db.Close()
		return err
	}
	r.preFlushS = time.Since(start).Seconds()
	if n, want := db.TotalReadings(), len(c.topics)*int(c.readings); n != want {
		db.Close()
		return fmt.Errorf("preload: recovered %d readings, wrote %d", n, want)
	}
	return db.Close()
}

// loadPlugins registers the live tree and loads the operator set:
// 1024 + 1024 + 64 + 1 = 2113 units.
func (r *run) loadPlugins() error {
	for _, t := range liveTopics() {
		if err := r.s.agent.Nav.AddSensor(t); err != nil {
			return err
		}
	}
	every := tickEvery.Milliseconds()
	for _, p := range []struct{ plugin, cfg string }{
		{"aggregator", fmt.Sprintf(`{"name":"node-sum","operation":"sum","windowMs":%d,"intervalMs":%d,
			"inputs":["<bottomup>power","<bottomup>temp","<bottomup>instr","<bottomup>cycles"],
			"outputs":["<bottomup>node-sum"]}`, nodeWindowMs, every)},
		{"smoothing", fmt.Sprintf(`{"name":"power-smooth","intervalMs":%d,"inputs":["<bottomup>power"],"windowsS":[60]}`, every)},
		{"aggregator", fmt.Sprintf(`{"name":"rack-avg","operation":"mean","windowMs":1000,"intervalMs":%d,
			"inputs":["<bottomup>power","<bottomup>temp","<bottomup>instr","<bottomup>cycles"],
			"outputs":["<topdown>rack-avg"]}`, every)},
		// The heaviest cell of the paper's Figure 5.
		{"tester", fmt.Sprintf(`{"name":"tester","queries":1000,"windowMs":50000,"intervalMs":%d,"unit":"/r00/n00",
			"inputs":["power","temp","instr","cycles"],"outputs":["tester-out"]}`, every)},
	} {
		if err := r.s.agent.Manager.LoadPlugin(p.plugin, []byte(p.cfg)); err != nil {
			return fmt.Errorf("loading %s: %w", p.plugin, err)
		}
	}
	units := 0
	for _, op := range r.s.agent.Manager.Operators() {
		units += len(op.Units())
	}
	if units != 2113 {
		return fmt.Errorf("operators have %d units, want 2113", units)
	}
	return nil
}

// prime builds the feeds and publishers and sends every topic's first
// batch through the pipeline, so that set-up ends with every head, cache,
// tree node and interned topic in place.
func (r *run) prime() error {
	w, topics := r.w, liveTopics()
	r.pubs = nil
	now := time.Now()
	if w.sweep == 0 {
		// Closed loop: each publisher owns its share of the tree,
		// timestamps are synthetic at 1 ms per reading.
		share := len(topics) / w.pubs
		for i, c := range r.s.pubs {
			f := newFeed(r.walk, liveID+i*share, topics[i*share:(i+1)*share],
				now.Truncate(time.Second).UnixNano(), int64(time.Millisecond), false)
			r.pubs = append(r.pubs, &publisher{c: c, f: f, tr: r.tr})
		}
	} else {
		// Open loop: wall-clock timestamps, a batch leaves once its newest
		// reading is due. The primed batch is stamped a sweep further back,
		// so it stays older than the generator's first batch whenever the
		// clock starts.
		f := newFeed(r.walk, liveID, topics, now.Add(-2*w.sweep).UnixNano(), int64(w.sweep)/batchLen, !w.cold)
		rate := float64(len(topics)) / w.sweep.Seconds()
		r.pubs = append(r.pubs, &publisher{c: r.s.pubs[0], f: f, tr: r.tr, rate: rate})
	}
	for _, p := range r.pubs {
		for i := range p.f.topics {
			if err := p.f.emit(p.c, i); err != nil {
				return err
			}
		}
	}
	return r.s.drained(5 * time.Second)
}

// startGenerator starts the feeds' clocks and builds the observer.
func (r *run) startGenerator() {
	w := r.w
	// Start on a whole second, so that sweeps, panel windows and slots
	// keep the same phase to each other in every run.
	time.Sleep(time.Until(time.Now().Truncate(time.Second).Add(time.Second)))
	now := time.Now()
	for _, p := range r.pubs {
		// The first pass publishes each topic's second batch.
		p.f.base = now.Truncate(time.Second).UnixNano()
		if w.sweep > 0 {
			p.f.base = now.Add(-2 * w.sweep).UnixNano()
		}
	}
	limit := latencyLimit
	if w.closedLoop() {
		// A closed loop is deliberate overload: GC and flush stall an
		// operation for hundreds of ms. The limit only catches a wedged
		// pipeline.
		limit = 2 * time.Second
	}
	r.obs = &observer{s: r.s, tr: r.tr, period: w.slot, limit: limit, pick: w.pick, cold: r.cold,
		rng: rand.New(rand.NewSource(int64(r.walk.seed)))}
}

// measure runs the generator through warm-up and the window(s) and
// returns the marks around each window. A traced run splits its time in
// two: telemetry and spans off, then on, so the difference is the
// tracing overhead.
func (r *run) measure(window time.Duration) []mark {
	var stop, rec atomic.Bool
	var wg sync.WaitGroup
	for _, p := range r.pubs {
		wg.Add(1)
		go func(p *publisher) { defer wg.Done(); p.run(&stop, &rec) }(p)
	}
	if r.w.observes() {
		wg.Add(1)
		go func() { defer wg.Done(); r.obs.run(&stop, &rec) }()
	}

	if r.traced {
		telemetry.SetEnabled(false)
	}
	time.Sleep(warmUp)
	var marks []mark
	if r.traced {
		marks = append(marks, r.mark())
		time.Sleep(window / 2)
		telemetry.SetEnabled(true)
		r.tr.enable(true)
		window /= 2
	}
	r.beginCounts()
	rec.Store(true)
	marks = append(marks, r.mark())
	r.sampleFor(window)
	marks = append(marks, r.mark())
	rec.Store(false)
	r.endCounts()
	stop.Store(true)
	wg.Wait()
	r.tr.enable(false)
	return marks
}
