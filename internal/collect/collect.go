// Package collect implements the DCDB Collect Agent: the data broker that
// receives sensor readings from Pushers over the MQTT-style transport,
// forwards them to the Storage Backend, maintains system-wide sensor
// caches, and embeds the Wintermute framework with visibility of the
// entire system's sensor space (paper §IV-A).
//
// The agent's Storage Backend is the embedded tsdb engine in
// Config.StoreDir: a write-ahead log plus compressed segments, recovered
// on start. A delivered burst of batches is stored on the delivering
// connection's own goroutine, in one call into the backend, before the
// broker acknowledges any of it: an ack means stored.
//
// Operators instantiated in a Collect Agent read latest readings and
// relative windows from the local caches when they hold the sensor, and
// absolute windows from the Storage Backend — the location "optimal for
// system or infrastructure-level analysis and feedback loops".
package collect

import (
	"fmt"
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/resultcache"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
	"github.com/dcdb/wintermute/internal/tsdb"
)

// Config parameterises a Collect Agent.
type Config struct {
	// ListenMQTT is the broker listen address (e.g. "127.0.0.1:0");
	// empty runs the agent without a network broker (in-process ingest
	// only).
	ListenMQTT string
	// CacheRetention sizes the system-wide sensor caches (default 180 s).
	CacheRetention time.Duration
	// StoreDir is the Storage Backend's directory (required): the agent
	// opens an embedded tsdb database there (WAL + compressed segments,
	// crash-recovered on start).
	StoreDir string
	// StoreRetention is the time window the backend keeps (0 = forever).
	StoreRetention time.Duration
	// StoreWALSync acknowledges an insert only after an fsync of the tsdb
	// write-ahead log covers it (durability against OS crashes; one fsync
	// is shared by all concurrently-ingesting connections).
	StoreWALSync bool
	// StoreFS, when set, replaces the storage backend's filesystem
	// (tsdb.Options.FS). Nil selects the real one; the chaos harness
	// injects a fault-injecting implementation here.
	StoreFS tsdb.FS
	// ResultCacheSize caps the serving tier's query result cache: the
	// number of memoized hot-window aggregates/downsample/range results
	// kept with write-through invalidation. 0 disables the cache.
	ResultCacheSize int
	// ResultCacheTTL bounds how stale a memoized result may be served
	// after new data landed in its window. 0 is strict: cached answers
	// are indistinguishable from uncached ones.
	ResultCacheTTL time.Duration
	// Env is handed to Wintermute plugin configurators (job providers
	// attach here).
	Env core.Env
	// Metrics, when set, instruments every subsystem the agent wires
	// together (broker, ingest path, tsdb, result cache, scheduler,
	// storage stats) into the given telemetry registry. The daemons pass
	// telemetry.Default; tests pass a private registry or nil.
	Metrics *telemetry.Registry
	// SelfMonitorEvery, when positive (and Metrics is set), republishes
	// the registry into the agent's own sensor pipeline under
	// /telemetry/# at this interval — the monitoring system monitoring
	// itself, queryable and cacheable like any sensor.
	SelfMonitorEvery time.Duration
}

// Agent is a running Collect Agent.
type Agent struct {
	Nav     *navigator.Navigator
	Caches  *cache.Set
	QE      *core.QueryEngine
	Manager *core.Manager
	Broker  *transport.Broker

	// DB is the agent's Storage Backend.
	DB *tsdb.DB

	// Results is the serving tier's query result cache, nil when
	// disabled. Hand it to rest.Options so /query memoizes hot windows.
	Results *resultcache.Cache

	// SelfMon republishes the telemetry registry as /telemetry/# sensor
	// topics; nil unless Config.SelfMonitorEvery was set. Tests can call
	// its PublishOnce to force a pass.
	SelfMon *telemetry.SelfMonitor

	sink    *core.CacheSink
	metrics *agentMetrics
	// metricHandles collects the callback-metric registrations made on
	// behalf of subsystems without their own Close (storage stats,
	// result cache); released in Close.
	metricHandles []*telemetry.FuncHandle
}

// New creates a Collect Agent, opening (or recovering) its Storage
// Backend in cfg.StoreDir, and, when configured, starts its broker.
func New(cfg Config) (*Agent, error) {
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("collect: StoreDir is empty: the agent needs a Storage Backend directory")
	}
	if cfg.CacheRetention <= 0 {
		cfg.CacheRetention = 180 * time.Second
	}
	nav := navigator.New()
	caches := cache.NewSet()
	// The result cache exists before the backend opens so the janitor's
	// very first retention pass can already invalidate through it.
	rc := resultcache.New(cfg.ResultCacheSize, cfg.ResultCacheTTL)
	db, err := tsdb.Open(cfg.StoreDir, tsdb.Options{
		Retention: cfg.StoreRetention,
		WALSync:   cfg.StoreWALSync,
		OnPrune:   func(int64, int) { rc.NotePrune() },
		Metrics:   cfg.Metrics,
		FS:        cfg.StoreFS,
	})
	if err != nil {
		return nil, fmt.Errorf("collect: opening storage backend: %w", err)
	}
	qe := core.NewQueryEngine(nav, caches, db)
	sink := core.NewCacheSink(caches, nav, int(cfg.CacheRetention/time.Second), time.Second)
	sink.Store = db
	sink.Results = rc
	a := &Agent{
		Nav:     nav,
		Caches:  caches,
		DB:      db,
		QE:      qe,
		Results: rc,
		sink:    sink,
	}
	// A recovered backend already knows its sensors: rebuild the tree,
	// because GET /sensors lists the navigator's sensors, not the
	// store's. Operators do not need it: their units follow the tree,
	// so they would bind as the sensors publish again.
	for _, topic := range db.Topics() {
		_ = nav.AddSensor(topic)
	}
	a.metrics = newAgentMetrics(cfg.Metrics)
	a.metricHandles = append(a.metricHandles,
		store.RegisterBackendMetrics(cfg.Metrics, db)...)
	a.metricHandles = append(a.metricHandles,
		rc.RegisterMetrics(cfg.Metrics)...)
	a.Manager = core.NewManager(qe, sink, cfg.Env)
	a.Manager.EnableTelemetry(cfg.Metrics)
	if cfg.SelfMonitorEvery > 0 && cfg.Metrics != nil {
		// The publish closure feeds the sink directly (not the broker):
		// telemetry readings take the same cache+store path as any
		// sensor, so /telemetry/# is queryable via GET /query and
		// aggregatable by operators. A pass is one burst: one WAL write.
		a.SelfMon = telemetry.NewSelfMonitor(cfg.Metrics, "/telemetry",
			cfg.SelfMonitorEvery, func(ts int64, pts []telemetry.Point) {
				outs := make([]core.Output, len(pts))
				for i, p := range pts {
					outs[i] = core.Output{Topic: sensor.Topic(p.Topic), Reading: sensor.Reading{Value: p.Value, Time: ts}}
				}
				sink.PushBatch(outs)
			})
		a.SelfMon.Start()
	}
	if cfg.ListenMQTT != "" {
		b, err := transport.NewBroker(cfg.ListenMQTT, cfg.Metrics)
		if err != nil {
			if a.SelfMon != nil {
				a.SelfMon.Close()
			}
			a.closeMetricHandles()
			a.Manager.Close()
			db.Close() // release the janitor and directory lock
			return nil, fmt.Errorf("collect: starting broker: %w", err)
		}
		a.Broker = b
		// The handler stores on the broker's per-connection goroutine and
		// the broker acks only after it returned, so a PubAck means every
		// batch of the burst is in the head and, unless the WAL is
		// degraded, in the WAL (fsynced under StoreWALSync). The burst and
		// its readings are the connection's decode buffers, valid for the
		// duration of the call — which is all PushBurst needs. One
		// connection is one goroutine, so a publisher's per-topic batch
		// order is the ingest order; a slow store stalls that connection's
		// reads (backpressure through TCP), never drops.
		b.SubscribeLocal(a.ingestBurst)
	}
	return a, nil
}

// resolvedBurst is one delivered burst as the sink takes it: its batches
// with, in step, the resolved series of each (nil where the message
// carried no topic handle).
type resolvedBurst struct {
	batches []store.Batch
	series  []*core.Series
}

// burstPool recycles the lists the ingest handler builds, one per burst
// in flight.
var burstPool = sync.Pool{New: func() any {
	return &resolvedBurst{batches: make([]store.Batch, 0, 64), series: make([]*core.Series, 0, 64)}
}}

// ingestBurst is the agent's broker handler: it resolves each message's
// series, stores the burst through the sink and counts it. The broker has
// already dropped redelivered duplicates. A message that carries a topic
// handle is resolved through it — by lookup only the first time the
// connection sends the topic, after which the handle holds the sink's
// *core.Series, which lives as long as the agent.
func (a *Agent) ingestBurst(ms []transport.Message) {
	rb := burstPool.Get().(*resolvedBurst)
	for _, m := range ms {
		var sr *core.Series
		if m.Ref != nil {
			if sr, _ = m.Ref.State(a).(*core.Series); sr == nil {
				s := a.sink.Resolve(m.Topic)
				sr = &s
				m.Ref.Attach(a, sr)
			}
		}
		rb.batches = append(rb.batches, store.Batch{Topic: m.Topic, Readings: m.Readings})
		rb.series = append(rb.series, sr)
	}
	a.sink.PushBurst(rb.batches, rb.series)
	// One histogram update per run of equal batch sizes: a burst from a
	// publisher is usually all one size.
	readings, run := 0, 0
	for i, bt := range rb.batches {
		readings += len(bt.Readings)
		if run++; i+1 == len(rb.batches) || len(rb.batches[i+1].Readings) != len(bt.Readings) {
			a.metrics.batchSize.ObserveN(float64(len(bt.Readings)), uint64(run))
			run = 0
		}
	}
	a.metrics.batches.Add(uint64(len(rb.batches)))
	a.metrics.readings.Add(uint64(readings))
	rb.batches, rb.series = rb.batches[:0], rb.series[:0]
	burstPool.Put(rb)
}

// Addr returns the broker address, or "" when no broker is running.
func (a *Agent) Addr() string {
	if a.Broker == nil {
		return ""
	}
	return a.Broker.Addr()
}

// Sink returns the agent's reading sink (caches + store).
func (a *Agent) Sink() core.Sink { return a.sink }

// IngestBatch feeds a series of readings for one topic into the agent as
// if it had arrived over MQTT: a burst of one, through the same sink call
// a delivered burst takes, landing in the sensor tree, the cache and the
// Storage Backend.
func (a *Agent) IngestBatch(topic sensor.Topic, rs []sensor.Reading) {
	a.sink.PushBurst([]store.Batch{{Topic: topic, Readings: rs}}, nil)
}

// TickOnce synchronously runs one Wintermute computation round.
func (a *Agent) TickOnce(now time.Time) error {
	return a.Manager.TickAll(now)
}

// Start launches the Wintermute operator loops.
func (a *Agent) Start() { a.Manager.Start() }

// Close stops operators, waiting for any tick in flight, closes the
// broker and flushes and closes the storage backend — in that order:
// Broker.Close waits for every connection's serve loop, and a serve loop
// stores a batch before it moves on, so nothing is in flight when the
// backend takes its final flush.
func (a *Agent) Close() error {
	// Self-monitoring stops first: its publishes go through the sink, so
	// it must not race the close sequence below.
	if a.SelfMon != nil {
		a.SelfMon.Close()
	}
	a.Manager.Close()
	var err error
	if a.Broker != nil {
		err = a.Broker.Close()
	}
	// Callback metrics read backend stats: unregister them before the
	// backend goes away.
	a.closeMetricHandles()
	if derr := a.DB.Close(); err == nil {
		err = derr
	}
	return err
}

// closeMetricHandles unregisters every callback metric the agent
// registered on behalf of its subsystems; idempotent.
func (a *Agent) closeMetricHandles() {
	for _, h := range a.metricHandles {
		h.Close()
	}
	a.metricHandles = nil
}
