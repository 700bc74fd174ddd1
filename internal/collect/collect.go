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
// Operators instantiated in a Collect Agent read from the local caches
// when possible and from the Storage Backend otherwise — the location
// "optimal for system or infrastructure-level analysis and feedback
// loops".
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
	// StoreWALSync fsyncs the tsdb write-ahead log on every group commit
	// (durability against OS crashes; the fsync is amortized across all
	// concurrently-ingesting connections).
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
	// Threads sizes the Wintermute worker pool executing operator
	// computations (0: runtime.GOMAXPROCS).
	Threads int
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

	// dedup is the at-least-once-to-exactly-once gate: redelivered
	// batches (same client epoch, sequence at or below the topic's
	// high-water mark) are dropped before they reach the ingest path.
	dedup *dedup
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
		dedup:   newDedup(),
	}
	// A recovered backend already knows its sensors: rebuild the tree so
	// pattern-based operator units bind immediately after a restart.
	for _, topic := range db.Topics() {
		_ = nav.AddSensor(topic)
	}
	a.metrics = newAgentMetrics(cfg.Metrics, a)
	a.metricHandles = append(a.metricHandles,
		store.RegisterBackendMetrics(cfg.Metrics, db)...)
	a.metricHandles = append(a.metricHandles,
		rc.RegisterMetrics(cfg.Metrics)...)
	a.Manager = core.NewManager(qe, sink, cfg.Env)
	a.Manager.EnableTelemetry(cfg.Metrics)
	if cfg.Threads > 0 {
		a.Manager.SetThreads(cfg.Threads)
	}
	if cfg.SelfMonitorEvery > 0 && cfg.Metrics != nil {
		// The publish closure feeds the sink directly (not the broker):
		// telemetry readings take the same cache+store path as any
		// sensor, so /telemetry/# is queryable via GET /query and
		// aggregatable by operators.
		a.SelfMon = telemetry.NewSelfMonitor(cfg.Metrics, "/telemetry",
			cfg.SelfMonitorEvery, func(topic string, v float64, ts int64) {
				sink.Push(sensor.Topic(topic), sensor.Reading{Value: v, Time: ts})
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
		// duration of the call — which is all PushResolved needs. One
		// connection is one goroutine, so a publisher's per-topic batch
		// order is the ingest order; a slow store stalls that connection's
		// reads (backpressure through TCP), never drops.
		b.SubscribeLocal("#", a.ingestBurst)
	}
	return a, nil
}

// series is what the agent hangs off a connection's topic handle
// (transport.TopicRef) the first time that connection publishes the
// topic: the sink's resolved Series, which lives as long as the agent,
// and the dedup mark of the epoch the connection last published under,
// which admitLocked re-resolves when the epoch changes. Like the handle
// it belongs to the connection's goroutine.
type series struct {
	core.Series
	mark markRef
}

// admitted is one burst's admitted batches with, in step, the resolved
// series of each (nil where the message carried no topic handle).
type admitted struct {
	batches []store.Batch
	series  []*core.Series
}

// burstPool recycles the admitted lists the ingest handler builds, one
// per burst in flight.
var burstPool = sync.Pool{New: func() any {
	return &admitted{batches: make([]store.Batch, 0, 64), series: make([]*core.Series, 0, 64)}
}}

// ingestBurst is the agent's broker handler: dedup, then the sink, then
// the counters.
func (a *Agent) ingestBurst(ms []transport.Message) {
	ad := burstPool.Get().(*admitted)
	a.admitBurst(ms, ad)
	a.sink.PushResolved(ad.batches, ad.series)
	readings := 0
	for _, bt := range ad.batches {
		readings += len(bt.Readings)
		a.metrics.batchSize.Observe(float64(len(bt.Readings)))
	}
	a.metrics.batches.Add(uint64(len(ad.batches)))
	a.metrics.readings.Add(uint64(readings))
	ad.batches, ad.series = ad.batches[:0], ad.series[:0]
	burstPool.Put(ad)
}

// admitBurst appends to dst the batches of a delivered burst that the
// dedup high-water marks have not seen, in order, counting the
// duplicates it turns away; a message that carries a topic handle is
// resolved through it — by lookup only the first time the connection
// sends the topic. The broker still acknowledges a duplicate: its first
// delivery was admitted, and has either reached the store or is finishing
// on the connection that carried it (Broker.Close waits for that one
// too).
func (a *Agent) admitBurst(ms []transport.Message, dst *admitted) {
	a.dedup.mu.Lock()
	for _, m := range ms {
		var (
			sr   *core.Series
			mark *markRef
		)
		if m.Ref != nil {
			st, _ := m.Ref.State(a).(*series)
			if st == nil {
				// First sight: resolving takes the cache set's, the
				// navigator's and the result cache's locks, and the dedup
				// lock stays a leaf.
				a.dedup.mu.Unlock()
				st = &series{Series: a.sink.Resolve(m.Topic)}
				m.Ref.Attach(a, st)
				a.dedup.mu.Lock()
			}
			sr, mark = &st.Series, &st.mark
		}
		if a.dedup.admitLocked(m.Epoch, m.Topic, m.Seq, mark) {
			dst.batches = append(dst.batches, store.Batch{Topic: m.Topic, Readings: m.Readings})
			dst.series = append(dst.series, sr)
			continue
		}
		a.metrics.dupBatches.Inc()
		a.metrics.dupReadings.Add(uint64(len(m.Readings)))
	}
	a.dedup.mu.Unlock()
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

// Ingest feeds one reading into the agent as if it had arrived over MQTT:
// it lands in the sensor tree, the cache and the Storage Backend.
func (a *Agent) Ingest(topic sensor.Topic, r sensor.Reading) {
	a.sink.Push(topic, r)
}

// IngestBatch feeds a series of readings for one topic into the agent,
// taking the cache and store locks once for the whole batch: a burst of
// one, through the same sink call a delivered burst takes.
func (a *Agent) IngestBatch(topic sensor.Topic, rs []sensor.Reading) {
	a.sink.PushSeries(topic, rs)
}

// TickOnce synchronously runs one Wintermute computation round.
func (a *Agent) TickOnce(now time.Time) error {
	return a.Manager.TickAll(now)
}

// Start launches the Wintermute operator loops.
func (a *Agent) Start() { a.Manager.Start() }

// Close stops operators, shuts the Wintermute worker pool down, closes
// the broker and flushes and closes the storage backend — in that
// order: Broker.Close waits for every connection's serve loop, and a
// serve loop stores a batch before it moves on, so nothing is in flight
// when the backend takes its final flush.
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
	// Callback metrics read agent state (dedup table, backend stats);
	// unregister them before the backend goes away.
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
	a.metrics.closeMetrics()
}
