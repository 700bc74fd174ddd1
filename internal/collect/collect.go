// Package collect implements the DCDB Collect Agent: the data broker that
// receives sensor readings from Pushers over the MQTT-style transport,
// forwards them to the Storage Backend, maintains system-wide sensor
// caches, and embeds the Wintermute framework with visibility of the
// entire system's sensor space (paper §IV-A).
//
// Operators instantiated in a Collect Agent read from the local caches
// when possible and from the Storage Backend otherwise — the location
// "optimal for system or infrastructure-level analysis and feedback
// loops".
package collect

import (
	"fmt"
	"runtime"
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
	// StoreDir selects the persistent Storage Backend: when set, the
	// agent opens an embedded tsdb database in this directory (WAL +
	// compressed segments, crash-recovered on start) instead of the
	// bounded in-memory store.
	StoreDir string
	// StoreRetention is the time window the persistent backend keeps
	// (0 = forever). Only meaningful with StoreDir.
	StoreRetention time.Duration
	// StoreMax caps readings kept per sensor in the in-memory Storage
	// Backend (0 = unlimited). Only meaningful without StoreDir.
	StoreMax int
	// StoreWALSync fsyncs the tsdb write-ahead log on every group commit
	// (durability against OS crashes; the fsync is amortized across all
	// concurrently-ingesting connections).
	StoreWALSync bool
	// IngestWorkers sizes the worker fan-in between the broker and the
	// storage path: delivered messages are queued per topic shard and
	// ingested by this many workers, so a slow WAL fsync never stalls a
	// connection's read loop, and concurrent batches coalesce into
	// shared group commits. 0 picks a default (min(4, GOMAXPROCS));
	// negative ingests synchronously on the delivering goroutine.
	IngestWorkers int
	// IngestQueueCap bounds each ingest worker's queue (default 256).
	// A full queue blocks the delivering connection — backpressure,
	// never a drop. The chaos harness shrinks this to 1 to force the
	// backpressure path under load.
	IngestQueueCap int
	// BrokerWriteDeadline bounds every broker frame write to a client
	// connection (default 10s): a subscriber that stops reading is torn
	// down instead of wedging the writer.
	BrokerWriteDeadline time.Duration
	// BrokerOutQueue bounds each broker connection's outbound frame
	// queue (default 1024). Publish acks block on a full queue;
	// subscriber forwards drop with a counter.
	BrokerOutQueue int
	// StoreFS, when set with StoreDir, replaces the storage backend's
	// filesystem (tsdb.Options.FS). Nil selects the real one; the chaos
	// harness injects a fault-injecting implementation here.
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
	// together (broker, ingest fan-in, tsdb, result cache, scheduler,
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
	Store   store.Backend
	QE      *core.QueryEngine
	Manager *core.Manager
	Broker  *transport.Broker

	// DB is the persistent backend, nil when the agent runs in-memory.
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

	// Ingest fan-in between the broker and the sink: one bounded queue
	// per worker, messages sharded by topic so per-topic batch order is
	// preserved. batchPool recycles the copies the enqueue path must
	// make (the broker reuses its decode buffers).
	ingestQs    []chan ingestBatch
	ingestWG    sync.WaitGroup
	ingestClose sync.Once
	batchPool   sync.Pool
}

// ingestBatch is one queued topic batch; buf returns to the pool after
// the worker pushed it. enq stamps the enqueue time for the drain
// latency histogram (zero when telemetry is disabled).
type ingestBatch struct {
	topic sensor.Topic
	buf   *[]sensor.Reading
	enq   time.Time
}

// New creates a Collect Agent and, when configured, starts its broker.
func New(cfg Config) (*Agent, error) {
	if cfg.CacheRetention <= 0 {
		cfg.CacheRetention = 180 * time.Second
	}
	nav := navigator.New()
	caches := cache.NewSet()
	// The result cache exists before the backend opens so the janitor's
	// very first retention pass can already invalidate through it.
	rc := resultcache.New(cfg.ResultCacheSize, cfg.ResultCacheTTL)
	var (
		st store.Backend
		db *tsdb.DB
	)
	if cfg.StoreDir != "" {
		var err error
		db, err = tsdb.Open(cfg.StoreDir, tsdb.Options{
			Retention: cfg.StoreRetention,
			WALSync:   cfg.StoreWALSync,
			OnPrune:   func(int64, int) { rc.NotePrune() },
			Metrics:   cfg.Metrics,
			FS:        cfg.StoreFS,
		})
		if err != nil {
			return nil, fmt.Errorf("collect: opening storage backend: %w", err)
		}
		st = db
	} else {
		st = store.New(cfg.StoreMax)
	}
	qe := core.NewQueryEngine(nav, caches, st)
	sink := core.NewCacheSink(caches, nav, int(cfg.CacheRetention/time.Second), time.Second)
	sink.Store = st
	sink.Results = rc
	a := &Agent{
		Nav:     nav,
		Caches:  caches,
		Store:   st,
		DB:      db,
		QE:      qe,
		Results: rc,
		sink:    sink,
		dedup:   newDedup(),
	}
	// A recovered backend already knows its sensors: rebuild the tree so
	// pattern-based operator units bind immediately after a restart.
	if db != nil {
		for _, topic := range db.Topics() {
			_ = nav.AddSensor(topic)
		}
	}
	a.metrics = newAgentMetrics(cfg.Metrics, a)
	a.metricHandles = append(a.metricHandles,
		store.RegisterBackendMetrics(cfg.Metrics, st)...)
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
		b, err := transport.NewBrokerOpts(cfg.ListenMQTT, transport.BrokerOptions{
			WriteDeadline: cfg.BrokerWriteDeadline,
			OutQueue:      cfg.BrokerOutQueue,
			Metrics:       cfg.Metrics,
		})
		if err != nil {
			if a.SelfMon != nil {
				a.SelfMon.Close()
			}
			a.closeMetricHandles()
			a.Manager.Close()
			if db != nil {
				db.Close() // release the janitor and directory lock
			}
			return nil, fmt.Errorf("collect: starting broker: %w", err)
		}
		a.Broker = b
		if workers := ingestWorkerCount(cfg.IngestWorkers); workers > 0 {
			a.startIngestWorkers(workers, ingestQueueCap(cfg.IngestQueueCap))
			b.SubscribeLocal("#", func(m transport.Message) {
				// The broker owns m.Readings only for the duration of
				// the call; copy into a pooled batch and hand it to the
				// topic's worker. Per-topic order is preserved by the
				// shard mapping; a full queue blocks the delivering
				// connection (backpressure), never drops. Redelivered
				// batches are dropped here, before they cost a copy.
				if !a.admitBatch(m) {
					return
				}
				a.enqueueIngest(m.Topic, m.Readings)
			})
		} else {
			b.SubscribeLocal("#", func(m transport.Message) {
				// One delivered message becomes one batched sink push: the
				// topic's cache, store series and navigator registration are
				// each touched once per message, not once per reading.
				if !a.admitBatch(m) {
					return
				}
				a.IngestBatch(m.Topic, m.Readings)
			})
		}
	}
	return a, nil
}

// ingestWorkerCount resolves the IngestWorkers knob: 0 = min(4,
// GOMAXPROCS), negative = synchronous delivery (no fan-in).
func ingestWorkerCount(cfg int) int {
	if cfg < 0 {
		return 0
	}
	if cfg > 0 {
		return cfg
	}
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// ingestQueueCap resolves the IngestQueueCap knob (0 = 256).
func ingestQueueCap(cfg int) int {
	if cfg > 0 {
		return cfg
	}
	return 256
}

// startIngestWorkers launches the fan-in: one bounded queue of the
// given capacity and one goroutine per worker.
func (a *Agent) startIngestWorkers(n, cap int) {
	a.batchPool.New = func() any {
		rs := make([]sensor.Reading, 0, 64)
		return &rs
	}
	a.ingestQs = make([]chan ingestBatch, n)
	for i := range a.ingestQs {
		q := make(chan ingestBatch, cap)
		a.ingestQs[i] = q
		a.ingestWG.Add(1)
		go func() {
			defer a.ingestWG.Done()
			for m := range q {
				a.metrics.drainSec.ObserveSince(m.enq)
				a.sink.PushSeries(m.topic, *m.buf)
				a.metrics.batches.Inc()
				a.metrics.readings.Add(uint64(len(*m.buf)))
				a.metrics.batchSize.Observe(float64(len(*m.buf)))
				*m.buf = (*m.buf)[:0]
				a.batchPool.Put(m.buf)
			}
		}()
	}
}

// enqueueIngest copies one delivered batch into pooled storage and
// queues it on its topic's worker.
func (a *Agent) enqueueIngest(topic sensor.Topic, rs []sensor.Reading) {
	buf := a.batchPool.Get().(*[]sensor.Reading)
	*buf = append((*buf)[:0], rs...)
	// The shared FNV-1a topic hash pins a topic to one worker, so its
	// batches are always ingested in arrival order.
	//
	//lint:ignore poolescape ownership transfer by design: exactly one ingest worker receives buf and returns it to batchPool after PushSeries
	a.ingestQs[topic.Hash()%uint32(len(a.ingestQs))] <- ingestBatch{topic: topic, buf: buf, enq: telemetry.Clock()}
}

// admitBatch consults the dedup high-water marks for one delivered
// message, counting the duplicates it turns away. The broker still
// acknowledges a duplicate — the first delivery already reached the
// store, which is exactly what the ack promises.
func (a *Agent) admitBatch(m transport.Message) bool {
	if a.dedup.admit(m.Epoch, m.Topic, m.Seq) {
		return true
	}
	a.metrics.dupBatches.Inc()
	a.metrics.dupReadings.Add(uint64(len(m.Readings)))
	return false
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
// taking the cache and store locks once for the whole batch.
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
// the broker, drains the ingest fan-in queues, and, for a persistent
// agent, flushes and closes the storage backend — in that order, so
// every batch the broker acknowledged reaches the backend before its
// final flush.
func (a *Agent) Close() error {
	// Self-monitoring stops first: its publishes go through the sink, so
	// it must not race the drain/close sequence below.
	if a.SelfMon != nil {
		a.SelfMon.Close()
	}
	a.Manager.Close()
	var err error
	if a.Broker != nil {
		err = a.Broker.Close()
	}
	// The broker is closed: no handler can enqueue anymore. Drain what
	// is queued so acknowledged deliveries land in the backend. Once-
	// guarded like every other component here, so a second Close is a
	// no-op instead of a close-of-closed-channel panic.
	a.ingestClose.Do(func() {
		for _, q := range a.ingestQs {
			close(q)
		}
		a.ingestWG.Wait()
	})
	// Callback metrics read agent state (queue depths, backend stats);
	// unregister them before the backend goes away.
	a.closeMetricHandles()
	if a.DB != nil {
		if derr := a.DB.Close(); err == nil {
			err = derr
		}
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
