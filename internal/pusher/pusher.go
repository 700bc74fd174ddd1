// Package pusher implements the DCDB Pusher: the per-node daemon that
// samples sensors through monitoring plugins, keeps recent readings in
// in-memory caches, forwards data to a Collect Agent over the MQTT-style
// transport, and embeds the Wintermute framework for in-band operational
// data analytics (paper §IV-A).
//
// Operators instantiated in a Pusher see only locally-sampled sensors and
// their caches — the location "optimal for runtime models requiring data
// liveness, low latency and horizontal scalability".
package pusher

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/samplers"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
)

// Config parameterises a Pusher.
type Config struct {
	// Name identifies the pusher (usually the hostname).
	Name string
	// CacheRetention sizes sensor caches by time span (default 180 s, the
	// evaluation configuration of the paper).
	CacheRetention time.Duration
	// MQTTAddr is the Collect Agent broker address; empty disables
	// forwarding (standalone operation).
	MQTTAddr string
	// Transport configures the broker client when MQTTAddr is set.
	// Transport.SpoolBatches > 0 forwards with at-least-once delivery
	// (an acknowledged, redelivered spool, spilling to SpoolDir when
	// set); 0 forwards at most once, dropping and counting what is
	// sampled while the broker is unreachable.
	Transport transport.Options
	// Env is handed to Wintermute plugin configurators.
	Env core.Env
	// Metrics receives the pusher's delivery telemetry (spool depth,
	// reconnects, redeliveries); nil disables registration.
	Metrics *telemetry.Registry
}

// Pusher hosts sampler plugins and a Wintermute manager.
type Pusher struct {
	cfg Config

	Nav     *navigator.Navigator
	Caches  *cache.Set
	QE      *core.QueryEngine
	Manager *core.Manager

	sink      *core.CacheSink
	mqtt      *transport.Client
	statFuncs []*telemetry.FuncHandle

	mu       sync.Mutex
	samplers []samplers.Sampler
	stops    []chan struct{}
	running  bool
	closed   bool
	wg       sync.WaitGroup

	samples atomic.Uint64
}

// New creates a Pusher, connecting to the MQTT broker when configured.
func New(cfg Config) (*Pusher, error) {
	if cfg.CacheRetention <= 0 {
		cfg.CacheRetention = 180 * time.Second
	}
	nav := navigator.New()
	caches := cache.NewSet()
	qe := core.NewQueryEngine(nav, caches, nil)
	sink := core.NewCacheSink(caches, nav, int(cfg.CacheRetention/time.Second), time.Second)
	p := &Pusher{
		cfg:    cfg,
		Nav:    nav,
		Caches: caches,
		QE:     qe,
		sink:   sink,
	}
	if cfg.MQTTAddr != "" {
		client, err := transport.DialOptions(cfg.MQTTAddr, cfg.Transport)
		if err != nil {
			return nil, fmt.Errorf("pusher: connecting to broker: %w", err)
		}
		p.mqtt = client
		// Each batch — a sampler round's or a unit's outputs for one topic
		// — travels in one broker message. Forwarding is best-effort:
		// local caching and analytics continue while the Collect Agent is
		// unreachable.
		sink.Forward = func(topic sensor.Topic, rs []sensor.Reading) { _ = client.Publish(topic, rs) }
		p.registerClientMetrics(cfg.Metrics)
	}
	p.Manager = core.NewManager(qe, sink, cfg.Env)
	return p, nil
}

// registerClientMetrics exposes the broker client's delivery state; reg
// may be nil (no-op handles). Close closes the handles before the client.
func (p *Pusher) registerClientMetrics(reg *telemetry.Registry) {
	c := p.mqtt
	p.statFuncs = []*telemetry.FuncHandle{
		reg.GaugeFunc("dcdb_pusher_spool_depth",
			"Batches in the in-memory spool (unsent plus unacknowledged).",
			func() float64 { return float64(c.Stats().SpoolDepth) }),
		reg.GaugeFunc("dcdb_pusher_spool_disk_batches",
			"Overflow batches on disk not yet loaded into memory.",
			func() float64 { return float64(c.Stats().SpoolDisk) }),
		reg.CounterFunc("dcdb_pusher_acked_batches_total",
			"Batches the broker acknowledged.",
			func() float64 { return float64(c.Stats().Acked) }),
		reg.CounterFunc("dcdb_pusher_reconnects_total",
			"Successful broker redials after a lost connection.",
			func() float64 { return float64(c.Stats().Reconnects) }),
		reg.CounterFunc("dcdb_pusher_redeliveries_total",
			"Batches re-sent because a connection died with them unacknowledged.",
			func() float64 { return float64(c.Stats().Redeliveries) }),
		reg.CounterFunc("dcdb_pusher_dropped_batches_total",
			"QoS 0 batches dropped because no broker connection was live.",
			func() float64 { return float64(c.Stats().Dropped) }),
	}
}

// Sink returns the pusher's reading sink (caches + MQTT forwarding).
func (p *Pusher) Sink() core.Sink { return p.sink }

// ClientStats reports the broker client's delivery counters; ok is
// false when the pusher runs standalone (no MQTTAddr).
func (p *Pusher) ClientStats() (st transport.ClientStats, ok bool) {
	if p.mqtt == nil {
		return transport.ClientStats{}, false
	}
	return p.mqtt.Stats(), true
}

// Samples returns the total number of readings sampled so far.
func (p *Pusher) Samples() uint64 { return p.samples.Load() }

// AddSampler registers a monitoring plugin: its sensors are added to the
// sensor tree and given caches sized for the configured retention.
func (p *Pusher) AddSampler(s samplers.Sampler) error {
	for _, info := range s.Sensors() {
		if err := p.Nav.AddSensor(info.Topic); err != nil {
			return fmt.Errorf("pusher: sampler %s: %w", s.Name(), err)
		}
		interval := info.Interval
		if interval <= 0 {
			interval = s.Interval()
		}
		capacity := int(p.cfg.CacheRetention / interval)
		if capacity < 1 {
			capacity = 1
		}
		p.Caches.GetOrCreate(info.Topic, capacity, interval)
	}
	p.mu.Lock()
	p.samplers = append(p.samplers, s)
	p.mu.Unlock()
	return nil
}

// SampleOnce synchronously runs one sampling round of every sampler at
// the given time, pushing readings into the sink. Experiment harnesses
// drive pushers with SampleOnce under simulated clocks.
func (p *Pusher) SampleOnce(now time.Time) {
	p.mu.Lock()
	ss := append([]samplers.Sampler(nil), p.samplers...)
	p.mu.Unlock()
	var buf []core.Output
	for _, s := range ss {
		buf = s.Sample(now, buf[:0])
		p.sink.PushBatch(buf)
		p.samples.Add(uint64(len(buf)))
	}
}

// TickOnce synchronously runs one Wintermute computation round at the
// given time.
func (p *Pusher) TickOnce(now time.Time) error {
	return p.Manager.TickAll(now)
}

// Start launches one sampling loop per sampler plus the Wintermute
// operator loops; it does nothing on a running or closed pusher.
func (p *Pusher) Start() {
	p.mu.Lock()
	if p.running || p.closed {
		p.mu.Unlock()
		return
	}
	p.running = true
	for _, s := range p.samplers {
		stop := make(chan struct{})
		p.stops = append(p.stops, stop)
		p.wg.Add(1)
		go p.sampleLoop(s, stop)
	}
	p.mu.Unlock()
	p.Manager.Start()
}

func (p *Pusher) sampleLoop(s samplers.Sampler, stop chan struct{}) {
	defer p.wg.Done()
	ticker := time.NewTicker(s.Interval())
	defer ticker.Stop()
	var buf []core.Output
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			buf = s.Sample(now, buf[:0])
			p.sink.PushBatch(buf)
			p.samples.Add(uint64(len(buf)))
		}
	}
}

// Stop halts the sampling loops and the operator loops, waiting for
// both. The pusher keeps its broker connection: Start may follow.
func (p *Pusher) Stop() {
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		return
	}
	p.running = false
	for _, stop := range p.stops {
		close(stop)
	}
	p.stops = nil
	p.mu.Unlock()
	p.wg.Wait()
	p.Manager.Stop()
}

// Close stops the pusher, then releases what it holds, once, whether or
// not Start ran: the Wintermute manager's telemetry, the delivery metrics
// and the broker connection. At QoS 1 the client drains its spool first
// (bounded by Transport.DrainTimeout) and persists the remainder when
// Transport.SpoolDir is set; the error reports batches it could neither
// deliver nor persist.
func (p *Pusher) Close() error {
	p.Stop()
	p.mu.Lock()
	closed := p.closed
	p.closed = true
	p.mu.Unlock()
	if closed {
		return nil
	}
	p.Manager.Close()
	for _, h := range p.statFuncs {
		h.Close()
	}
	if p.mqtt == nil {
		return nil
	}
	return p.mqtt.Close()
}
