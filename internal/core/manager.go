package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// Job is the job-related data made available to job operator plugins
// (paper §V-C): identity, owner, the compute nodes the job runs on, and
// its time span in nanoseconds (End == 0 while running).
type Job struct {
	ID   string
	User string
	// Name is the job's script or application name as reported by the
	// resource manager; application-fingerprinting operators use it as
	// the training label.
	Name  string
	Nodes []sensor.Topic // component paths of the allocated nodes
	Start int64
	End   int64
}

// Label returns the job's application label: Name when set, the id
// otherwise.
func (j Job) Label() string {
	if j.Name != "" {
		return j.Name
	}
	return j.ID
}

// JobProvider supplies the set of jobs running at a point in time; the
// resource-manager integration (or its simulation) implements it.
type JobProvider interface {
	RunningJobs(now int64) []Job
}

// Env is the environment handed to plugin configurators: everything an
// operator may bind to beyond plain sensor data.
type Env struct {
	Jobs JobProvider // nil when no resource manager is attached
}

// factory builds one operator from a plugin's raw configuration block.
type factory func(cfg json.RawMessage, qe *QueryEngine, env Env) (Operator, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]factory{}
)

// Register makes an operator plugin available to managers under the
// given name. LoadPlugin decodes the plugin's configuration block into a
// C — strictly: a field C does not have is an error that names it — and
// hands it to build, which returns the plugin's one operator. Register is
// typically called from plugin init functions and panics on duplicates,
// which indicate a build-level bug.
func Register[C any, O Operator](name string, build func(cfg C, qe *QueryEngine, env Env) (O, error)) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("core: duplicate plugin registration: " + name)
	}
	registry[name] = func(raw json.RawMessage, qe *QueryEngine, env Env) (Operator, error) {
		var cfg C
		if err := decodeStrict(raw, &cfg); err != nil {
			return nil, err
		}
		op, err := build(cfg, qe, env)
		if err != nil {
			return nil, err
		}
		return op, nil
	}
}

// decodeStrict decodes the one JSON value in raw into v: a field v does
// not have, or data after the value, is an error.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the configuration")
	}
	return nil
}

// RegisteredPlugins returns the sorted names of all available plugins.
func RegisteredPlugins() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func lookupPlugin(name string) (factory, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

// opRuntime tracks the execution state of one operator.
type opRuntime struct {
	op      Operator
	stop    chan struct{} // closed to end the tick loop
	done    chan struct{} // closed by the tick loop when it has ended
	running bool

	// tickMu serializes the operator's computations: no two ticks or
	// on-demand calls of the same operator ever overlap, even when a
	// wall-clock loop, TickAll and POST /compute race.
	tickMu sync.Mutex

	mu      sync.Mutex
	ticks   uint64
	lastErr error
	lastDur time.Duration
}

// OperatorStatus is a snapshot of an operator's state for the REST API.
type OperatorStatus struct {
	Name     string        `json:"name"`
	Plugin   string        `json:"plugin"`
	Mode     string        `json:"mode"`
	Interval time.Duration `json:"interval"`
	Parallel bool          `json:"parallel"`
	Units    int           `json:"units"`
	Running  bool          `json:"running"`
	Ticks    uint64        `json:"ticks"`
	// LastDuration is the wall-clock duration of the most recent tick.
	LastDuration time.Duration `json:"lastDurationNs,omitempty"`
	LastErr      string        `json:"lastError,omitempty"`
}

// Manager is the central entity responsible for reading Wintermute
// configuration, loading plugins and managing operator life cycles
// (paper §V-A). One manager is embedded in each Pusher and Collect Agent.
//
// Lock hierarchy, machine-checked by cmd/invlint: the manager lock is
// outermost; a tick serialization lock may be taken under it; the
// per-runtime stats lock is innermost. The PR 1 Status() deadlock was
// exactly an inversion of this order. The tick path takes no manager
// lock: the bound and the tick histogram are atomic pointers.
//
//lint:lockorder Manager.mu < opRuntime.tickMu < opRuntime.mu
type Manager struct {
	qe   *QueryEngine
	sink Sink
	env  Env

	mu  sync.Mutex
	ops map[string]*opRuntime // by operator name

	// sched bounds the operator computations; never nil.
	sched atomic.Pointer[Scheduler]
	// tickHist observes per-operator tick latency; never nil (an
	// unattached histogram until EnableTelemetry registers a real one).
	tickHist         atomic.Pointer[telemetry.Histogram]
	telemetryHandles []*telemetry.FuncHandle
}

// NewManager creates a manager computing against qe and emitting operator
// output to sink. At most runtime.GOMAXPROCS operator computations run at
// once by default; SetThreads or the `threads` field of Config change the
// bound.
func NewManager(qe *QueryEngine, sink Sink, env Env) *Manager {
	m := &Manager{
		qe:   qe,
		sink: sink,
		env:  env,
		ops:  make(map[string]*opRuntime),
	}
	m.sched.Store(NewScheduler(0))
	m.tickHist.Store((*telemetry.Registry)(nil).Histogram("", "", telemetry.DefDurationBuckets))
	return m
}

// QueryEngine returns the manager's query engine.
func (m *Manager) QueryEngine() *QueryEngine { return m.qe }

// SetThreads replaces the computation bound with one of the given size
// (non-positive: runtime.GOMAXPROCS). Computations already holding or
// waiting for a slot finish under the previous bound; ticks and on-demand
// calls that start later take their slots from the new one.
func (m *Manager) SetThreads(threads int) { m.sched.Store(NewScheduler(threads)) }

// Threads returns the computation bound.
func (m *Manager) Threads() int { return m.sched.Load().Threads() }

// SchedulerStats returns a snapshot of the computation bound: its size,
// the computations waiting for and holding a slot, and the total
// completed.
func (m *Manager) SchedulerStats() SchedulerStats { return m.sched.Load().Stats() }

// Config is the top-level Wintermute configuration: the list of plugin
// blocks to load and the bound shared by their computations.
type Config struct {
	// Threads bounds how many operator computations run at once (paper
	// §V-A: the `threads` knob of the operator manager). Zero or
	// negative selects runtime.GOMAXPROCS.
	Threads int            `json:"threads"`
	Plugins []PluginConfig `json:"plugins"`
}

// PluginConfig pairs a plugin name with its plugin-specific configuration.
type PluginConfig struct {
	Plugin string          `json:"plugin"`
	Config json.RawMessage `json:"config"`
}

// LoadConfigFile reads a JSON Config from path, the daemons' -config
// file, and loads it as LoadConfig does. The file is decoded as strictly
// as each plugin block: a misspelt "plugins" fails, not loads nothing.
func (m *Manager) LoadConfigFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var cfg Config
	if err := decodeStrict(raw, &cfg); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return m.LoadConfig(cfg)
}

// LoadConfig applies the bound and loads every plugin block of a
// configuration.
func (m *Manager) LoadConfig(cfg Config) error {
	if cfg.Threads > 0 {
		m.SetThreads(cfg.Threads)
	}
	for _, pc := range cfg.Plugins {
		if err := m.LoadPlugin(pc.Plugin, pc.Config); err != nil {
			return err
		}
	}
	return nil
}

// LoadPlugin instantiates the operator of one plugin from its raw
// configuration and registers it with the manager. The operator is
// created stopped; call Start or StartOperator to run it.
func (m *Manager) LoadPlugin(name string, cfg json.RawMessage) error {
	build, ok := lookupPlugin(name)
	if !ok {
		return fmt.Errorf("core: unknown plugin %q (available: %v)", name, RegisteredPlugins())
	}
	op, err := build(cfg, m.qe, m.env)
	if err != nil {
		return fmt.Errorf("core: plugin %q: %w", name, err)
	}
	return m.AdoptOperator(op)
}

// AdoptOperator registers an already-constructed operator with the
// manager, as LoadPlugin does with the one a plugin builds. Embedding
// hosts and benchmark harnesses use it to manage hand-built operators
// without going through configuration. The operator is created stopped.
func (m *Manager) AdoptOperator(op Operator) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.ops[op.Name()]; dup {
		return fmt.Errorf("core: duplicate operator name %q", op.Name())
	}
	m.ops[op.Name()] = &opRuntime{op: op}
	return nil
}

// UnloadPlugin stops and removes every operator created by the named
// plugin, returning how many were removed.
func (m *Manager) UnloadPlugin(name string) int {
	m.mu.Lock()
	var victims []*opRuntime
	for key, rt := range m.ops {
		if rt.op.Plugin() == name {
			victims = append(victims, rt)
			delete(m.ops, key)
		}
	}
	m.mu.Unlock()
	for _, rt := range victims {
		m.stopRuntime(rt)
	}
	return len(victims)
}

// Operators returns the managed operators sorted by name.
func (m *Manager) Operators() []Operator {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Operator, 0, len(m.ops))
	for _, rt := range m.ops {
		out = append(out, rt.op)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Operator returns the named operator, if managed.
func (m *Manager) Operator(name string) (Operator, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt, ok := m.ops[name]
	if !ok {
		return nil, false
	}
	return rt.op, true
}

// Start launches the tick loop of every Online operator.
func (m *Manager) Start() {
	for _, op := range m.Operators() {
		// Errors only occur for unknown names, impossible here.
		_ = m.StartOperator(op.Name())
	}
}

// Stop halts all running operators and waits for their loops to exit,
// a tick in flight included.
func (m *Manager) Stop() {
	m.mu.Lock()
	var running []*opRuntime
	for _, rt := range m.ops {
		running = append(running, rt)
	}
	m.mu.Unlock()
	for _, rt := range running {
		m.stopRuntime(rt)
	}
}

// Close stops all operators, waiting for their loops as Stop does, and
// unregisters the manager's telemetry. The bound is left alone: ticks and
// on-demand calls after Close still run under it.
func (m *Manager) Close() {
	m.Stop()
	m.closeTelemetry()
}

// StartOperator launches the tick loop of one operator. OnDemand
// operators have no loop and are silently left alone.
func (m *Manager) StartOperator(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt, ok := m.ops[name]
	if !ok {
		return fmt.Errorf("core: unknown operator %q", name)
	}
	if rt.running || rt.op.Mode() != Online {
		return nil
	}
	rt.stop = make(chan struct{})
	rt.done = make(chan struct{})
	rt.running = true
	go m.runLoop(rt, rt.stop, rt.done)
	return nil
}

// StopOperator halts one operator's loop and waits for it to exit.
func (m *Manager) StopOperator(name string) error {
	m.mu.Lock()
	rt, ok := m.ops[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown operator %q", name)
	}
	m.stopRuntime(rt)
	return nil
}

func (m *Manager) stopRuntime(rt *opRuntime) {
	m.mu.Lock()
	if !rt.running {
		m.mu.Unlock()
		return
	}
	rt.running = false
	stop, done := rt.stop, rt.done
	m.mu.Unlock()
	close(stop)
	<-done
}

// runLoop drives one operator with a wall-clock ticker until stop is
// closed, then closes done. The channels are passed in rather than read
// from rt: a stopped operator can be restarted, and reading rt's fields
// here would race with StartOperator reassigning them for the new loop.
func (m *Manager) runLoop(rt *opRuntime, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(rt.op.Interval())
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			m.tickRuntime(rt, now)
		}
	}
}

// tickRuntime runs one serialized tick of an operator under the manager's
// bound; rt.tickMu guarantees ticks of the same operator never overlap (a
// tick outlasting its interval delays the next one instead of racing it).
func (m *Manager) tickRuntime(rt *opRuntime, now time.Time) error {
	rt.tickMu.Lock()
	defer rt.tickMu.Unlock()
	start := time.Now()
	err := tickBounded(rt.op, m.qe, m.sink, now, m.sched.Load())
	dur := time.Since(start)
	m.tickHist.Load().Observe(dur.Seconds())
	rt.mu.Lock()
	rt.ticks++
	rt.lastErr = err
	rt.lastDur = dur
	rt.mu.Unlock()
	return err
}

// TickAll synchronously runs one computation round of every Online
// operator at the given simulated time. Experiment harnesses and tests
// drive managers with TickAll instead of wall-clock tickers, so that weeks
// of monitoring data can be processed in seconds. Operators are dispatched
// concurrently — the actual computations are bounded by the manager's
// Scheduler — and all failures are aggregated with errors.Join.
func (m *Manager) TickAll(now time.Time) error {
	m.mu.Lock()
	rts := make([]*opRuntime, 0, len(m.ops))
	for _, rt := range m.ops {
		if rt.op.Mode() == Online {
			rts = append(rts, rt)
		}
	}
	m.mu.Unlock()
	// Deterministic error ordering across runs.
	sort.Slice(rts, func(i, j int) bool { return rts[i].op.Name() < rts[j].op.Name() })
	errs := make([]error, len(rts))
	var wg sync.WaitGroup
	for i, rt := range rts {
		wg.Add(1)
		go func(i int, rt *opRuntime) {
			defer wg.Done()
			errs[i] = m.tickRuntime(rt, now)
		}(i, rt)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// OnDemand triggers the computation of one operator through the REST
// path (paper §IV-b): output is returned to the caller only, not pushed
// to the sink. An empty unitName computes every unit. The call runs like
// a tick — Prepare, then the units, under the manager's bound — and
// waits for an in-flight tick of the operator, but counts as none in its
// status.
func (m *Manager) OnDemand(opName string, unitName sensor.Topic, now time.Time) ([]Output, error) {
	m.mu.Lock()
	rt, ok := m.ops[opName]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown operator %q", opName)
	}
	rt.tickMu.Lock()
	defer rt.tickMu.Unlock()
	sched := m.sched.Load()
	if err := prepare(rt.op, m.qe, now, sched); err != nil {
		return nil, err
	}
	us := rt.op.Units()
	if unitName != "" {
		name := sensor.Clean(string(unitName)).AsNode()
		i := slices.IndexFunc(us, func(u *units.Unit) bool { return u.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("core: operator %q has no unit %q", opName, unitName)
		}
		us = us[i : i+1]
	}
	// The sink sees a pooled buffer: copy the outputs out of it.
	var outs []Output
	err := computeUnits(rt.op, m.qe, SinkFunc(func(o []Output) { outs = append(outs, o...) }), now, sched, us)
	return outs, err
}

// Status returns a snapshot of every operator, sorted by name. The
// running flags are captured in the same m.mu pass that collects the
// runtimes, so Status never interleaves m.mu with the per-runtime locks
// (interleaving the two was a lock-order inversion waiting to deadlock).
func (m *Manager) Status() []OperatorStatus {
	type snapshot struct {
		rt      *opRuntime
		running bool
	}
	m.mu.Lock()
	snaps := make([]snapshot, 0, len(m.ops))
	for _, rt := range m.ops {
		snaps = append(snaps, snapshot{rt: rt, running: rt.running})
	}
	m.mu.Unlock()
	out := make([]OperatorStatus, 0, len(snaps))
	for _, sn := range snaps {
		rt := sn.rt
		rt.mu.Lock()
		st := OperatorStatus{
			Name:         rt.op.Name(),
			Plugin:       rt.op.Plugin(),
			Mode:         rt.op.Mode().String(),
			Interval:     rt.op.Interval(),
			Parallel:     rt.op.Parallel(),
			Units:        len(rt.op.Units()),
			Running:      sn.running,
			Ticks:        rt.ticks,
			LastDuration: rt.lastDur,
		}
		if rt.lastErr != nil {
			st.LastErr = rt.lastErr.Error()
		}
		rt.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
