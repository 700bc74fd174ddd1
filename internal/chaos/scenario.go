package chaos

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/dcdb/wintermute/internal/collect"
	"github.com/dcdb/wintermute/internal/rest"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/cluster"
	"github.com/dcdb/wintermute/internal/sim/hardware"
	"github.com/dcdb/wintermute/internal/sim/jobs"
	"github.com/dcdb/wintermute/internal/sim/workload"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
	"github.com/dcdb/wintermute/internal/tsdb"
)

// FaultKind names one injectable fault class in a scenario schedule.
type FaultKind string

// The fault classes a scenario can schedule.
const (
	// FaultConnKill abruptly closes live pusher connections.
	FaultConnKill FaultKind = "conn-kill"
	// FaultFsyncStall makes WAL fsyncs hang mid-group-commit.
	FaultFsyncStall FaultKind = "fsync-stall"
	// FaultFsyncFail makes WAL fsyncs return errors (degraded WAL).
	FaultFsyncFail FaultKind = "fsync-fail"
	// FaultWALTorn tears WAL appends: half the record lands, then error.
	FaultWALTorn FaultKind = "wal-torn-write"
	// FaultSegFail fails segment writes, so flushes abort and retry.
	FaultSegFail FaultKind = "seg-write-fail"
	// FaultOOOFlood makes pushers emit buffered batches in reverse
	// order, flooding the store with out-of-order timestamps.
	FaultOOOFlood FaultKind = "ooo-flood"
	// FaultClockSkew offsets pusher timestamps by a fraction of the
	// sampling step, desynchronising timestamp from arrival order.
	FaultClockSkew FaultKind = "clock-skew"
	// FaultDiskFull makes WAL appends and segment writes return ENOSPC
	// — the storage tier must degrade to memory-only serving and re-arm
	// when space returns.
	FaultDiskFull FaultKind = "disk-full"
)

// FaultSpec schedules one fault: Kind activates At after scenario start
// and (for the window-based kinds) deactivates after For. Zero-valued
// tuning fields pick per-kind defaults.
type FaultSpec struct {
	Kind FaultKind
	// At is the activation offset from scenario start.
	At time.Duration
	// For is the active window; ignored by conn-kill (instantaneous).
	For time.Duration
	// P is the per-operation injection probability for filesystem
	// faults (default 0.5).
	P float64
	// Stall is the fsync-stall delay (default 50ms).
	Stall time.Duration
	// Kill is how many connections conn-kill closes (default 1).
	Kill int
}

// Scenario describes one deterministic chaos run: a fleet of simulated
// pushers driving the real broker → collect → tsdb → REST pipeline
// under a scheduled fault sequence, with every reading accounted.
// Zero values select defaults sized for a smoke run.
type Scenario struct {
	// Seed makes the run deterministic: pusher hardware, workload
	// assignment, fault dice and query load all derive from it.
	Seed int64
	// Pushers is the number of simulated pusher connections.
	Pushers int
	// Topics is the number of sensor topics each pusher owns.
	Topics int
	// Rate is each pusher's publish rate in batches per topic per
	// second.
	Rate float64
	// BatchSize is the readings per published batch.
	BatchSize int
	// Duration is how long pushers publish before they close and drain
	// their spools.
	Duration time.Duration
	// Faults is the fault schedule; nil selects DefaultFaults(Duration).
	// The WAL always runs with per-group-commit fsync so the fsync
	// faults actually bite.
	Faults []FaultSpec
	// SpoolBatches sizes each pusher's at-least-once client spool
	// (default 256): batches survive killed connections in the spool and
	// are redelivered after the automatic reconnect, with the agent's
	// dedup keeping the store exactly-once. Negative runs the pushers at
	// QoS 0 (at-most-once), relaxing the verdict to tolerate unacked
	// drops as connection-kill collateral.
	SpoolBatches int
	// QueryWorkers is how many goroutines hammer the REST tier during
	// the run to measure query latency under chaos (default 2).
	QueryWorkers int
	// Dir is the store directory; empty creates (and removes) a
	// temporary one.
	Dir string
}

// Verdict is the JSON result of a scenario run. Pass requires clean
// accounting: zero acked-lost, duplicate, phantom and value-mismatch
// readings — and, with the at-least-once spool on (the default), zero
// unacked drops too: every reading a pusher accepted must be in the
// store, period. Only a QoS 0 run (SpoolBatches < 0) tolerates
// unacked drops as connection-kill collateral.
type Verdict struct {
	Seed            int64             `json:"seed"`
	Pushers         int               `json:"pushers"`
	TopicsPerPusher int               `json:"topics_per_pusher"`
	Rate            float64           `json:"rate_batches_per_topic_sec"`
	BatchSize       int               `json:"batch_size"`
	DurationSec     float64           `json:"duration_sec"`
	FaultClasses    []string          `json:"fault_classes"`
	InjectedFS      map[string]uint64 `json:"injected_fs_faults"`
	ConnsKilled     int               `json:"conns_killed"`
	Accounting      Accounting        `json:"accounting"`
	// IngestedReadings is the agent's own /metrics ingest counter,
	// cross-checking the ledger's delivered count.
	IngestedReadings uint64 `json:"ingested_readings"`
	// ReadingsPerSec is sustained throughput: stored readings over the
	// publish window.
	ReadingsPerSec float64 `json:"readings_per_sec"`
	Queries        uint64  `json:"queries"`
	QueryErrors    uint64  `json:"query_errors"`
	QueryP50Ms     float64 `json:"query_p50_ms"`
	QueryP99Ms     float64 `json:"query_p99_ms"`
	// SpoolEnabled reports whether pushers ran with the at-least-once
	// spool (and therefore whether the zero-unacked-drop criterion
	// applied).
	SpoolEnabled bool `json:"spool_enabled"`
	// PusherReconnects totals successful redials across the fleet.
	PusherReconnects uint64 `json:"pusher_reconnects"`
	// PusherRedeliveries totals batches re-sent after connection loss.
	PusherRedeliveries uint64 `json:"pusher_redeliveries"`
	// PusherDrainFailures counts pushers whose Close could neither
	// deliver nor persist every spooled batch.
	PusherDrainFailures uint64 `json:"pusher_drain_failures"`
	// PusherDialDropBatches counts batches dropped because a pusher's
	// first dial failed (before the at-least-once client existed, so no
	// spool could hold them).
	PusherDialDropBatches uint64 `json:"pusher_dial_drop_batches"`
	// PusherPersistedBatches counts batches Close persisted to the disk
	// spool instead of delivering within its drain timeout — the
	// durable half of the at-least-once contract, made whole by the
	// restart-replay wave below.
	PusherPersistedBatches uint64 `json:"pusher_persisted_batches"`
	// PusherReplayedBatches counts batches the restart-replay wave
	// delivered from persisted spools: for every non-empty disk spool a
	// fresh client is opened on the same directory (restart semantics)
	// and drained against the still-open broker, the agent's dedup
	// dropping whatever already made it through in the first life.
	PusherReplayedBatches uint64 `json:"pusher_replayed_batches"`
	// DupBatchesDropped is the agent's dedup counter: redelivered
	// batches turned away before ingest.
	DupBatchesDropped uint64 `json:"dup_batches_dropped"`
	// BrokerPubAcks counts publish acknowledgements the broker sent.
	BrokerPubAcks uint64   `json:"broker_pubacks"`
	Pass          bool     `json:"pass"`
	Failures      []string `json:"failures,omitempty"`
}

// DefaultFaults returns the canonical schedule covering every fault
// class, spread across a run of the given duration with no overlapping
// windows on the same filesystem rule. Ordering matters: torn writes
// come before fsync failures, because a degraded WAL suspends appends
// entirely (there would be nothing left to tear), and the segment
// fault runs last with its own forced flush.
func DefaultFaults(d time.Duration) []FaultSpec {
	frac := func(f float64) time.Duration { return time.Duration(f * float64(d)) }
	return []FaultSpec{
		{Kind: FaultFsyncStall, At: frac(0.05), For: frac(0.15), P: 0.5, Stall: 20 * time.Millisecond},
		{Kind: FaultConnKill, At: frac(0.20), Kill: 2},
		{Kind: FaultOOOFlood, At: frac(0.25), For: frac(0.25)},
		{Kind: FaultWALTorn, At: frac(0.30), For: frac(0.15), P: 0.3},
		{Kind: FaultClockSkew, At: frac(0.45), For: frac(0.30)},
		{Kind: FaultFsyncFail, At: frac(0.50), For: frac(0.15), P: 0.5},
		{Kind: FaultDiskFull, At: frac(0.55), For: frac(0.10), P: 0.6},
		{Kind: FaultConnKill, At: frac(0.65), Kill: 2},
		{Kind: FaultSegFail, At: frac(0.72), For: frac(0.18), P: 0.5},
	}
}

// withDefaults fills zero fields with smoke-run sizes.
func (s Scenario) withDefaults() Scenario {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Pushers <= 0 {
		s.Pushers = 16
	}
	if s.Topics <= 0 {
		s.Topics = 4
	}
	if s.Rate <= 0 {
		s.Rate = 20
	}
	if s.BatchSize <= 0 {
		s.BatchSize = 5
	}
	if s.Duration <= 0 {
		s.Duration = 5 * time.Second
	}
	if s.Faults == nil {
		s.Faults = DefaultFaults(s.Duration)
	}
	if s.SpoolBatches == 0 {
		s.SpoolBatches = 256
	}
	if s.QueryWorkers < 0 {
		s.QueryWorkers = 0
	} else if s.QueryWorkers == 0 {
		s.QueryWorkers = 2
	}
	return s
}

// derive maps the scenario seed and a label to a stable child seed
// (same construction as internal/testseed, duplicated to keep the
// testing package out of cmd/chaosrunner's import graph).
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(label))
	return int64(h.Sum64())
}

// stepNs is the logical sampling step between consecutive readings of
// one topic; skewNs (a non-multiple of stepNs) is the clock-skew
// offset, chosen so a skewed timestamp can never collide with any
// unskewed sequence position.
const (
	stepNs = int64(time.Millisecond)
	skewNs = stepNs / 3
)

// topologyFor sizes a cluster topology with at least n node paths.
func topologyFor(n int) cluster.Topology {
	t := cluster.Topology{ChassisPerRack: 4, NodesPerChassis: 10, CoresPerNode: 8}
	t.Racks = (n + t.ChassisPerRack*t.NodesPerChassis - 1) / (t.ChassisPerRack * t.NodesPerChassis)
	if t.Racks < 1 {
		t.Racks = 1
	}
	return t
}

// pusherTopics derives the topic set one pusher owns from its node
// path: the five node-level sensors first, then per-core counters.
func pusherTopics(topo cluster.Topology, node sensor.Topic, n int) []sensor.Topic {
	out := make([]sensor.Topic, 0, n)
	for _, s := range cluster.NodeSensors {
		if len(out) == n {
			return out
		}
		out = append(out, node.Join(s))
	}
	for _, cpu := range topo.CPUPaths(node) {
		for _, s := range cluster.CPUSensors {
			if len(out) == n {
				return out
			}
			out = append(out, cpu.Join(s))
		}
	}
	for i := len(out); i < n; i++ {
		out = append(out, node.Join(fmt.Sprintf("x%03d", i)))
	}
	return out
}

// sensorValue samples the topic's current value from the simulated
// node. The mapping mirrors the dcdbsim pusher plugins: node sensors
// from the power/thermal model, core topics from the perf counters.
func sensorValue(node *hardware.Node, idx int) float64 {
	switch idx % 5 {
	case 0:
		return node.Power()
	case 1:
		return node.Temp()
	case 2:
		return node.EnergyJoules()
	case 3:
		return node.IdleSeconds()
	default:
		cycles, instrs, cacheMiss, flops, vecOps := node.CoreCounters(idx % node.Cores())
		switch idx % 4 {
		case 0:
			return cycles
		case 1:
			return instrs
		case 2:
			return cacheMiss + flops
		default:
			return vecOps
		}
	}
}

// Run executes the scenario end to end and returns its verdict. The
// only error paths are environmental (listen/open failures); pipeline
// misbehaviour is reported through the verdict, not an error.
func (s Scenario) Run() (*Verdict, error) {
	s = s.withDefaults()
	dir := s.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "chaos-*")
		if err != nil {
			return nil, fmt.Errorf("chaos: temp dir: %w", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	cfs := NewFS(nil, derive(s.Seed, "fs"))
	reg := telemetry.NewRegistry()
	agent, err := collect.New(collect.Config{
		ListenMQTT:      "127.0.0.1:0",
		StoreDir:        dir,
		StoreFS:         cfs,
		StoreWALSync:    true,
		ResultCacheSize: 512,
		Metrics:         reg,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: starting agent: %w", err)
	}
	defer agent.Close()

	ledger := NewLedger()
	// Registered after collect.New wired the agent's own handler:
	// route calls handlers in registration order, so "delivered" means
	// the agent's ingest handler already ran for the same message.
	agent.Broker.SubscribeLocal("#", ledger.RecordDelivered)

	api, err := rest.Serve("127.0.0.1:0", agent.Manager, agent.QE, rest.Options{
		ResultCache: agent.Results,
		Metrics:     reg,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: starting REST tier: %w", err)
	}
	defer api.Close()

	// The simulated cluster: one node (and its job/workload assignment)
	// per pusher, topics carved from the node's sensor space.
	topo := topologyFor(s.Pushers)
	nodePaths := topo.NodePaths()
	table := jobs.NewTable()
	apps := workload.Names()
	baseNs := time.Now().UnixNano()
	endNs := baseNs + int64(s.Duration) + int64(time.Hour)
	byApp := make(map[string][]sensor.Topic)
	for i := 0; i < s.Pushers; i++ {
		byApp[apps[i%len(apps)]] = append(byApp[apps[i%len(apps)]], nodePaths[i])
	}
	for app, nodes := range byApp {
		table.Submit(app, nodes, baseNs, endNs)
	}

	var (
		oooActive    atomic.Bool
		skewActive   atomic.Bool
		stop         = make(chan struct{})
		pusherWG     sync.WaitGroup
		reconnects   atomic.Uint64
		redeliveries atomic.Uint64
		drainFails   atomic.Uint64
		dialDrops    atomic.Uint64
		persisted    atomic.Uint64
		replayed     atomic.Uint64
	)
	spoolRoot := filepath.Join(dir, "spool")
	pushers := make([]*pusher, 0, s.Pushers)
	for i := 0; i < s.Pushers; i++ {
		node := hardware.NewNode(hardware.Config{
			Cores: topo.CoresPerNode,
			Seed:  derive(s.Seed, fmt.Sprintf("node-%d", i)),
		})
		node.SetApp(workload.MustNew(apps[i%len(apps)],
			derive(s.Seed, fmt.Sprintf("app-%d", i)), s.Duration.Seconds()), baseNs)
		p := &pusher{
			addr:         agent.Addr(),
			spool:        s.SpoolBatches,
			spoolDir:     filepath.Join(spoolRoot, fmt.Sprintf("p%03d", i)),
			topics:       pusherTopics(topo, nodePaths[i], s.Topics),
			node:         node,
			rate:         s.Rate,
			batch:        s.BatchSize,
			baseNs:       baseNs,
			ledger:       ledger,
			ooo:          &oooActive,
			skew:         &skewActive,
			stop:         stop,
			seqs:         make([]int64, s.Topics),
			pending:      nil,
			reconnects:   &reconnects,
			redeliveries: &redeliveries,
			drainFails:   &drainFails,
			dialDrops:    &dialDrops,
			persisted:    &persisted,
			replayed:     &replayed,
		}
		pushers = append(pushers, p)
		pusherWG.Add(1)
		go func() {
			defer pusherWG.Done()
			p.run()
		}()
	}

	// Query load: workers hammer /query (raw ranges and wildcard
	// aggregates) for the whole publish window, measuring end-to-end
	// latency while the faults fire.
	var (
		queryWG  sync.WaitGroup
		latMu    sync.Mutex
		lats     []float64
		queries  atomic.Uint64
		qErrors  atomic.Uint64
		queryURL = "http://" + api.Addr() + "/query"
	)
	for w := 0; w < s.QueryWorkers; w++ {
		qseed := derive(s.Seed, fmt.Sprintf("query-%d", w))
		queryWG.Add(1)
		go func() {
			defer queryWG.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			rng := newLCG(qseed)
			for {
				select {
				case <-stop:
					return
				case <-time.After(25 * time.Millisecond):
				}
				var u string
				pi := int(rng.next() % uint64(s.Pushers))
				topics := pusherTopics(topo, nodePaths[pi], s.Topics)
				topic := topics[int(rng.next()%uint64(len(topics)))]
				if rng.next()%4 == 0 {
					u = fmt.Sprintf("%s?sensor=%s&op=avg&from=%d&to=%d",
						queryURL, url.QueryEscape(string(nodePaths[pi])+"#"), baseNs, endNs)
				} else {
					u = fmt.Sprintf("%s?sensor=%s&from=%d&to=%d",
						queryURL, url.QueryEscape(string(topic)), baseNs, endNs)
				}
				t0 := time.Now()
				resp, err := client.Get(u)
				queries.Add(1)
				if err != nil || resp.StatusCode != http.StatusOK {
					qErrors.Add(1)
				}
				if err == nil {
					_ = resp.Body.Close()
				}
				latMu.Lock()
				lats = append(lats, float64(time.Since(t0))/float64(time.Millisecond))
				latMu.Unlock()
			}
		}()
	}

	// The fault schedule, driven off one goroutine as a sorted event
	// list (activate At, deactivate At+For).
	connsKilled := 0
	faultsDone := make(chan struct{})
	go func() {
		defer close(faultsDone)
		type event struct {
			at time.Duration
			fn func()
		}
		var events []event
		for _, spec := range s.Faults {
			spec := spec
			on, off := s.faultActions(cfs, agent.Broker, agent.DB, &oooActive, &skewActive, &connsKilled, spec)
			events = append(events, event{at: spec.At, fn: on})
			if off != nil {
				events = append(events, event{at: spec.At + spec.For, fn: off})
			}
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
		start := time.Now()
		for _, ev := range events {
			delay := ev.at - time.Since(start)
			if delay > 0 {
				select {
				case <-stop:
					return
				case <-time.After(delay):
				}
			}
			ev.fn()
		}
	}()

	time.Sleep(s.Duration)
	close(stop)
	pusherWG.Wait()
	queryWG.Wait()
	<-faultsDone
	// Restart-replay wave. A Close that could not drain within its
	// timeout persisted the remainder to the pusher's disk spool — the
	// durable half of the at-least-once contract. The other half is
	// that a restarted pusher replays it, so the scenario models
	// exactly that: faults off (the incident is over), then for every
	// non-empty spool a fresh client opens on the same directory and
	// drains it against the still-open broker. The spooled frames keep
	// their original (epoch, seq) identity, so the agent's dedup drops
	// whatever already made it through in the first life and the store
	// gains only the genuinely missing readings.
	cfs.ClearAll()
	if s.SpoolBatches > 0 {
		var replayWG sync.WaitGroup
		for _, p := range pushers {
			fi, err := os.Stat(filepath.Join(p.spoolDir, "pusher.spool"))
			if err != nil || fi.Size() == 0 {
				continue
			}
			replayWG.Add(1)
			go func(p *pusher) {
				defer replayWG.Done()
				c, err := p.dial()
				if err != nil {
					p.drainFails.Add(1)
					return
				}
				cerr := c.Close()
				st := c.Stats()
				p.replayed.Add(st.Acked)
				p.reconnects.Add(st.Reconnects)
				p.redeliveries.Add(st.Redeliveries)
				// After a replay there is no next life to hand off to:
				// anything still spooled is a real drain failure.
				if cerr != nil || st.SpoolDepth+st.SpoolDisk > 0 {
					p.drainFails.Add(1)
				}
			}(p)
		}
		replayWG.Wait()
	}
	// Close the broker before reconciling: a closed pusher connection
	// can still have complete frames sitting in the broker's read
	// buffers, and Broker.Close waits for every serve loop to finish
	// routing them — which includes storing them, so the reconcile
	// below needs no further wait: anything delivered and not in the
	// store by now is acked-lost. Agent.Close re-closing the broker later
	// is a no-op.
	_ = agent.Broker.Close()

	// A final flush exercises the segment path post-chaos and re-arms a
	// degraded WAL; its data stays query-visible either way.
	_ = agent.DB.Flush()

	acct := ledger.Reconcile(func(t sensor.Topic) []sensor.Reading {
		return agent.DB.Range(t, 0, math.MaxInt64, nil)
	})
	ingested, _ := reg.Value("dcdb_ingest_readings_total")
	dupBatches, _ := reg.Value("dcdb_ingest_dup_batches_total")
	pubAcks, _ := reg.Value("dcdb_broker_pubacks_total")
	spoolOn := s.SpoolBatches > 0

	v := &Verdict{
		Seed:                   s.Seed,
		Pushers:                s.Pushers,
		TopicsPerPusher:        s.Topics,
		Rate:                   s.Rate,
		BatchSize:              s.BatchSize,
		DurationSec:            s.Duration.Seconds(),
		FaultClasses:           faultClasses(s),
		InjectedFS:             cfs.Injected(),
		ConnsKilled:            connsKilled,
		Accounting:             acct,
		IngestedReadings:       uint64(ingested),
		ReadingsPerSec:         float64(acct.Stored) / s.Duration.Seconds(),
		Queries:                queries.Load(),
		QueryErrors:            qErrors.Load(),
		SpoolEnabled:           spoolOn,
		PusherReconnects:       reconnects.Load(),
		PusherRedeliveries:     redeliveries.Load(),
		PusherDrainFailures:    drainFails.Load(),
		PusherDialDropBatches:  dialDrops.Load(),
		PusherPersistedBatches: persisted.Load(),
		PusherReplayedBatches:  replayed.Load(),
		DupBatchesDropped:      uint64(dupBatches),
		BrokerPubAcks:          uint64(pubAcks),
	}
	v.QueryP50Ms, v.QueryP99Ms = percentiles(lats)
	v.Pass = acct.Clean()
	if spoolOn {
		// At-least-once upstream + dedup downstream: zero lost, period.
		// Every reading a pusher accepted is either in the store or the
		// run fails.
		v.Pass = v.Pass && acct.UnackedDropped == 0 && drainFails.Load() == 0
		if acct.UnackedDropped > 0 {
			v.Failures = append(v.Failures, fmt.Sprintf("%d unacked-dropped readings (the spool should have redelivered them)", acct.UnackedDropped))
		}
		if n := drainFails.Load(); n > 0 {
			v.Failures = append(v.Failures, fmt.Sprintf("%d pushers could not drain or persist their spool on close", n))
		}
	}
	if acct.AckedLost > 0 {
		v.Failures = append(v.Failures, fmt.Sprintf("%d acked-lost readings (delivered but not stored)", acct.AckedLost))
	}
	if acct.Duplicates > 0 {
		v.Failures = append(v.Failures, fmt.Sprintf("%d duplicate stored readings", acct.Duplicates))
	}
	if acct.Phantom > 0 {
		v.Failures = append(v.Failures, fmt.Sprintf("%d phantom readings (stored/delivered but never sent)", acct.Phantom))
	}
	if acct.ValueMismatch > 0 {
		v.Failures = append(v.Failures, fmt.Sprintf("%d stored readings with corrupted values", acct.ValueMismatch))
	}
	return v, nil
}

// faultActions maps one FaultSpec to its activate/deactivate closures.
func (s Scenario) faultActions(cfs *FS, broker *transport.Broker, db *tsdb.DB,
	ooo, skew *atomic.Bool, connsKilled *int, spec FaultSpec) (on, off func()) {
	p := spec.P
	if p <= 0 {
		p = 0.5
	}
	stall := spec.Stall
	if stall <= 0 {
		stall = 50 * time.Millisecond
	}
	kill := spec.Kill
	if kill <= 0 {
		kill = 1
	}
	switch spec.Kind {
	case FaultConnKill:
		return func() { *connsKilled += broker.KillConnections(kill) }, nil
	case FaultFsyncStall:
		return func() { cfs.Set(OpSync, ClassWAL, Fault{P: p, Stall: stall, StallOnly: true}) },
			func() { cfs.Clear(OpSync, ClassWAL) }
	case FaultFsyncFail:
		return func() { cfs.Set(OpSync, ClassWAL, Fault{P: p}) },
			func() { cfs.Clear(OpSync, ClassWAL) }
	case FaultWALTorn:
		return func() { cfs.Set(OpWrite, ClassWAL, Fault{P: p, Partial: true}) },
			func() { cfs.Clear(OpWrite, ClassWAL) }
	case FaultSegFail:
		return func() {
				cfs.Set(OpWrite, ClassSeg, Fault{P: p})
				cfs.Set(OpCreate, ClassSeg, Fault{P: p})
				// Force flushes while the rule is live: the segment
				// write path only runs on flush, and a failed flush
				// must leave the heads their readings without loss. A
				// successful rotate also re-arms a WAL degraded by an
				// earlier fsync-fail window.
				go func() {
					for i := 0; i < 3; i++ {
						_ = db.Flush()
					}
				}()
			}, func() {
				cfs.Clear(OpWrite, ClassSeg)
				cfs.Clear(OpCreate, ClassSeg)
			}
	case FaultOOOFlood:
		return func() { ooo.Store(true) }, func() { ooo.Store(false) }
	case FaultClockSkew:
		return func() { skew.Store(true) }, func() { skew.Store(false) }
	case FaultDiskFull:
		// The disk fills: everything the storage tier writes gets
		// ENOSPC. The WAL degrades (memory-only), forced flushes fail
		// and leave the heads their readings, and both re-arm when the
		// window closes and the post-chaos flush succeeds.
		full := Fault{P: p, Err: syscall.ENOSPC}
		return func() {
				cfs.Set(OpWrite, ClassWAL, full)
				cfs.Set(OpWrite, ClassSeg, full)
				cfs.Set(OpCreate, ClassSeg, full)
				go func() {
					for i := 0; i < 2; i++ {
						_ = db.Flush()
					}
				}()
			}, func() {
				cfs.Clear(OpWrite, ClassWAL)
				cfs.Clear(OpWrite, ClassSeg)
				cfs.Clear(OpCreate, ClassSeg)
			}
	}
	return func() {}, nil
}

// faultClasses lists the distinct fault classes a scenario applies.
func faultClasses(s Scenario) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range s.Faults {
		if !seen[string(f.Kind)] {
			seen[string(f.Kind)] = true
			out = append(out, string(f.Kind))
		}
	}
	sort.Strings(out)
	return out
}

// percentiles returns the p50 and p99 of the samples (0, 0 when empty).
func percentiles(samples []float64) (p50, p99 float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	sort.Float64s(samples)
	at := func(q float64) float64 {
		i := int(q * float64(len(samples)-1))
		return samples[i]
	}
	return at(0.50), at(0.99)
}

// lcg is a tiny splitmix-style generator for goroutines that must not
// share the scenario's locked RNG.
type lcg struct{ state uint64 }

func newLCG(seed int64) *lcg { return &lcg{state: uint64(seed)*2862933555777941757 + 3037000493} }

func (l *lcg) next() uint64 {
	l.state += 0x9e3779b97f4a7c15
	z := l.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pusher is one simulated pusher connection: it samples its hardware
// node at the configured rate and publishes one batch per topic per
// tick. With spool > 0 (the default) it runs a single at-least-once
// client whose spool absorbs injected connection kills — redial,
// backoff and redelivery all happen inside transport — and whose Close
// drains every outstanding batch at the end of the run. Batches are
// buffered and released in reverse order while the OOO flood fault is
// active.
type pusher struct {
	addr     string
	spool    int    // QoS 1 spool size; <= 0 is QoS 0
	spoolDir string // disk overflow for the spool
	topics   []sensor.Topic
	node     *hardware.Node
	rate     float64
	batch    int
	baseNs   int64
	ledger   *Ledger
	ooo      *atomic.Bool
	skew     *atomic.Bool
	stop     chan struct{}

	seqs    []int64
	pending []outBatch
	client  *transport.Client

	// Fleet-wide totals the scenario reports in its verdict.
	reconnects, redeliveries, drainFails *atomic.Uint64
	dialDrops, persisted, replayed       *atomic.Uint64
}

// outBatch is one generated (topic, readings) pair awaiting publish.
type outBatch struct {
	topic sensor.Topic
	rs    []sensor.Reading
}

// oooWindow is how many generated batches the OOO fault buffers before
// releasing them newest-first.
const oooWindow = 8

func (p *pusher) run() {
	defer func() {
		p.flushPending()
		if p.client == nil {
			return
		}
		// Close drains the spool against the still-open broker (the
		// scenario closes it only after every pusher returned); a drain
		// that can neither deliver nor persist is a verdict failure.
		err := p.client.Close()
		st := p.client.Stats()
		if p.reconnects != nil {
			p.reconnects.Add(st.Reconnects)
			p.redeliveries.Add(st.Redeliveries)
			// Anything still spooled after Close was persisted to disk
			// (durable handoff, not a drain failure) — but this run's
			// ledger will still see those readings as undelivered.
			p.persisted.Add(uint64(st.SpoolDepth + st.SpoolDisk))
			if err != nil {
				p.drainFails.Add(1)
			}
		}
	}()
	interval := time.Duration(float64(time.Second) / p.rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	tick := int64(0)
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
		}
		tick++
		p.node.Advance(p.baseNs + tick*int64(interval))
		skewed := p.skew.Load()
		for j, topic := range p.topics {
			rs := make([]sensor.Reading, p.batch)
			for k := range rs {
				p.seqs[j]++
				ts := p.baseNs + p.seqs[j]*stepNs
				if skewed {
					ts += skewNs
				}
				rs[k] = sensor.Reading{Time: ts, Value: sensorValue(p.node, j)}
			}
			p.pending = append(p.pending, outBatch{topic: topic, rs: rs})
		}
		if p.ooo.Load() {
			if len(p.pending) >= oooWindow {
				p.flushReversed()
			}
		} else {
			p.flushPending()
		}
	}
}

// flushPending publishes buffered batches in generation order.
func (p *pusher) flushPending() {
	for _, b := range p.pending {
		p.publish(b)
	}
	p.pending = p.pending[:0]
}

// flushReversed publishes buffered batches newest-first — the OOO
// flood: the store sees every window's timestamps in reverse.
func (p *pusher) flushReversed() {
	for i := len(p.pending) - 1; i >= 0; i-- {
		p.publish(p.pending[i])
	}
	p.pending = p.pending[:0]
}

// publish records the batch as sent, then hands it to the client.
// Recording first is deliberate: the broker routes on its own goroutine,
// so a delivery may be observed before Publish even returns; a reading
// the ledger did not know about would be misclassified as phantom.
//
// Publish only enqueues — connection loss, redial and (at QoS 1)
// redelivery are the client's problem at either policy, and the only
// error is the client being closed, which never happens mid-run. A
// QoS 0 batch the client drops or loses to a killed connection is never
// re-sent: it becomes an unacked drop in the ledger.
func (p *pusher) publish(b outBatch) {
	p.ledger.RecordSent(b.topic, b.rs)
	if p.client == nil {
		c, err := p.dial()
		if err != nil {
			if p.dialDrops != nil {
				p.dialDrops.Add(1)
			}
			return // batch dropped unacked; redial on the next batch
		}
		p.client = c
	}
	_ = p.client.Publish(b.topic, b.rs)
}

// dial opens this pusher's client: QoS 1 with disk overflow when spool
// is positive, QoS 0 otherwise.
func (p *pusher) dial() (*transport.Client, error) {
	// AckTimeout must sit well above the worst ack latency the
	// injected faults can manufacture (disk-full and slow-write
	// episodes stall the ingest path, and with it the broker's
	// ack-after-route reply, for seconds at a time). Injected
	// connection kills surface as socket errors immediately, so the
	// stall detector is only a backstop for a silently wedged
	// connection — but set too low it kills healthy-slow connections,
	// and each kill redelivers the whole spool, feeding the very
	// congestion that tripped it.
	return transport.DialOptions(p.addr, transport.Options{
		SpoolBatches: max(p.spool, 0),
		SpoolDir:     p.spoolDir,
		AckTimeout:   10 * time.Second,
		RetryMin:     10 * time.Millisecond,
		RetryMax:     250 * time.Millisecond,
		DrainTimeout: 30 * time.Second,
	})
}
