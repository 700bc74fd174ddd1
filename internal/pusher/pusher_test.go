package pusher

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/collect"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/plugins/aggregator"
	"github.com/dcdb/wintermute/internal/samplers"
	"github.com/dcdb/wintermute/internal/sim/hardware"
	"github.com/dcdb/wintermute/internal/sim/workload"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
)

func TestStandalonePusherSampling(t *testing.T) {
	p, err := New(Config{Name: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddSampler(samplers.NewTester("t", "/node/", 5, time.Second)); err != nil {
		t.Fatal(err)
	}
	if p.Nav.NumSensors() != 5 {
		t.Fatalf("sensors registered = %d", p.Nav.NumSensors())
	}
	for i := 0; i < 3; i++ {
		p.SampleOnce(time.Unix(int64(i), 0))
	}
	if p.Samples() != 15 {
		t.Fatalf("Samples = %d, want 15", p.Samples())
	}
	c, ok := p.Caches.Get("/node/test0")
	if !ok {
		t.Fatal("cache missing")
	}
	r, _ := c.Latest()
	if r.Value != 3 {
		t.Fatalf("latest = %v, want 3", r.Value)
	}
	// Query engine sees the data.
	if got := p.QE.QueryRelative("/node/test0", time.Hour, nil); len(got) != 3 {
		t.Fatalf("query = %d readings", len(got))
	}
}

func TestCacheRetentionSizing(t *testing.T) {
	p, err := New(Config{CacheRetention: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	node := hardware.NewNode(hardware.Config{Cores: 2, Seed: 1})
	if err := p.AddSampler(samplers.NewPowerSim(node, "/n1/", 2*time.Second)); err != nil {
		t.Fatal(err)
	}
	c, ok := p.Caches.Get("/n1/power")
	if !ok {
		t.Fatal("power cache missing")
	}
	if c.Capacity() != 5 {
		t.Fatalf("capacity = %d, want 10s/2s = 5", c.Capacity())
	}
}

func TestPusherToCollectAgentFlow(t *testing.T) {
	agent, err := collect.New(collect.Config{ListenMQTT: "127.0.0.1:0", StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	p, err := New(Config{MQTTAddr: agent.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	node := hardware.NewNode(hardware.Config{Cores: 2, Seed: 2})
	node.SetApp(workload.MustNew("hpl", 1, 3600), 0)
	if err := p.AddSampler(samplers.NewPowerSim(node, "/r1/n1/", time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.SampleOnce(time.Unix(int64(i), 0))
	}
	// Await asynchronous delivery into the agent's store.
	deadline := time.Now().Add(2 * time.Second)
	for agent.DB.Count("/r1/n1/power") < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("store has %d readings, want 5", agent.DB.Count("/r1/n1/power"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The agent's sensor tree learned the topics.
	if !agent.Nav.HasSensor("/r1/n1/temp") {
		t.Error("agent navigator missing forwarded sensor")
	}
	// Cache-first query works on the agent side too.
	if _, ok := agent.QE.Latest("/r1/n1/power"); !ok {
		t.Error("agent query engine has no data")
	}
}

func TestStartStopLoops(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddSampler(samplers.NewTester("t", "/n/", 3, 5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Start()
	p.Start() // idempotent
	time.Sleep(40 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	if p.Samples() == 0 {
		t.Error("sampling loop produced no samples")
	}
	n := p.Samples()
	time.Sleep(20 * time.Millisecond)
	if p.Samples() != n {
		t.Error("sampling continued after Stop")
	}
}

// TestCloseNeverStartedPusher: Close releases the broker connection of a
// pusher that was never started — nothing else would.
func TestCloseNeverStartedPusher(t *testing.T) {
	reg := telemetry.NewRegistry()
	agent, err := collect.New(collect.Config{ListenMQTT: "127.0.0.1:0", StoreDir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	conns := func() float64 {
		v, _ := reg.Value("dcdb_broker_connections")
		return v
	}
	p, err := New(Config{MQTTAddr: agent.Addr(), Transport: transport.Options{SpoolBatches: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if n := conns(); n != 1 {
		t.Fatalf("%v broker connections after New, want 1", n)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); conns() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v broker connections after Close, want 0", conns())
		}
	}
}

// TestStopThenStartKeepsPool: Stop leaves the Wintermute computation
// bound in place, so after Stop and Start an operator's tick still runs
// under it.
func TestStopThenStartKeepsPool(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.AddSampler(samplers.NewTester("t", "/n/", 3, time.Hour)); err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(aggregator.Config{
		OperatorConfig: core.OperatorConfig{Name: "avg", Inputs: []string{"test0"}, Outputs: []string{"avg"}, Unit: "/n/", IntervalMs: 3_600_000},
		Operation:      aggregator.Mean,
	})
	if err := p.Manager.LoadPlugin("aggregator", raw); err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.Stop()
	p.Start()
	now := time.Now()
	p.SampleOnce(now)
	before := p.Manager.SchedulerStats().Completed
	if err := p.TickOnce(now); err != nil {
		t.Fatal(err)
	}
	if after := p.Manager.SchedulerStats().Completed; after <= before {
		t.Fatalf("the bound completed %d computations before the tick and %d after: the tick did not run under it", before, after)
	}
}

func TestBadBrokerAddress(t *testing.T) {
	if _, err := New(Config{MQTTAddr: "127.0.0.1:1"}); err == nil {
		t.Error("connecting to a dead broker should fail")
	}
}

// TestSpoolingPusherDelivers runs the daemon with the at-least-once
// spool on: forwarded readings reach the agent's store and the client's
// delivery counters surface through both ClientStats and telemetry.
func TestSpoolingPusherDelivers(t *testing.T) {
	agent, err := collect.New(collect.Config{ListenMQTT: "127.0.0.1:0", StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	reg := telemetry.NewRegistry()
	p, err := New(Config{
		MQTTAddr:  agent.Addr(),
		Transport: transport.Options{SpoolBatches: 64, SpoolDir: t.TempDir()},
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := hardware.NewNode(hardware.Config{Cores: 2, Seed: 2})
	node.SetApp(workload.MustNew("hpl", 1, 3600), 0)
	sim := samplers.NewPowerSim(node, "/r1/n1/", time.Second)
	if err := p.AddSampler(sim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.SampleOnce(time.Unix(int64(i), 0))
	}
	// Await the asynchronous acked delivery, visible through telemetry
	// (the func-metric handles are live until Close): one batch per sensor
	// per sample, and an ack means stored.
	want := float64(5 * len(sim.Sensors()))
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, _ := reg.Value("dcdb_pusher_acked_batches_total"); v >= want {
			break
		}
		if time.Now().After(deadline) {
			v, _ := reg.Value("dcdb_pusher_acked_batches_total")
			t.Fatalf("acked-batches telemetry reached %v, want >= %v", v, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := agent.DB.Count("/r1/n1/power"); got != 5 {
		t.Fatalf("store has %d readings with every batch acked, want 5", got)
	}
	if v, ok := reg.Value("dcdb_pusher_abandoned_batches_total"); !ok || v != 0 {
		t.Fatalf("abandoned-batches telemetry %v (registered %v), want 0", v, ok)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st, ok := p.ClientStats()
	if !ok {
		t.Fatal("ClientStats not ok with MQTT configured")
	}
	if st.Acked == 0 || st.Acked != st.Published {
		t.Fatalf("drained client stats %+v, want Acked == Published > 0", st)
	}
}

// TestQoS0PusherCountsDrops runs the daemon at QoS 0 (Spool 0): readings
// reach the agent while it is up, and once it is gone sampling carries
// on unblocked while every batch that cannot be forwarded is counted in
// ClientStats.Dropped and dcdb_pusher_dropped_batches_total.
func TestQoS0PusherCountsDrops(t *testing.T) {
	agent, err := collect.New(collect.Config{ListenMQTT: "127.0.0.1:0", StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	reg := telemetry.NewRegistry()
	p, err := New(Config{MQTTAddr: agent.Addr(), Metrics: reg, Transport: transport.Options{RetryMin: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	node := hardware.NewNode(hardware.Config{Cores: 2, Seed: 2})
	node.SetApp(workload.MustNew("hpl", 1, 3600), 0)
	if err := p.AddSampler(samplers.NewPowerSim(node, "/r1/n1/", time.Second)); err != nil {
		t.Fatal(err)
	}
	p.SampleOnce(time.Unix(0, 0))
	deadline := time.Now().Add(2 * time.Second)
	for agent.DB.Count("/r1/n1/power") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("QoS 0 reading never reached the agent's store")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v, _ := reg.Value("dcdb_pusher_dropped_batches_total"); v != 0 {
		t.Fatalf("dropped-batches telemetry = %v with the agent up, want 0", v)
	}

	agent.Close()
	for i := 1; ; i++ {
		p.SampleOnce(time.Unix(int64(i), 0)) // must not block on the dead broker
		if v, _ := reg.Value("dcdb_pusher_dropped_batches_total"); v > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no dropped batch counted after the agent went away")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := p.ClientStats()
	if v, _ := reg.Value("dcdb_pusher_dropped_batches_total"); st.Dropped == 0 || float64(st.Dropped) < v {
		t.Fatalf("ClientStats.Dropped = %d, telemetry %v", st.Dropped, v)
	}
	if st.Acked != 0 || st.Redeliveries != 0 {
		t.Fatalf("QoS 0 client acked or redelivered: %+v", st)
	}
}
