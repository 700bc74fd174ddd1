package integration

import (
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/chaos"
	"github.com/dcdb/wintermute/internal/collect"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
)

// TestSpoolRecoveryAcrossAgentRestart is the end-to-end at-least-once
// story: a spooling pusher keeps accepting batches while the agent is
// down (overflowing to disk), persists the remainder on Close, and a
// restarted pusher (same spool directory) replays it — in order — into
// a restarted agent, which stores every reading exactly once.
func TestSpoolRecoveryAcrossAgentRestart(t *testing.T) {
	storeDir := t.TempDir()
	spoolDir := t.TempDir()
	agent, err := collect.New(collect.Config{ListenMQTT: "127.0.0.1:0", StoreDir: storeDir})
	if err != nil {
		t.Fatalf("starting agent: %v", err)
	}
	addr := agent.Addr()
	topic := sensor.Topic("/r01/c01/n01/power")

	opts := transport.Options{
		SpoolBatches: 4,
		SpoolDir:     spoolDir,
		RetryMin:     5 * time.Millisecond,
		DrainTimeout: 200 * time.Millisecond,
	}
	client, err := transport.DialOptions(addr, opts)
	if err != nil {
		t.Fatalf("dialling pusher client: %v", err)
	}
	// The agent dies mid-run. Publishes keep succeeding: 4 batches stay
	// in the client's memory spool, the rest overflow to disk.
	if err := agent.Close(); err != nil {
		t.Fatalf("closing first agent: %v", err)
	}
	const batches = 24
	for i := 0; i < batches; i++ {
		rs := []sensor.Reading{{Time: int64(i), Value: float64(i * 10)}}
		if err := client.Publish(topic, rs); err != nil {
			t.Fatalf("publish %d with agent down: %v", i, err)
		}
	}
	if st := client.Stats(); st.SpoolDisk == 0 {
		t.Fatalf("no disk overflow after %d batches, stats %+v", batches, st)
	}
	// Close cannot drain (nothing listening): the whole backlog persists.
	if err := client.Close(); err != nil {
		t.Fatalf("close with disk spool configured: %v", err)
	}

	// The agent restarts on the same address; a new pusher incarnation
	// with the same spool directory replays the backlog.
	reg := telemetry.NewRegistry()
	agent2, err := collect.New(collect.Config{ListenMQTT: addr, StoreDir: storeDir, Metrics: reg})
	if err != nil {
		t.Fatalf("restarting agent: %v", err)
	}
	defer agent2.Close()
	client2, err := transport.DialOptions(addr, opts)
	if err != nil {
		t.Fatalf("redialling pusher client: %v", err)
	}
	if err := client2.Close(); err != nil { // Close drains the replayed spool
		t.Fatalf("draining replayed spool: %v", err)
	}

	// Close returned, so every replayed batch was acked — and an ack
	// means stored: no wait before looking.
	if v, _ := reg.Value("dcdb_ingest_readings_total"); uint64(v) != batches {
		t.Fatalf("ingested %v of %d replayed readings when the drain returned", v, batches)
	}
	got := agent2.DB.Range(topic, 0, int64(batches)+1, nil)
	if len(got) != batches {
		t.Fatalf("store holds %d readings after replay, want %d", len(got), batches)
	}
	for i, r := range got {
		if r.Time != int64(i) || r.Value != float64(i*10) {
			t.Fatalf("reading %d = {t:%d v:%g}: replay out of order or corrupted", i, r.Time, r.Value)
		}
	}
}

// TestDedupAcrossReconnect kills the pusher's connection repeatedly
// mid-stream while it publishes round-robin over four topics: the spool
// redelivers everything unacknowledged, and the broker's per-epoch
// high-water mark must absorb every duplicate — the store ends up with
// each reading exactly once.
func TestDedupAcrossReconnect(t *testing.T) {
	reg := telemetry.NewRegistry()
	agent, err := collect.New(collect.Config{ListenMQTT: "127.0.0.1:0", StoreDir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatalf("starting agent: %v", err)
	}
	defer agent.Close()
	topics := []sensor.Topic{"/r01/c01/n02/temp", "/r01/c01/n02/power", "/r01/c01/n03/temp", "/r01/c01/n03/power"}

	client, err := transport.DialOptions(agent.Addr(), transport.Options{
		SpoolBatches: 32,
		RetryMin:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dialling: %v", err)
	}
	const batches = 150
	for i := 0; i < batches; i++ {
		rs := []sensor.Reading{{Time: int64(i), Value: float64(i)}}
		if err := client.Publish(topics[i%len(topics)], rs); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if i%40 == 20 {
			agent.Broker.KillConnections(-1)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if client.Stats().Reconnects == 0 {
		t.Fatal("kills produced no reconnects")
	}

	seen := make(map[int64]bool)
	for _, topic := range topics {
		for _, r := range agent.DB.Range(topic, 0, int64(batches)+1, nil) {
			if seen[r.Time] || topics[r.Time%int64(len(topics))] != topic {
				t.Fatalf("timestamp %d stored twice or under %s — dedup failed", r.Time, topic)
			}
			seen[r.Time] = true
		}
	}
	if len(seen) != batches {
		t.Fatalf("store holds %d readings, want exactly %d (loss)", len(seen), batches)
	}
	// When the kills interrupted in-flight batches, redeliveries happened
	// and the dedup counter shows the absorbed duplicates.
	if st := client.Stats(); st.Redeliveries > 0 {
		if v, _ := reg.Value("dcdb_ingest_dup_batches_total"); v == 0 {
			t.Logf("note: %d redeliveries, 0 dups dropped (first copies never routed)", st.Redeliveries)
		}
	}
}

// TestAckImpliesStored pins what a PubAck promises: the agent stores a
// burst on the connection's own goroutine and the broker acks after
// that returned, so while the WAL write is stalled the client sees no
// ack, and the moment it does every batch the ack covers is already in
// the store. First for a burst of one, then for the five batches that
// queued up in the read buffer behind it: they are one burst, so one WAL
// write — stalled again — holds back the ack for every one of their
// sequences, and when it returns a single PubAck covers all five.
func TestAckImpliesStored(t *testing.T) {
	const stall = 300 * time.Millisecond
	cfs := chaos.NewFS(nil, 1)
	reg := telemetry.NewRegistry()
	agent, err := collect.New(collect.Config{
		ListenMQTT: "127.0.0.1:0",
		StoreDir:   t.TempDir(),
		StoreFS:    cfs,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatalf("starting agent: %v", err)
	}
	defer agent.Close()
	cfs.Set(chaos.OpWrite, chaos.ClassWAL, chaos.Fault{P: 1, Stall: stall, StallOnly: true})

	client, err := transport.DialOptions(agent.Addr(), transport.Options{SpoolBatches: 8})
	if err != nil {
		t.Fatalf("dialling: %v", err)
	}
	defer client.Close()
	topic := sensor.Topic("/r01/c01/n03/power")
	batch := func(i int64) []sensor.Reading {
		return []sensor.Reading{{Time: 10*i + 1, Value: 10}, {Time: 10*i + 2, Value: 20}, {Time: 10*i + 3, Value: 30}}
	}
	const perBatch, behind = 3, 5
	start := time.Now()
	if err := client.Publish(topic, batch(0)); err != nil {
		t.Fatalf("publish: %v", err)
	}
	// These arrive while the connection's goroutine sits in the first
	// batch's stalled WAL write: the next pass over the read buffer finds
	// all five whole.
	for cfs.Injected()["write/wal"] == 0 {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the WAL write fault never fired; the test observed nothing")
		}
		time.Sleep(time.Millisecond)
	}
	for i := int64(1); i <= behind; i++ {
		if err := client.Publish(topic, batch(i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	// waitAcked polls until more than have batches are acked and returns
	// the first larger count observed, with the time it was observed.
	waitAcked := func(have uint64) (uint64, time.Time) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if n := client.Stats().Acked; n > have {
				return n, time.Now()
			}
			if time.Now().After(deadline) {
				t.Fatalf("no ack beyond %d within 10s of the stall ending", have)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// midStall observes the ack count halfway into a stall that began at
	// or after from: it must still be want. (A test goroutine
	// descheduled past the window proves nothing either way.)
	midStall := func(from time.Time, want uint64) {
		time.Sleep(time.Until(from.Add(stall / 2)))
		acked := client.Stats().Acked
		if time.Since(from) >= stall {
			t.Logf("scheduler delayed the mid-stall observation past %v; only the post-ack checks apply", stall)
		} else if acked != want {
			t.Fatalf("acked %d batch(es), want %d, %v into a WAL write stalled for %v: the ack ran ahead of the store", acked, want, time.Since(from), stall)
		}
	}

	midStall(start, 0)
	acked, first := waitAcked(0)
	// No polling on the store: the ack is the barrier.
	if got := agent.DB.Count(topic); acked != 1 || got != perBatch {
		t.Fatalf("first ack covers %d batch(es) with %d readings stored, want 1 and %d", acked, got, perBatch)
	}

	// The five behind it are now inside one stalled WAL write.
	midStall(first, 1)
	acked, _ = waitAcked(1)
	if got := agent.DB.Count(topic); acked != 1+behind || got != (1+behind)*perBatch {
		t.Fatalf("second ack brought the count to %d with %d readings stored, want %d and %d: the burst was not acked as one, or ahead of its store",
			acked, got, 1+behind, (1+behind)*perBatch)
	}
	if n := cfs.Injected()["write/wal"]; n != 2 {
		t.Fatalf("%d stalled WAL writes for a burst of 1 and a burst of %d, want 2", n, behind)
	}
	if n, _ := reg.Value("dcdb_broker_pubacks_total"); n != 2 {
		t.Fatalf("%v PubAcks for two bursts, want 2", n)
	}
}
