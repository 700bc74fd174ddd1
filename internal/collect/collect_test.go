package collect

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/transport"
)

func TestIngestWithoutBroker(t *testing.T) {
	a, err := New(Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Addr() != "" {
		t.Error("no broker expected")
	}
	for i := 0; i < 10; i++ {
		a.Ingest("/r1/n1/power", sensor.Reading{Value: float64(100 + i), Time: int64(i) * int64(time.Second)})
	}
	// Data lands in store, cache and tree.
	if a.DB.Count("/r1/n1/power") != 10 {
		t.Fatalf("store count = %d", a.DB.Count("/r1/n1/power"))
	}
	if c, ok := a.Caches.Get("/r1/n1/power"); !ok || c.Len() != 10 {
		t.Fatal("cache missing or short")
	}
	if !a.Nav.HasSensor("/r1/n1/power") {
		t.Fatal("sensor not in tree")
	}
	// Query engine falls back to the store for old ranges.
	rs := a.QE.QueryAbsolute("/r1/n1/power", 0, 4*int64(time.Second), nil)
	if len(rs) != 5 {
		t.Fatalf("absolute query = %d readings", len(rs))
	}
}

func TestBrokerIngestion(t *testing.T) {
	a, err := New(Config{ListenMQTT: "127.0.0.1:0", StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c, err := transport.Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	batch := []sensor.Reading{{Value: 1, Time: 1}, {Value: 2, Time: 2}}
	if err := c.Publish("/rx/n1/temp", batch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.DB.Count("/rx/n1/temp") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("store count = %d, want 2", a.DB.Count("/rx/n1/temp"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestNewRequiresStoreDir: the agent has one Storage Backend, the tsdb
// in StoreDir, so a config without a directory is refused by name.
func TestNewRequiresStoreDir(t *testing.T) {
	a, err := New(Config{})
	if err == nil {
		a.Close()
		t.Fatal("New without StoreDir succeeded")
	}
	if !strings.Contains(err.Error(), "StoreDir") {
		t.Fatalf("error %q does not name StoreDir", err)
	}
}

func TestPersistentAgentCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	topics := make([]sensor.Topic, 8)
	for i := range topics {
		topics[i] = sensor.Topic(fmt.Sprintf("/r1/n%d/power", i))
	}

	a, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range topics {
		rs := make([]sensor.Reading, 100)
		for i := range rs {
			rs[i] = sensor.Reading{Value: float64(100 + i), Time: int64(i) * int64(time.Second)}
		}
		a.IngestBatch(tp, rs)
	}
	type answer struct {
		rng    []sensor.Reading
		latest sensor.Reading
	}
	want := map[sensor.Topic]answer{}
	for _, tp := range topics {
		r, _ := a.QE.Latest(tp)
		want[tp] = answer{
			rng:    a.DB.Range(tp, 0, 100*int64(time.Second), nil),
			latest: r,
		}
	}
	// Kill: no Agent.Close, no DB flush — the WAL is all that survives.
	// (Abandon stands in for process death: it drops the directory lock
	// without flushing anything.)
	a.Manager.Close()
	a.DB.Abandon()

	b, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, tp := range topics {
		got := b.DB.Range(tp, 0, 100*int64(time.Second), nil)
		if len(got) != len(want[tp].rng) {
			t.Fatalf("%s: recovered %d readings, want %d", tp, len(got), len(want[tp].rng))
		}
		for i := range got {
			if got[i] != want[tp].rng[i] {
				t.Fatalf("%s[%d] = %+v, want %+v", tp, i, got[i], want[tp].rng[i])
			}
		}
		// The restarted agent has cold caches: the Query Engine must fall
		// back to the recovered backend and answer identically.
		if r, ok := b.QE.Latest(tp); !ok || r != want[tp].latest {
			t.Fatalf("%s: QE.Latest = %+v, %v; want %+v", tp, r, ok, want[tp].latest)
		}
		// The sensor tree was rebuilt from the recovered topics.
		if !b.Nav.HasSensor(tp) {
			t.Fatalf("%s missing from recovered sensor tree", tp)
		}
	}
}

// TestIngestFanInPreservesPerTopicOrder drives many topics from one
// publisher into the agent and checks every batch lands, with each
// topic's readings in arrival order (a connection is ingested by its
// own serve goroutine, so its order is the ingest order).
func TestIngestFanInPreservesPerTopicOrder(t *testing.T) {
	a, err := New(Config{ListenMQTT: "127.0.0.1:0", StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c, err := transport.Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every reading of every batch carries the SAME timestamp: the store
	// keeps equal-timestamp readings in arrival order (stable insert), so
	// the Value sequence read back IS the ingest order — any cross-batch
	// reorder of one topic shows up as a value out of place, which
	// monotonic timestamps could never detect (the store sorts those).
	const topics = 16
	const batches = 25
	const batchLen = 4
	const stamp = int64(time.Second)
	for i := 0; i < batches; i++ {
		for n := 0; n < topics; n++ {
			topic := sensor.Topic(fmt.Sprintf("/fan/n%02d/power", n))
			batch := make([]sensor.Reading, batchLen)
			for j := range batch {
				batch[j] = sensor.Reading{Value: float64(i*batchLen + j), Time: stamp}
			}
			if err := c.Publish(topic, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for n := 0; n < topics; n++ {
			total += a.DB.Count(sensor.Topic(fmt.Sprintf("/fan/n%02d/power", n)))
		}
		if total == topics*batches*batchLen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d readings", total, topics*batches*batchLen)
		}
		time.Sleep(time.Millisecond)
	}
	for n := 0; n < topics; n++ {
		topic := sensor.Topic(fmt.Sprintf("/fan/n%02d/power", n))
		rs := a.DB.Range(topic, stamp, stamp, nil)
		if len(rs) != batches*batchLen {
			t.Fatalf("%s: %d readings", topic, len(rs))
		}
		for i := range rs {
			if rs[i].Value != float64(i) {
				t.Fatalf("%s: reading %d = %+v (arrival order broken)", topic, i, rs[i])
			}
		}
		if !a.Nav.HasSensor(topic) {
			t.Fatalf("%s missing from sensor tree", topic)
		}
	}
	// Close must stay idempotent.
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestIngestFanInDrainsOnClose publishes a burst and immediately closes
// the agent: Close must wait for the connection's serve loop to store
// what it routed before shutting the backend, so the agent loses
// nothing it accepted.
func TestIngestFanInDrainsOnClose(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{ListenMQTT: "127.0.0.1:0", StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c, err := transport.Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 200
	for i := 0; i < msgs; i++ {
		if err := c.Publish("/drain/power", []sensor.Reading{{Value: float64(i), Time: int64(i) * int64(time.Second)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the broker to have routed everything, then close
	// immediately: the last batches may still be inside the store call.
	deadline := time.Now().Add(5 * time.Second)
	for a.Broker.Published() < msgs {
		if time.Now().After(deadline) {
			t.Fatalf("routed %d of %d", a.Broker.Published(), msgs)
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	a2, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if got := a2.DB.Count("/drain/power"); got != msgs {
		t.Fatalf("recovered %d readings, want %d", got, msgs)
	}
}
