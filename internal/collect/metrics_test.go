package collect

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	_ "github.com/dcdb/wintermute/internal/plugins/aggregator"
	"github.com/dcdb/wintermute/internal/rest"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
)

// TestAgentMetricsRegistered wires an instrumented agent end to end:
// a batch published over TCP must show up in all three ingest series
// (batches, readings, batch-size histogram) and the storage gauges must
// reflect the backend after a scrape.
func TestAgentMetricsRegistered(t *testing.T) {
	reg := telemetry.NewRegistry()
	a, err := New(Config{
		ListenMQTT: "127.0.0.1:0",
		StoreDir:   t.TempDir(),
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// A spooling client: Close returns once the batch is acked, and the
	// ack is sent after the handler stored and counted it.
	c, err := transport.DialOptions(a.Addr(), transport.Options{SpoolBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	batch := []sensor.Reading{{Value: 1, Time: 1}, {Value: 2, Time: 2}, {Value: 3, Time: 3}}
	if err := c.Publish("/rx/n1/temp", batch); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := a.DB.Count("/rx/n1/temp"); n != 3 {
		t.Fatalf("store count = %d after the ack, want 3", n)
	}

	for name, want := range map[string]float64{
		"dcdb_ingest_batches_total":   1,
		"dcdb_ingest_readings_total":  3,
		"dcdb_ingest_batch_readings":  1, // a histogram's Value is its observation count
		"dcdb_broker_readings_total":  3,
		"dcdb_tsdb_wal_appends_total": 1,
	} {
		if v, ok := reg.Value(name); !ok || v != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, v, ok, want)
		}
	}
	reg.Snapshot(func(s *telemetry.Sample) {
		if s.Name == "dcdb_ingest_batch_readings" && s.Sum != 3 {
			t.Errorf("dcdb_ingest_batch_readings sum = %v, want 3", s.Sum)
		}
	})
	// Frame count includes the connection handshake; at least the
	// publish frame plus something must have arrived.
	if v, ok := reg.Value("dcdb_broker_frames_total"); !ok || v < 1 {
		t.Errorf("dcdb_broker_frames_total = %v (ok=%v), want >= 1", v, ok)
	}
	// The storage gauges fill on a snapshot (their updater runs then).
	reg.Snapshot(func(*telemetry.Sample) {})
	if v, ok := reg.Value("dcdb_storage_readings"); !ok || v != 3 {
		t.Errorf("dcdb_storage_readings = %v (ok=%v), want 3", v, ok)
	}
}

// TestSelfMonitorRoundTrip is the monitor-monitoring-itself loop: the
// registry republishes into the agent's own sensor pipeline, and the
// resulting /telemetry/# topics answer GET /query like any sensor.
func TestSelfMonitorRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	a, err := New(Config{
		StoreDir:         t.TempDir(),
		Metrics:          reg,
		SelfMonitorEvery: time.Hour, // loop armed but driven manually
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.SelfMon == nil {
		t.Fatal("self-monitor not created")
	}

	// Feed some data so the ingest counters are non-zero, then publish
	// one telemetry pass into the sink.
	rs := make([]sensor.Reading, 5)
	for i := range rs {
		rs[i] = sensor.Reading{Value: float64(i), Time: int64(i)}
	}
	a.IngestBatch("/r1/n1/power", rs)
	a.SelfMon.PublishOnce(time.Now())

	// The registry's own series are now sensors: in the tree, the cache
	// and the store.
	topic := sensor.Topic("/telemetry/dcdb_storage_readings")
	if !a.Nav.HasSensor(topic) {
		t.Fatalf("self-monitor topic %s not in sensor tree; have %v", topic, a.Nav.AllSensors())
	}
	latest, ok := a.QE.Latest(topic)
	if !ok {
		t.Fatalf("no reading for %s", topic)
	}
	if latest.Value != 5 {
		t.Fatalf("%s = %v, want 5 (the readings stored before the pass)", topic, latest.Value)
	}

	// Round-trip through the serving tier: GET /query over the wildcard.
	srv := httptest.NewServer(rest.NewHandler(a.Manager, a.QE, rest.Options{Metrics: reg}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?sensor=/telemetry/%23&op=count&lookback=1h")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Sensors []struct {
			Sensor sensor.Topic `json:"sensor"`
			Count  int64        `json:"count"`
		} `json:"sensors"`
		Combined struct {
			Count int64 `json:"count"`
		} `json:"combined"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.Combined.Count == 0 {
		t.Fatalf("wildcard query over /telemetry/#: status %d, combined %+v", resp.StatusCode, out.Combined)
	}
	found := false
	for _, s := range out.Sensors {
		if strings.HasPrefix(string(s.Sensor), "/telemetry/dcdb_") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no dcdb_ series among %d fanned-out telemetry sensors", len(out.Sensors))
	}

	// A second pass keeps publishing into the same series (no duplicate
	// sensor registration, newer timestamps win).
	a.SelfMon.PublishOnce(time.Now().Add(time.Second))
	if n := a.DB.Count(topic); n < 2 {
		t.Fatalf("expected repeated publishes to accumulate, count = %d", n)
	}
}

// TestSelfMonitorPassIsOneBurst: a self-monitoring pass reaches the
// store as one burst — one WAL commit for every series of the pass, not
// one per series — and every series it cached is listed by the backend.
func TestSelfMonitorPassIsOneBurst(t *testing.T) {
	reg := telemetry.NewRegistry()
	a, err := New(Config{
		StoreDir:         t.TempDir(),
		Metrics:          reg,
		SelfMonitorEvery: time.Hour, // loop armed but driven manually
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.IngestBatch("/r1/n1/power", []sensor.Reading{{Value: 1, Time: 1}, {Value: 2, Time: 2}})

	before, _ := reg.Value("dcdb_tsdb_wal_commits_total")
	a.SelfMon.PublishOnce(time.Now())
	after, _ := reg.Value("dcdb_tsdb_wal_commits_total")
	if after-before != 1 {
		t.Errorf("one self-monitoring pass took %v WAL commits, want 1", after-before)
	}

	listed := map[sensor.Topic]bool{}
	for _, tp := range a.DB.TopicsPrefix("/telemetry") {
		listed[tp] = true
	}
	published := 0
	for _, tp := range a.Caches.Topics() {
		if !tp.HasPrefix("/telemetry") {
			continue
		}
		published++
		if !listed[tp] {
			t.Errorf("%s is cached but not listed by TopicsPrefix(/telemetry)", tp)
		}
	}
	if published == 0 || published != len(listed) {
		t.Errorf("pass cached %d /telemetry topics, the backend lists %d", published, len(listed))
	}
}

// TestTickIsOneBurstPerOperator: an operator tick reaches the store as
// one burst — one WAL commit per operator per tick, not one per unit —
// on the sequential and on the parallel path alike.
func TestTickIsOneBurstPerOperator(t *testing.T) {
	reg := telemetry.NewRegistry()
	a, err := New(Config{StoreDir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Manager.SetThreads(2)
	const nodes = 64
	for n := 0; n < nodes; n++ {
		a.IngestBatch(sensor.Topic(fmt.Sprintf("/r1/n%02d/power", n)),
			[]sensor.Reading{{Value: 1, Time: int64(time.Second)}, {Value: 3, Time: 2 * int64(time.Second)}})
	}
	for _, cfg := range []string{
		`{"name": "seq", "operation": "mean", "windowMs": 60000, "inputs": ["power"], "outputs": ["<bottomup>power-mean"]}`,
		`{"name": "par", "operation": "max", "windowMs": 60000, "parallel": true, "inputs": ["power"], "outputs": ["<bottomup>power-max"]}`,
	} {
		if err := a.Manager.LoadPlugin("aggregator", json.RawMessage(cfg)); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range a.Manager.Operators() {
		if n := len(op.Units()); n != nodes {
			t.Fatalf("operator %s has %d units, want %d", op.Name(), n, nodes)
		}
	}

	before, _ := reg.Value("dcdb_tsdb_wal_commits_total")
	if err := a.TickOnce(time.Unix(2, 0)); err != nil {
		t.Fatal(err)
	}
	after, _ := reg.Value("dcdb_tsdb_wal_commits_total")
	if after-before != 2 {
		t.Errorf("one tick of two %d-unit operators took %v WAL commits, want 2", nodes, after-before)
	}
	for n := 0; n < nodes; n++ {
		node := fmt.Sprintf("/r1/n%02d/", n)
		if c := a.DB.Count(sensor.Topic(node + "power-mean")); c != 1 {
			t.Fatalf("%spower-mean stored %d readings, want 1", node, c)
		}
		if c := a.DB.Count(sensor.Topic(node + "power-max")); c != 1 {
			t.Fatalf("%spower-max stored %d readings, want 1", node, c)
		}
	}
}

// TestAgentNilRegistryInert pins the no-telemetry path: a nil registry
// wires nothing, and closing the agent twice stays safe.
func TestAgentNilRegistryInert(t *testing.T) {
	a, err := New(Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if a.SelfMon != nil {
		t.Fatal("self-monitor must need an explicit interval and registry")
	}
	a.IngestBatch("/s", []sensor.Reading{{Value: 1, Time: 1}})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}
