// Package integration exercises the whole stack end to end: simulated
// hardware sampled by Pushers, readings forwarded over the MQTT-style
// transport into a Collect Agent's storage backend, Wintermute operators
// running on both sides of the pipeline (paper §IV-d), and the RESTful
// API observing the results.
package integration

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/collect"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/plugins/aggregator"
	_ "github.com/dcdb/wintermute/internal/plugins/all"
	"github.com/dcdb/wintermute/internal/plugins/health"
	"github.com/dcdb/wintermute/internal/pusher"
	"github.com/dcdb/wintermute/internal/rest"
	"github.com/dcdb/wintermute/internal/samplers"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/hardware"
	"github.com/dcdb/wintermute/internal/sim/workload"
	"github.com/dcdb/wintermute/internal/transport"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFullPipelineAcrossComponents(t *testing.T) {
	// Collect Agent with broker and storage backend.
	agent, err := collect.New(collect.Config{ListenMQTT: "127.0.0.1:0", StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	// Two Pushers, one node each: n01 runs HPL (hot), n02 idles (cool).
	apps := []string{"hpl", "idle"}
	var pushers []*pusher.Pusher
	for i, app := range apps {
		p, err := pusher.New(pusher.Config{
			Name:     fmt.Sprintf("p%d", i),
			MQTTAddr: agent.Addr(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		node := hardware.NewNode(hardware.Config{Cores: 4, Seed: int64(i + 1)})
		node.SetApp(workload.MustNew(app, int64(i), 3600), 0)
		path := sensor.Topic(fmt.Sprintf("/r01/c01/s%02d/", i+1))
		if err := p.AddSampler(samplers.NewPowerSim(node, path, time.Second)); err != nil {
			t.Fatal(err)
		}
		// Pusher-side Wintermute stage 1: smoothed node power.
		raw, _ := json.Marshal(aggregator.Config{
			OperatorConfig: core.OperatorConfig{
				Name:    "smooth" + fmt.Sprint(i),
				Inputs:  []string{"power"},
				Outputs: []string{"power-avg"},
				Unit:    string(path),
			},
			Operation: aggregator.Mean,
			WindowMs:  10000,
		})
		if err := p.Manager.LoadPlugin("aggregator", raw); err != nil {
			t.Fatal(err)
		}
		pushers = append(pushers, p)
	}

	// Drive 120 simulated seconds on both pushers: sample then compute.
	// Operator outputs flow through the same sink and thus also reach the
	// Collect Agent over MQTT.
	for ts := 0; ts < 120; ts++ {
		now := time.Unix(int64(ts), 0)
		for _, p := range pushers {
			p.SampleOnce(now)
			if ts >= 3 {
				if err := p.TickOnce(now); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// All raw and derived sensors must arrive in the agent's store.
	waitFor(t, "store ingestion", func() bool {
		return agent.DB.Count("/r01/c01/s01/power") >= 100 &&
			agent.DB.Count("/r01/c01/s02/power") >= 100 &&
			agent.DB.Count("/r01/c01/s01/power-avg") >= 100
	})

	// The pipeline's numbers are physical: HPL node hot, idle node cool.
	hot, _ := agent.QE.Latest("/r01/c01/s01/power-avg")
	cool, _ := agent.QE.Latest("/r01/c01/s02/power-avg")
	if hot.Value < 150 || cool.Value > 120 {
		t.Fatalf("pipeline values wrong: hpl %v W, idle %v W", hot.Value, cool.Value)
	}

	// Collect-side Wintermute stage 2: health grading on the smoothed
	// power produced by stage 1 in a different process component.
	raw, _ := json.Marshal(health.Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "power-health",
			Inputs:  []string{"<bottomup>power-avg"},
			Outputs: []string{"<bottomup>power-health"},
		},
		WarnAbove:    150,
		CritAbove:    400,
		StaleAfterMs: 1 << 30,
	})
	if err := agent.Manager.LoadPlugin("health", raw); err != nil {
		t.Fatal(err)
	}
	op, _ := agent.Manager.Operator("power-health")
	if len(op.Units()) != 2 {
		t.Fatalf("collect-side units = %d, want one per node", len(op.Units()))
	}
	if err := agent.TickOnce(time.Unix(121, 0)); err != nil {
		t.Fatal(err)
	}
	h1, ok1 := agent.QE.Latest("/r01/c01/s01/power-health")
	h2, ok2 := agent.QE.Latest("/r01/c01/s02/power-health")
	if !ok1 || !ok2 {
		t.Fatal("health outputs missing")
	}
	if h1.Value != health.StatusWarning || h2.Value != health.StatusOK {
		t.Fatalf("health grades = %v/%v, want warning/ok", h1.Value, h2.Value)
	}

	// REST on the Collect Agent observes everything.
	srv, err := rest.Serve("127.0.0.1:0", agent.Manager, agent.QE)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/average?sensor=/r01/c01/s01/power&window=60s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var avg struct {
		Average float64 `json:"average"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&avg); err != nil {
		t.Fatal(err)
	}
	if avg.Average < 150 {
		t.Fatalf("REST average = %v, want loaded node power", avg.Average)
	}
}

func TestOnDemandAcrossREST(t *testing.T) {
	agent, err := collect.New(collect.Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	for i := 0; i < 60; i++ {
		agent.IngestBatch("/r1/n1/temp", []sensor.Reading{{Value: 40 + float64(i%5), Time: int64(i) * int64(time.Second)}})
	}
	raw, _ := json.Marshal(aggregator.Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "od-avg",
			Mode:    "ondemand",
			Inputs:  []string{"temp"},
			Outputs: []string{"temp-avg"},
			Unit:    "/r1/n1/",
		},
		Operation: aggregator.Mean,
		WindowMs:  60000,
	})
	if err := agent.Manager.LoadPlugin("aggregator", raw); err != nil {
		t.Fatal(err)
	}
	srv, err := rest.Serve("127.0.0.1:0", agent.Manager, agent.QE)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Post("http://"+srv.Addr()+"/compute?operator=od-avg&unit=/r1/n1/", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var outs []struct {
		Topic string  `json:"topic"`
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&outs); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Topic != "/r1/n1/temp-avg" {
		t.Fatalf("on-demand outs = %+v", outs)
	}
	if outs[0].Value < 40 || outs[0].Value > 45 {
		t.Fatalf("on-demand average = %v", outs[0].Value)
	}
	// On-demand output must NOT have been persisted as a sensor.
	if _, ok := agent.QE.Latest("/r1/n1/temp-avg"); ok {
		t.Fatal("on-demand output leaked into the data path")
	}
}

// TestPersistentAgentRESTIdenticalAfterKill runs the PR3 acceptance
// shape end to end: a Collect Agent on a persistent backend ingests over
// MQTT-style transport, REST answers are snapshotted, the agent is
// killed without Close, and a recovered agent must serve byte-identical
// REST /query responses.
func TestPersistentAgentRESTIdenticalAfterKill(t *testing.T) {
	dir := t.TempDir()
	agent, err := collect.New(collect.Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	topics := []sensor.Topic{"/r01/n01/power", "/r01/n02/power", "/r02/n01/temp"}
	for ti, tp := range topics {
		rs := make([]sensor.Reading, 500)
		for i := range rs {
			rs[i] = sensor.Reading{
				Value: float64(200 + ti*50 + i%13),
				Time:  int64(i) * int64(time.Second),
			}
		}
		agent.IngestBatch(tp, rs)
	}
	// One flush mid-life so both segments and the WAL feed recovery.
	if err := agent.DB.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tp := range topics {
		agent.IngestBatch(tp, []sensor.Reading{{Value: 9999, Time: 1000 * int64(time.Second)}})
	}

	queryURL := func(addr string, tp sensor.Topic) string {
		return fmt.Sprintf("http://%s/query?sensor=%s&from=0&to=%d",
			addr, tp, 2000*int64(time.Second))
	}
	fetch := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	srv, err := rest.Serve("127.0.0.1:0", agent.Manager, agent.QE)
	if err != nil {
		t.Fatal(err)
	}
	before := map[sensor.Topic]string{}
	for _, tp := range topics {
		before[tp] = fetch(queryURL(srv.Addr(), tp))
	}
	srv.Close()
	// Kill: no Agent.Close, heads unflushed; Abandon drops the storage
	// directory lock the way process death would.
	agent.Manager.Close()
	agent.DB.Abandon()

	agent2, err := collect.New(collect.Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer agent2.Close()
	srv2, err := rest.Serve("127.0.0.1:0", agent2.Manager, agent2.QE)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for _, tp := range topics {
		if got := fetch(queryURL(srv2.Addr(), tp)); got != before[tp] {
			t.Fatalf("%s: REST /query diverged after crash recovery\nbefore: %.120s\nafter:  %.120s",
				tp, before[tp], got)
		}
	}
	// The recovered agent keeps ingesting and reports a sane /storage.
	var stats struct {
		Kind          string `json:"kind"`
		TotalReadings int    `json:"total_readings"`
	}
	resp, err := http.Get("http://" + srv2.Addr() + "/storage")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Kind != "tsdb" || stats.TotalReadings != 3*501 {
		t.Fatalf("/storage after recovery = %+v", stats)
	}
}

// TestAgentConfigOnEmptyStore starts a Collect Agent on an empty store
// directory with a pattern-based -config file, as `collectagent
// -store-dir <empty> -config` does: the aggregator loads with no unit,
// and its rack sum appears on GET /query once two nodes have published.
func TestAgentConfigOnEmptyStore(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "wintermute.json")
	cfg := `{"plugins": [{"plugin": "aggregator", "config": {"name": "rack-power", "operation": "sum",
		"windowMs": 60000, "intervalMs": 20, "inputs": ["<bottomup>power"], "outputs": ["<bottomup-1>power-sum"]}}]}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	agent, err := collect.New(collect.Config{ListenMQTT: "127.0.0.1:0", StoreDir: filepath.Join(dir, "store")})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := agent.Manager.LoadConfigFile(cfgPath); err != nil {
		t.Fatalf("-config on an empty store: %v", err)
	}
	agent.Start()
	srv, err := rest.Serve("127.0.0.1:0", agent.Manager, agent.QE)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var ops []core.OperatorStatus
	getJSON(t, "http://"+srv.Addr()+"/operators", &ops)
	if len(ops) != 1 || ops[0].Units != 0 {
		t.Fatalf("/operators = %+v, want rack-power with 0 units", ops)
	}
	var us json.RawMessage
	getJSON(t, "http://"+srv.Addr()+"/units?operator=rack-power", &us)
	if string(us) != "[]" {
		t.Errorf("/units of an operator with 0 units = %s, want []", us)
	}
	for i, node := range []string{"/r01/n01", "/r01/n02"} {
		c, err := transport.Dial(agent.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Publish(sensor.Topic(node+"/power"), []sensor.Reading{sensor.At(float64(100*(i+1)), time.Now())}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "/r01/power-sum = 300 on GET /query", func() bool {
		var got struct {
			Readings []struct {
				Value float64 `json:"value"`
			} `json:"readings"`
		}
		getJSON(t, "http://"+srv.Addr()+"/query?sensor=/r01/power-sum", &got)
		return len(got.Readings) == 1 && got.Readings[0].Value == 300
	})
}

// getJSON decodes the JSON body of a GET of url into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}
