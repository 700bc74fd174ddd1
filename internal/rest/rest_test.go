package rest

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/tsdb"
)

// doubler is a trivial operator: output = 2 * latest input.
type doubler struct{ *core.Base }

func (d *doubler) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, _ *core.TickContext) ([]core.Output, error) {
	r, ok := qe.Latest(u.Inputs[0])
	if !ok {
		return nil, fmt.Errorf("no data for %s", u.Inputs[0])
	}
	return []core.Output{{Topic: u.Outputs[0], Reading: sensor.At(2*r.Value, now)}}, nil
}

func init() {
	core.RegisterPlugin("doubler", func(cfg json.RawMessage, qe *core.QueryEngine, env core.Env) ([]core.Operator, error) {
		var oc core.OperatorConfig
		if err := json.Unmarshal(cfg, &oc); err != nil {
			return nil, err
		}
		base, err := oc.Build("doubler", qe.Navigator())
		if err != nil {
			return nil, err
		}
		return []core.Operator{&doubler{Base: base}}, nil
	})
}

func newTestServer(t *testing.T) (*httptest.Server, *core.Manager) {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	for i := 0; i < 3; i++ {
		topic := sensor.Topic(fmt.Sprintf("/r1/n%d/power", i))
		if err := nav.AddSensor(topic); err != nil {
			t.Fatal(err)
		}
		c := caches.GetOrCreate(topic, 16, time.Second)
		for k := 0; k < 8; k++ {
			c.Store(sensor.Reading{Value: float64(100 + k), Time: int64(k) * int64(time.Second)})
		}
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	sink := core.NewCacheSink(caches, nav, 16, time.Second)
	m := core.NewManager(qe, sink, core.Env{})
	raw, _ := json.Marshal(core.OperatorConfig{
		Name:   "dbl",
		Mode:   "ondemand",
		Inputs: []string{"power"}, Outputs: []string{"<bottomup>power2x"},
	})
	if err := m.LoadPlugin("doubler", raw); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m, qe))
	t.Cleanup(srv.Close)
	return srv, m
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestPluginsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	var got struct {
		Plugins []string `json:"plugins"`
	}
	if code := getJSON(t, srv.URL+"/plugins", &got); code != 200 {
		t.Fatalf("status = %d", code)
	}
	found := false
	for _, p := range got.Plugins {
		if p == "doubler" {
			found = true
		}
	}
	if !found {
		t.Errorf("doubler not in %v", got.Plugins)
	}
}

func TestOperatorsAndUnits(t *testing.T) {
	srv, _ := newTestServer(t)
	var ops []core.OperatorStatus
	if code := getJSON(t, srv.URL+"/operators", &ops); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(ops) != 1 || ops[0].Name != "dbl" || ops[0].Units != 3 {
		t.Fatalf("operators = %+v", ops)
	}
	var us []struct {
		Name    string   `json:"name"`
		Inputs  []string `json:"inputs"`
		Outputs []string `json:"outputs"`
	}
	if code := getJSON(t, srv.URL+"/units?operator=dbl", &us); code != 200 {
		t.Fatal("units failed")
	}
	if len(us) != 3 || us[0].Name != "/r1/n0/" {
		t.Fatalf("units = %+v", us)
	}
	if code := getJSON(t, srv.URL+"/units?operator=ghost", nil); code != 404 {
		t.Errorf("unknown operator status = %d", code)
	}
}

func TestStatusEndpoint(t *testing.T) {
	srv, m := newTestServer(t)
	m.SetThreads(3)
	var got struct {
		Scheduler core.SchedulerStats   `json:"scheduler"`
		Operators []core.OperatorStatus `json:"operators"`
	}
	if code := getJSON(t, srv.URL+"/status", &got); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if got.Scheduler.Threads != 3 {
		t.Errorf("scheduler threads = %d, want 3", got.Scheduler.Threads)
	}
	if len(got.Operators) != 1 || got.Operators[0].Name != "dbl" {
		t.Fatalf("operators = %+v", got.Operators)
	}
}

func TestSensorsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	var got struct {
		Sensors []string `json:"sensors"`
		Count   int      `json:"count"`
	}
	if code := getJSON(t, srv.URL+"/sensors", &got); code != 200 || got.Count != 3 {
		t.Fatalf("sensors = %+v", got)
	}
	if code := getJSON(t, srv.URL+"/sensors?prefix=/r1/n1/", &got); code != 200 || got.Count != 1 {
		t.Fatalf("prefixed sensors = %+v", got)
	}
}

func TestAverageEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	var got struct {
		Average float64 `json:"average"`
	}
	code := getJSON(t, srv.URL+"/average?sensor=/r1/n0/power&window=3s", &got)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	want := (104.0 + 105 + 106 + 107) / 4
	if got.Average != want {
		t.Fatalf("average = %v, want %v", got.Average, want)
	}
	if code := getJSON(t, srv.URL+"/average?sensor=/none&window=3s", nil); code != 404 {
		t.Errorf("missing sensor status = %d", code)
	}
	if code := getJSON(t, srv.URL+"/average?sensor=/r1/n0/power&window=banana", nil); code != 400 {
		t.Errorf("bad window status = %d", code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	var got struct {
		Count    int `json:"count"`
		Readings []struct {
			Value float64 `json:"Value"`
		} `json:"readings"`
	}
	// Latest only.
	if code := getJSON(t, srv.URL+"/query?sensor=/r1/n0/power", &got); code != 200 || got.Count != 1 {
		t.Fatalf("latest query = %+v", got)
	}
	// Relative.
	if code := getJSON(t, srv.URL+"/query?sensor=/r1/n0/power&lookback=2s", &got); code != 200 || got.Count != 3 {
		t.Fatalf("relative query = %+v", got)
	}
	// Absolute.
	url := fmt.Sprintf("%s/query?sensor=/r1/n0/power&from=%d&to=%d",
		srv.URL, int64(time.Second), 3*int64(time.Second))
	if code := getJSON(t, url, &got); code != 200 || got.Count != 3 {
		t.Fatalf("absolute query = %+v", got)
	}
	if code := getJSON(t, srv.URL+"/query?sensor=/r1/n0/power&from=abc&to=1", nil); code != 400 {
		t.Error("bad from/to should 400")
	}
}

func TestComputeEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	var outs []struct {
		Topic string  `json:"topic"`
		Value float64 `json:"value"`
	}
	code := postJSON(t, srv.URL+"/compute?operator=dbl&unit=/r1/n1/", "", &outs)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(outs) != 1 || outs[0].Topic != "/r1/n1/power2x" || outs[0].Value != 214 {
		t.Fatalf("outs = %+v", outs)
	}
	// All units.
	code = postJSON(t, srv.URL+"/compute?operator=dbl", "", &outs)
	if code != 200 || len(outs) != 3 {
		t.Fatalf("all-units compute = %d outputs, status %d", len(outs), code)
	}
	if code := postJSON(t, srv.URL+"/compute?operator=ghost", "", nil); code != 404 {
		t.Errorf("unknown operator compute = %d", code)
	}
}

func TestStartStopEndpoints(t *testing.T) {
	srv, _ := newTestServer(t)
	if code := postJSON(t, srv.URL+"/operators/start?operator=dbl", "", nil); code != 200 {
		t.Errorf("start status = %d", code)
	}
	if code := postJSON(t, srv.URL+"/operators/stop?operator=dbl", "", nil); code != 200 {
		t.Errorf("stop status = %d", code)
	}
	if code := postJSON(t, srv.URL+"/operators/start?operator=ghost", "", nil); code != 404 {
		t.Errorf("unknown start status = %d", code)
	}
}

func TestLoadUnloadEndpoints(t *testing.T) {
	srv, m := newTestServer(t)
	cfg, _ := json.Marshal(core.OperatorConfig{
		Name: "dbl2", Mode: "ondemand",
		Inputs: []string{"power"}, Outputs: []string{"<bottomup>power4x"},
	})
	if code := postJSON(t, srv.URL+"/plugins/load?plugin=doubler", string(cfg), nil); code != 200 {
		t.Fatalf("load status = %d", code)
	}
	if _, ok := m.Operator("dbl2"); !ok {
		t.Fatal("dbl2 not loaded")
	}
	if code := postJSON(t, srv.URL+"/plugins/load?plugin=ghost", "{}", nil); code != 400 {
		t.Errorf("unknown plugin load = %d", code)
	}
	var got struct {
		Operators int `json:"operators"`
	}
	if code := postJSON(t, srv.URL+"/plugins/unload?plugin=doubler", "", &got); code != 200 {
		t.Fatal("unload failed")
	}
	if got.Operators != 2 {
		t.Errorf("unloaded %d operators, want 2", got.Operators)
	}
}

func TestServeAndClose(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	qe := core.NewQueryEngine(nav, caches, nil)
	m := core.NewManager(qe, core.SinkFunc(func(sensor.Topic, sensor.Reading) {}), core.Env{})
	s, err := Serve("127.0.0.1:0", m, qe)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/plugins")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStorageEndpoint(t *testing.T) {
	// Cache-only host (no backend): kind "none".
	srv, _ := newTestServer(t)
	var none store.BackendStats
	if code := getJSON(t, srv.URL+"/storage", &none); code != http.StatusOK {
		t.Fatalf("GET /storage = %d", code)
	}
	if none.Kind != "none" {
		t.Fatalf("cache-only kind = %q", none.Kind)
	}

	// The reference backend.
	nav := navigator.New()
	caches := cache.NewSet()
	st := store.New()
	st.Insert("/a", sensor.Reading{Value: 1, Time: 1})
	st.Insert("/a", sensor.Reading{Value: 2, Time: 2})
	st.Insert("/b", sensor.Reading{Value: 3, Time: 3})
	qe := core.NewQueryEngine(nav, caches, st)
	m := core.NewManager(qe, core.NewCacheSink(caches, nav, 16, time.Second), core.Env{})
	memSrv := httptest.NewServer(NewHandler(m, qe))
	t.Cleanup(memSrv.Close)
	var mem store.BackendStats
	if code := getJSON(t, memSrv.URL+"/storage", &mem); code != http.StatusOK {
		t.Fatalf("GET /storage = %d", code)
	}
	if mem.Kind != "memory" || mem.Topics != 2 || mem.TotalReadings != 3 {
		t.Fatalf("memory stats = %+v", mem)
	}

	// Persistent backend: disk and WAL/segment accounting present.
	db, err := tsdb.Open(t.TempDir(), tsdb.Options{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < 50; i++ {
		db.Insert("/a", sensor.Reading{Value: float64(i), Time: int64(i)})
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Insert("/b", sensor.Reading{Value: 1, Time: 100})
	qe2 := core.NewQueryEngine(nav, caches, db)
	m2 := core.NewManager(qe2, core.NewCacheSink(caches, nav, 16, time.Second), core.Env{})
	dbSrv := httptest.NewServer(NewHandler(m2, qe2))
	t.Cleanup(dbSrv.Close)
	var ts store.BackendStats
	if code := getJSON(t, dbSrv.URL+"/storage", &ts); code != http.StatusOK {
		t.Fatalf("GET /storage = %d", code)
	}
	if ts.Kind != "tsdb" || ts.Topics != 2 || ts.TotalReadings != 51 {
		t.Fatalf("tsdb stats = %+v", ts)
	}
	if ts.Segments != 1 || ts.DiskBytes <= 0 || ts.WALFiles == 0 || ts.HeadReadings != 1 {
		t.Fatalf("tsdb accounting = %+v", ts)
	}
}

// newAggTestServer serves a query engine whose only data source is a
// persistent tsdb backend (no caches cover the sensors), so /query
// aggregation exercises the full streaming path down to the segment
// pre-aggregates.
func newAggTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	db, err := tsdb.Open(t.TempDir(), tsdb.Options{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	fill := func(topic sensor.Topic, base float64, slope float64) {
		if err := nav.AddSensor(topic); err != nil {
			t.Fatal(err)
		}
		rs := make([]sensor.Reading, 10)
		for i := range rs {
			rs[i] = sensor.Reading{Value: base + slope*float64(i), Time: int64(i) * int64(time.Second)}
		}
		db.InsertBatch(topic, rs)
	}
	fill("/r1/n0/power", 10, 1)
	fill("/r1/n1/power", 20, 2)
	fill("/r2/n0/power", 5, 0)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	qe := core.NewQueryEngine(nav, caches, db)
	m := core.NewManager(qe, core.NewCacheSink(caches, nav, 16, time.Second), core.Env{})
	t.Cleanup(func() { m.Close() })
	srv := httptest.NewServer(NewHandler(m, qe))
	t.Cleanup(srv.Close)
	return srv
}

// TestQueryAggregateGolden locks the /query aggregation response shape:
// exact bodies for the wildcard fan-out, the bucketed downsampling and
// the relative-window forms.
func TestQueryAggregateGolden(t *testing.T) {
	srv := newAggTestServer(t)
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, sb.String()
	}
	for _, tc := range []struct {
		name, path, want string
	}{
		{
			name: "wildcard_avg",
			path: "/query?op=avg&sensor=/r1/%23&start=0&end=9000000000",
			want: `{"op":"avg","start":0,"end":9000000000,"sensors":[{"sensor":"/r1/n0/power","count":10,"value":14.5},{"sensor":"/r1/n1/power","count":10,"value":29}],"combined":{"sensor":"","count":20,"value":21.75}}` + "\n",
		},
		{
			name: "downsample_max",
			path: "/query?op=max&sensor=/r1/n0/power&start=0&end=9000000000&step=5s",
			want: `{"op":"max","start":0,"end":9000000000,"step":"5s","sensors":[{"sensor":"/r1/n0/power","count":10,"buckets":[{"start":0,"count":5,"value":14},{"start":5000000000,"count":5,"value":19}]}],"combined":{"sensor":"","count":10,"value":19}}` + "\n",
		},
		{
			name: "lookback_count",
			path: "/query?op=count&sensor=/r1/n0/power&lookback=5s",
			want: `{"op":"count","lookback":"5s","sensors":[{"sensor":"/r1/n0/power","count":6,"value":6}],"combined":{"sensor":"","count":6,"value":6}}` + "\n",
		},
		{
			name: "sum_from_to_aliases",
			path: "/query?op=sum&sensor=/r2/n0/power&from=0&to=2000000000",
			want: `{"op":"sum","start":0,"end":2000000000,"sensors":[{"sensor":"/r2/n0/power","count":3,"value":15}],"combined":{"sensor":"","count":3,"value":15}}` + "\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body := get(tc.path)
			if code != 200 {
				t.Fatalf("status = %d, body %s", code, body)
			}
			if body != tc.want {
				t.Fatalf("GET %s\n got: %swant: %s", tc.path, body, tc.want)
			}
		})
	}
}

// TestQueryAggregateErrors covers the request-validation surface of the
// aggregation form.
func TestQueryAggregateErrors(t *testing.T) {
	srv := newAggTestServer(t)
	for _, tc := range []struct{ name, path string }{
		{"unknown_op", "/query?op=median&sensor=/r1/n0/power&start=0&end=1"},
		{"missing_window", "/query?op=avg&sensor=/r1/n0/power"},
		{"step_with_lookback", "/query?op=avg&sensor=/r1/n0/power&lookback=10s&step=1s"},
		{"no_wildcard_match", "/query?op=avg&sensor=/r9/%23&start=0&end=1"},
		{"missing_sensor", "/query?op=avg&start=0&end=1"},
		{"too_many_buckets", "/query?op=avg&sensor=/r1/n0/power&start=0&end=9000000000000&step=1ms"},
		{"negative_step", "/query?op=avg&sensor=/r1/n0/power&start=0&end=1&step=-5s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code := getJSON(t, srv.URL+tc.path, nil); code != http.StatusBadRequest {
				t.Fatalf("GET %s: status = %d, want 400", tc.path, code)
			}
		})
	}
}
