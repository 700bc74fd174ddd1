package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/resultcache"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/tsdb"
)

// syncBuffer is a goroutine-safe log sink: the slow-query Record runs
// after the handler body, so the client can observe the response before
// the log line lands.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newTelemetryServer builds a fully instrumented serving stack: tsdb
// backend, result cache, manager telemetry and the REST metrics, all
// registered into one private registry.
func newTelemetryServer(t *testing.T, opts Options) (*httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	opts.Metrics = reg

	nav := navigator.New()
	caches := cache.NewSet()
	db, err := tsdb.Open(t.TempDir(), tsdb.Options{FlushEvery: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, topic := range []sensor.Topic{"/r1/n0/power", "/r1/n1/power"} {
		if err := nav.AddSensor(topic); err != nil {
			t.Fatal(err)
		}
		rs := make([]sensor.Reading, 20)
		for i := range rs {
			rs[i] = sensor.Reading{Value: float64(i), Time: int64(i) * int64(time.Second)}
		}
		db.InsertBatch(topic, rs)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	rc := resultcache.New(64, 0)
	opts.ResultCache = rc
	for _, h := range rc.RegisterMetrics(reg) {
		t.Cleanup(h.Close)
	}
	for _, h := range store.RegisterBackendMetrics(reg, db) {
		t.Cleanup(h.Close)
	}

	qe := core.NewQueryEngine(nav, caches, db)
	m := core.NewManager(qe, core.NewCacheSink(caches, nav, 16, time.Second), core.Env{})
	m.EnableTelemetry(reg)
	t.Cleanup(func() { m.Close() })

	srv := httptest.NewServer(NewHandler(m, qe, opts))
	t.Cleanup(srv.Close)
	return srv, reg
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestMetricsEndpoint locks the coverage the issue demands: one scrape
// shows the broker-facing ingest engine (tsdb WAL/flush), the result
// cache, the storage backend, the scheduler and the REST tier itself.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTelemetryServer(t, Options{})

	// Generate traffic so the request series have non-zero children: a
	// cache miss, then a hit on the same window.
	q := srv.URL + "/query?sensor=/r1/%23&op=avg&start=0&end=" + fmt.Sprint(int64(19*time.Second))
	for i := 0; i < 2; i++ {
		if resp, _ := get(t, q); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /query = %d", resp.StatusCode)
		}
	}

	resp, body := get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		`dcdb_http_requests_total{route="/query"} 2`,
		`dcdb_http_request_seconds_bucket{route="/query",le="+Inf"} 2`,
		`dcdb_http_responses_total{class="2xx"} 2`,
		"dcdb_http_inflight_requests 0",
		"dcdb_resultcache_hits_total 1",
		"dcdb_resultcache_misses_total 1",
		"dcdb_tsdb_wal_appends_total 2",
		"dcdb_tsdb_flushes_total 1",
		"dcdb_storage_readings 40",
		"dcdb_storage_segments 1",
		"dcdb_scheduler_threads",
		"# TYPE dcdb_tsdb_wal_cohort_records histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestTraceHeaderAndSlowQueryLog checks that every instrumented request
// returns an X-Trace-Id and that requests over threshold emit one JSON
// log line naming the route, op, sensor, cache verdict and fan-out
// under the same trace ID.
func TestTraceHeaderAndSlowQueryLog(t *testing.T) {
	var logBuf syncBuffer
	srv, _ := newTelemetryServer(t, Options{
		SlowQuery:    time.Nanosecond, // everything is slow
		SlowQueryOut: &logBuf,
	})

	q := srv.URL + "/query?sensor=/r1/%23&op=max&start=0&end=" + fmt.Sprint(int64(19*time.Second))
	resp, _ := get(t, q)
	trace := resp.Header.Get("X-Trace-Id")
	if !regexp.MustCompile(`^t-[0-9a-f]{8}$`).MatchString(trace) {
		t.Fatalf("X-Trace-Id = %q", trace)
	}

	// Record runs after the handler body; poll briefly for the line.
	deadline := time.Now().Add(2 * time.Second)
	var line string
	for time.Now().Before(deadline) {
		if s := logBuf.String(); strings.Contains(s, trace) {
			line = s
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if line == "" {
		t.Fatalf("no slow-query line for trace %s; log: %q", trace, logBuf.String())
	}
	var e telemetry.SlowQueryEntry
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &e); err != nil {
		t.Fatalf("unmarshal log line: %v", err)
	}
	if e.Trace != trace || e.Route != "/query" || e.Status != http.StatusOK {
		t.Fatalf("entry = %+v", e)
	}
	if e.Op != "max" || e.Sensor != "/r1/#" || e.Cache != "miss" || e.Fanout != 2 {
		t.Fatalf("query annotations = %+v", e)
	}

	// A raw absolute range cannot be answered from chunk pre-aggregates:
	// its entry must attribute decoded chunks.
	resp, _ = get(t, srv.URL+"/query?sensor=/r1/n0/power&from=0&to="+fmt.Sprint(int64(19*time.Second)))
	rangeTrace := resp.Header.Get("X-Trace-Id")
	deadline = time.Now().Add(2 * time.Second)
	var rangeLine string
	for time.Now().Before(deadline) {
		for _, l := range strings.Split(logBuf.String(), "\n") {
			if strings.Contains(l, rangeTrace) {
				rangeLine = l
			}
		}
		if rangeLine != "" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rangeLine == "" {
		t.Fatalf("no slow-query line for trace %s", rangeTrace)
	}
	var re telemetry.SlowQueryEntry
	if err := json.Unmarshal([]byte(rangeLine), &re); err != nil {
		t.Fatal(err)
	}
	if re.Op != "range" || re.Sensor != "/r1/n0/power" || re.Cache != "miss" {
		t.Fatalf("range annotations = %+v", re)
	}
	if re.ChunksDecoded == 0 {
		t.Fatalf("expected chunk decodes attributed to a segment-backed range query: %+v", re)
	}
}

// TestStatusStorageConsistentWithMetrics cross-checks /status (the
// manager's SchedulerStats) and /storage (the backend's own Stats)
// against a /metrics scrape: on a quiet system they must agree.
func TestStatusStorageConsistentWithMetrics(t *testing.T) {
	srv, reg := newTelemetryServer(t, Options{})

	var status struct {
		Scheduler core.SchedulerStats `json:"scheduler"`
	}
	resp, body := get(t, srv.URL+"/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	threads, ok := reg.Value("dcdb_scheduler_threads")
	if !ok {
		t.Fatal("scheduler series not registered")
	}
	if status.Scheduler.Threads != int(threads) {
		t.Fatalf("/status threads %d != metrics %v", status.Scheduler.Threads, threads)
	}

	var st store.BackendStats
	resp, body = get(t, srv.URL+"/storage")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /storage = %d", resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Kind != "tsdb" || st.TotalReadings != 40 {
		t.Fatalf("/storage = %+v", st)
	}
	reg.Snapshot(func(*telemetry.Sample) {}) // a scrape: runs the storage updater
	readings, ok := reg.Value("dcdb_storage_readings")
	if !ok || int(readings) != st.TotalReadings {
		t.Fatalf("/storage readings %d != metrics %v (ok=%v)", st.TotalReadings, readings, ok)
	}
}

// TestThrottledCounter counts limiter rejections into
// dcdb_http_throttled_total.
func TestThrottledCounter(t *testing.T) {
	srv, reg := newTelemetryServer(t, Options{RateLimit: 0.001, RateBurst: 1})
	codes := []int{}
	for i := 0; i < 3; i++ {
		resp, _ := get(t, srv.URL+"/sensors")
		codes = append(codes, resp.StatusCode)
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusTooManyRequests {
		t.Fatalf("codes = %v", codes)
	}
	v, ok := reg.Value("dcdb_http_throttled_total")
	if !ok || v != 2 {
		t.Fatalf("throttled = %v (ok=%v), want 2", v, ok)
	}
}

// TestZeroOptionsUninstrumented pins the compatibility contract: with
// no registry and no slow-query threshold the handler tree has no
// /metrics route and adds no trace header.
func TestZeroOptionsUninstrumented(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, _ := get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics on zero-options handler = %d", resp.StatusCode)
	}
	resp, _ = get(t, srv.URL+"/status")
	if h := resp.Header.Get("X-Trace-Id"); h != "" {
		t.Fatalf("unexpected X-Trace-Id %q on un-instrumented handler", h)
	}
}

// TestDebugServer boots the diagnostics endpoint and checks pprof and
// the metrics rendition answer on it.
func TestDebugServer(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("dcdb_test_total", "Test counter.").Inc()
	dbg, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dbg.Close() })

	resp, body := get(t, "http://"+dbg.Addr()+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
	resp, body = get(t, "http://"+dbg.Addr()+"/metrics")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "dcdb_test_total 1") {
		t.Fatalf("debug /metrics: status %d body %q", resp.StatusCode, body)
	}
}
