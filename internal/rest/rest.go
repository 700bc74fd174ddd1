// Package rest implements the RESTful control and query API that DCDB
// exposes on every component (paper §IV-A, §V-A): plugin and operator
// introspection, operator life-cycle control, on-demand computation
// triggers, sensor discovery and cache/store queries.
package rest

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/resultcache"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// API wraps a Wintermute manager and query engine with HTTP handlers.
type API struct {
	m    *core.Manager
	qe   *core.QueryEngine
	rc   *resultcache.Cache
	reg  *telemetry.Registry
	mx   *restMetrics
	slow *telemetry.SlowQueryLog
}

// Options tunes the serving tier of one API instance. The zero value —
// and calling NewHandler/Serve without options — serves every request
// uncached and unthrottled, exactly as before.
type Options struct {
	// ResultCache memoizes absolute-window /query responses (aggregates,
	// downsamples, raw ranges) with write-through invalidation; nil
	// disables memoization.
	ResultCache *resultcache.Cache
	// RateLimit is the sustained per-client request budget in requests
	// per second; over-budget requests receive 429 with a Retry-After
	// hint. 0 disables limiting.
	RateLimit float64
	// RateBurst is the token-bucket depth per client (how many requests
	// may arrive back-to-back before the sustained rate applies).
	// 0 derives 2×RateLimit, minimum 1.
	RateBurst int
	// Metrics instruments the serving tier into the given registry
	// (per-route request counters and latency histograms, in-flight
	// gauge, response classes, 429s) and exposes GET /metrics with the
	// registry's Prometheus rendition. nil leaves the API
	// un-instrumented and /metrics unrouted.
	Metrics *telemetry.Registry
	// SlowQuery enables the structured slow-query log: requests running
	// at or over this threshold emit one JSON line (trace ID, route,
	// status, duration, and the query annotations — op, sensor, cache
	// verdict, wildcard fan-out, chunks decoded). 0 disables it.
	SlowQuery time.Duration
	// SlowQueryOut receives the slow-query log lines; nil with SlowQuery
	// set defaults to os.Stderr.
	SlowQueryOut io.Writer
}

// NewHandler builds the HTTP handler tree for one DCDB component. At
// most one Options value applies; omitting it keeps the pre-hardening
// behavior.
func NewHandler(m *core.Manager, qe *core.QueryEngine, opts ...Options) http.Handler {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.SlowQuery > 0 && o.SlowQueryOut == nil {
		o.SlowQueryOut = os.Stderr
	}
	api := &API{
		m: m, qe: qe, rc: o.ResultCache,
		reg:  o.Metrics,
		mx:   newRESTMetrics(o.Metrics),
		slow: telemetry.NewSlowQueryLog(o.SlowQueryOut, o.SlowQuery),
	}
	if o.Metrics != nil && api.slow != nil {
		// The handle is never closed: the registry and the handler share
		// the process lifetime.
		slow := api.slow
		o.Metrics.CounterFunc("dcdb_http_slow_queries_total",
			"Requests logged by the slow-query log.",
			func() float64 { return float64(slow.Logged()) })
	}
	mux := http.NewServeMux()
	// Instrumentation wraps each route only when something observes it
	// (a registry or a slow-query log); the zero-Options handler tree is
	// byte-identical to the un-instrumented one.
	handle := func(pattern, route string, h http.HandlerFunc) {
		if o.Metrics != nil || api.slow != nil {
			h = api.instrumented(route, h)
		}
		mux.HandleFunc(pattern, h)
	}
	handle("GET /plugins", "/plugins", api.plugins)
	handle("GET /status", "/status", api.status)
	handle("GET /storage", "/storage", api.storage)
	handle("GET /operators", "/operators", api.operators)
	handle("GET /units", "/units", api.units)
	handle("GET /sensors", "/sensors", api.sensors)
	handle("GET /average", "/average", api.average)
	handle("GET /query", "/query", api.query)
	handle("POST /operators/start", "/operators/start", api.start)
	handle("POST /operators/stop", "/operators/stop", api.stop)
	handle("POST /compute", "/compute", api.compute)
	handle("POST /plugins/load", "/plugins/load", api.load)
	handle("POST /plugins/unload", "/plugins/unload", api.unload)
	if o.Metrics != nil {
		// /metrics itself stays un-instrumented: a scrape should not
		// perturb the request series it reads.
		mux.HandleFunc("GET /metrics", api.metrics)
	}
	var h http.Handler = mux
	if o.RateLimit > 0 {
		h = withRateLimit(newLimiter(o.RateLimit, o.RateBurst), h, api.mx.throttled)
	}
	return h
}

// Server is a running REST endpoint.
type Server struct {
	http net.Listener
	srv  *http.Server
}

// Serve starts the API on addr (e.g. "127.0.0.1:0").
func Serve(addr string, m *core.Manager, qe *core.QueryEngine, opts ...Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewHandler(m, qe, opts...)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{http: ln, srv: srv}, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.http.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (a *API) plugins(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"plugins": core.RegisteredPlugins()})
}

func (a *API) operators(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.m.Status())
}

// status reports the component's Wintermute health in one response: the
// tick scheduler's pool state plus every operator's snapshot, including
// per-operator last tick durations.
func (a *API) status(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"scheduler": a.m.SchedulerStats(),
		"operators": a.m.Status(),
	})
}

// storage reports the component's Storage Backend: its kind, series and
// reading counts and — for the persistent tsdb engine — the on-disk
// footprint and WAL/segment state. Cache-only components (Pushers)
// answer with kind "none".
func (a *API) storage(w http.ResponseWriter, r *http.Request) {
	backend := a.qe.Store()
	if backend == nil {
		writeJSON(w, http.StatusOK, store.BackendStats{Kind: "none"})
		return
	}
	writeJSON(w, http.StatusOK, backend.Stats())
}

func (a *API) units(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("operator")
	op, ok := a.m.Operator(name)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown operator %q", name))
		return
	}
	type unitJSON struct {
		Name    sensor.Topic   `json:"name"`
		Inputs  []sensor.Topic `json:"inputs"`
		Outputs []sensor.Topic `json:"outputs"`
	}
	us := op.Units()
	out := make([]unitJSON, 0, len(us)) // 0 units is a state: [] not null
	for _, u := range us {
		out = append(out, unitJSON{Name: u.Name, Inputs: u.Inputs, Outputs: u.Outputs})
	}
	writeJSON(w, http.StatusOK, out)
}

func (a *API) sensors(w http.ResponseWriter, r *http.Request) {
	nav := a.qe.Navigator()
	prefix := r.URL.Query().Get("prefix")
	var topics []sensor.Topic
	if prefix == "" {
		topics = nav.AllSensors()
	} else {
		topics = nav.SensorsBelow(sensor.Topic(prefix))
	}
	writeJSON(w, http.StatusOK, map[string]any{"sensors": topics, "count": len(topics)})
}

func (a *API) average(w http.ResponseWriter, r *http.Request) {
	topic := sensor.Topic(r.URL.Query().Get("sensor"))
	window, err := parseWindow(r.URL.Query().Get("window"), 60*time.Second)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	avg, ok := a.qe.AggregateRelative(topic, window).Value(store.AggAvg)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no data for %q", topic))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"sensor": topic, "window": window.String(), "average": avg})
}

// query serves GET /query. Without op it returns raw readings of one
// sensor (relative, absolute or latest mode). With op (avg, min, max,
// sum, count) it evaluates the aggregate over the requested window
// through the Query Engine's streaming aggregation path — adding
// step=<duration> buckets the window into a downsampled series — and
// the sensor parameter may end in the '#' multi-level wildcard
// (e.g. /rack0/#) to fan the aggregation out over every sensor below
// that prefix.
func (a *API) query(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("op") != "" {
		a.queryAggregate(w, r)
		return
	}
	topic := sensor.Topic(q.Get("sensor"))
	tr := telemetry.TraceFrom(r.Context())
	var readings []sensor.Reading
	switch {
	case q.Get("lookback") != "":
		tr.SetQuery("relative", string(topic))
		lookback, err := parseWindow(q.Get("lookback"), 0)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		readings = a.qe.QueryRelative(topic, lookback, nil)
	case q.Get("from") != "" || q.Get("to") != "":
		tr.SetQuery("range", string(topic))
		from, err1 := strconv.ParseInt(q.Get("from"), 10, 64)
		to, err2 := strconv.ParseInt(q.Get("to"), 10, 64)
		if err1 != nil || err2 != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("from/to must be nanosecond timestamps"))
			return
		}
		// Absolute ranges are what dashboards re-request: memoize them.
		if a.rc != nil {
			topics := []sensor.Topic{topic}
			key := resultcache.Key{
				Digest: resultcache.DigestTopics(topics),
				Kind:   resultcache.KindRange,
				Start:  from, End: to,
			}
			if v, ok := a.rc.Get(key, topics); ok {
				tr.SetCacheVerdict("hit")
				writeReadings(w, topic, v.([]sensor.Reading))
				return
			}
			tr.SetCacheVerdict("miss")
			stamp := a.rc.Begin(topics)
			readings = a.qe.QueryAbsolute(topic, from, to, nil)
			if len(readings) <= maxCachedRange {
				a.rc.Put(key, stamp, readings)
			}
			writeReadings(w, topic, readings)
			return
		}
		readings = a.qe.QueryAbsolute(topic, from, to, nil)
	default:
		tr.SetQuery("latest", string(topic))
		if latest, ok := a.qe.Latest(topic); ok {
			readings = []sensor.Reading{latest}
		}
	}
	writeReadings(w, topic, readings)
}

// maxCachedRange bounds the raw-readings payloads admitted to the
// result cache; larger windows stream straight from the engine instead
// of pinning megabytes per LRU slot.
const maxCachedRange = 65536

// writeReadings streams a raw-readings response element by element, so
// a large Range answer leaves in chunks instead of one giant buffer.
func writeReadings(w http.ResponseWriter, topic sensor.Topic, readings []sensor.Reading) {
	s := startStream(w, http.StatusOK)
	s.raw(`{"sensor":`)
	s.value(topic)
	s.raw(`,"count":`)
	s.int64(int64(len(readings)))
	s.raw(`,"readings":[`)
	for i := range readings {
		s.element(i, readings[i])
	}
	s.raw(`]}`)
	s.done()
}

// maxQueryBuckets bounds a downsampling response across the whole
// request: window/step buckets times the number of fanned-out sensors,
// keeping one request (a '#' wildcard over a dense history, say) from
// asking the engine — and the JSON encoder — for millions of buckets.
const maxQueryBuckets = 100_000

// aggSensorJSON is one sensor's slot in an aggregation response. Value
// is absent when the sensor had no readings in the window; Buckets is
// only present on step (downsampling) queries.
type aggSensorJSON struct {
	Sensor  sensor.Topic    `json:"sensor"`
	Count   int64           `json:"count"`
	Value   *float64        `json:"value,omitempty"`
	Buckets []aggBucketJSON `json:"buckets,omitempty"`
}

// aggBucketJSON is one downsampling bucket: its start timestamp, the
// reading count and the operator evaluated over the bucket.
type aggBucketJSON struct {
	Start int64   `json:"start"`
	Count int64   `json:"count"`
	Value float64 `json:"value"`
}

// aggEntry is one sensor's slot in a memoized aggregation result. It
// carries the full moment set (store.AggResult holds count/sum/min/max
// at once), NOT the rendered value — so one cached window answers
// avg, min, max, sum and count queries alike; the op applies at render
// time. Buckets is non-nil exactly on downsampling results.
type aggEntry struct {
	topic   sensor.Topic
	res     store.AggResult
	buckets []store.Bucket
}

// aggPayload is the op-independent memoized form of one absolute
// aggregation response.
type aggPayload struct {
	entries  []aggEntry
	combined store.AggResult
}

// renderEntry projects one cached/computed entry through op into its
// response shape.
func renderEntry(e aggEntry, op store.AggOp) aggSensorJSON {
	js := aggSensorJSON{Sensor: e.topic, Count: e.res.Count}
	if e.buckets != nil {
		out := make([]aggBucketJSON, 0, len(e.buckets))
		for _, b := range e.buckets {
			v, _ := b.Value(op)
			out = append(out, aggBucketJSON{Start: b.Start, Count: b.Count, Value: v})
		}
		js.Buckets = out
		return js
	}
	if v, ok := e.res.Value(op); ok {
		js.Value = &v
	}
	return js
}

// renderCombined projects the cross-sensor merge through op.
func renderCombined(res store.AggResult, op store.AggOp) aggSensorJSON {
	js := aggSensorJSON{Sensor: "", Count: res.Count}
	if v, ok := res.Value(op); ok {
		js.Value = &v
	}
	return js
}

// queryAggregate answers GET /query with op set. Responses stream: the
// per-sensor array is emitted element by element (with periodic chunk
// flushes), so wildcard fan-outs over thousands of sensors never
// materialize one giant response value. Absolute windows whose start is
// step-aligned — the shape dashboards poll — are memoized in the result
// cache under an op-independent key.
func (a *API) queryAggregate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	op, err := store.ParseAggOp(q.Get("op"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	topics, err := a.expandTopics(q.Get("sensor"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	tr := telemetry.TraceFrom(r.Context())
	tr.SetQuery(op.String(), q.Get("sensor"))
	tr.SetFanout(len(topics))

	// Relative window: one lookback aggregate per sensor, each anchored
	// at that sensor's latest reading — inherently uncacheable (the
	// window moves with every insert). Bucketing needs an absolute
	// window to align to.
	if lb := q.Get("lookback"); lb != "" {
		if q.Get("step") != "" {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("step requires an absolute start/end window"))
			return
		}
		lookback, err := parseWindow(lb, 0)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s := startStream(w, http.StatusOK)
		s.raw(`{"op":`)
		s.value(op.String())
		s.raw(`,"lookback":`)
		s.value(lookback.String())
		s.raw(`,"sensors":[`)
		var combined store.AggResult
		for i, tp := range topics {
			res := a.qe.AggregateRelative(tp, lookback)
			combined.Merge(res)
			s.element(i, renderEntry(aggEntry{topic: tp, res: res}, op))
		}
		s.raw(`],"combined":`)
		s.value(renderCombined(combined, op))
		s.raw(`}`)
		s.done()
		return
	}

	start, err1 := strconv.ParseInt(firstOf(q, "start", "from"), 10, 64)
	end, err2 := strconv.ParseInt(firstOf(q, "end", "to"), 10, 64)
	if err1 != nil || err2 != nil {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("aggregation needs start/end nanosecond timestamps or a lookback duration"))
		return
	}

	var step int64
	var stepStr string
	if s := q.Get("step"); s != "" {
		d, err := parseWindow(s, 0)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		step = int64(d)
		if step <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("step must be positive"))
			return
		}
		if end >= start && ((end-start)/step+1) > maxQueryBuckets/int64(len(topics)) {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("window/step yields more than %d buckets across %d sensors",
					maxQueryBuckets, len(topics)))
			return
		}
		stepStr = d.String()
	}

	// Memoize step-aligned absolute windows only: dashboards poll those
	// repeatedly, while arbitrary offsets would just churn the LRU. The
	// op is deliberately not part of the key (see aggEntry).
	kind := resultcache.KindAggregate
	if step > 0 {
		kind = resultcache.KindDownsample
	}
	var key resultcache.Key
	var stamp resultcache.Stamp
	var payload *aggPayload
	if a.rc != nil && (step == 0 || start%step == 0) {
		key = resultcache.Key{
			Digest: resultcache.DigestTopics(topics),
			Kind:   kind,
			Start:  start, End: end, Step: step,
		}
		if v, ok := a.rc.Get(key, topics); ok {
			tr.SetCacheVerdict("hit")
			a.streamAggAbsolute(w, op, start, end, stepStr, v.(*aggPayload))
			return
		}
		tr.SetCacheVerdict("miss")
		// The stamp must predate the compute: readings landing during it
		// then invalidate the entry instead of being missed.
		stamp = a.rc.Begin(topics)
		payload = &aggPayload{entries: make([]aggEntry, 0, len(topics))}
	}

	s := startStream(w, http.StatusOK)
	s.raw(`{"op":`)
	s.value(op.String())
	s.raw(`,"start":`)
	s.int64(start)
	s.raw(`,"end":`)
	s.int64(end)
	if stepStr != "" {
		s.raw(`,"step":`)
		s.value(stepStr)
	}
	s.raw(`,"sensors":[`)
	var combined store.AggResult
	var buckets []store.Bucket
	for i, tp := range topics {
		e := aggEntry{topic: tp}
		if step > 0 {
			buckets = a.qe.Downsample(tp, start, end, step, buckets[:0])
			for _, b := range buckets {
				e.res.Merge(b.AggResult)
			}
			if payload != nil {
				// Copy: buckets is reused for the next sensor.
				e.buckets = append(make([]store.Bucket, 0, len(buckets)), buckets...)
			} else {
				e.buckets = buckets
			}
			if e.buckets == nil {
				e.buckets = []store.Bucket{}
			}
		} else {
			e.res = a.qe.AggregateAbsolute(tp, start, end)
		}
		combined.Merge(e.res)
		s.element(i, renderEntry(e, op))
		if payload != nil {
			payload.entries = append(payload.entries, e)
		}
	}
	s.raw(`],"combined":`)
	s.value(renderCombined(combined, op))
	s.raw(`}`)
	s.done()
	if payload != nil {
		payload.combined = combined
		a.rc.Put(key, stamp, payload)
	}
}

// streamAggAbsolute renders a cached absolute aggregation payload,
// byte-identical to the uncached stream for the same op and window.
func (a *API) streamAggAbsolute(w http.ResponseWriter, op store.AggOp, start, end int64, stepStr string, p *aggPayload) {
	s := startStream(w, http.StatusOK)
	s.raw(`{"op":`)
	s.value(op.String())
	s.raw(`,"start":`)
	s.int64(start)
	s.raw(`,"end":`)
	s.int64(end)
	if stepStr != "" {
		s.raw(`,"step":`)
		s.value(stepStr)
	}
	s.raw(`,"sensors":[`)
	for i, e := range p.entries {
		s.element(i, renderEntry(e, op))
	}
	s.raw(`],"combined":`)
	s.value(renderCombined(p.combined, op))
	s.raw(`}`)
	s.done()
}

// expandTopics resolves the sensor parameter of an aggregation query:
// a plain topic names itself (no namespace walk, no allocation beyond
// the one-element slice); a topic ending in the '#' multi-level
// wildcard (MQTT-style, as in the push transport) expands through the
// backend's sorted prefix index in O(matches) — or the navigator tree
// on cache-only hosts — instead of filtering the full topic list.
func (a *API) expandTopics(spec string) ([]sensor.Topic, error) {
	if spec == "" {
		return nil, fmt.Errorf("missing sensor parameter")
	}
	if !strings.HasSuffix(spec, "#") {
		return []sensor.Topic{sensor.Topic(spec)}, nil
	}
	prefix := strings.TrimSuffix(strings.TrimSuffix(spec, "#"), "/")
	topics := a.qe.TopicsPrefix(sensor.Topic(prefix))
	if len(topics) == 0 {
		return nil, fmt.Errorf("no sensors match %q", spec)
	}
	return topics, nil
}

// firstOf returns the first non-empty value among the named query
// parameters (start/end accept from/to as aliases).
func firstOf(q url.Values, names ...string) string {
	for _, n := range names {
		if v := q.Get(n); v != "" {
			return v
		}
	}
	return ""
}

func (a *API) start(w http.ResponseWriter, r *http.Request) {
	if err := a.m.StartOperator(r.URL.Query().Get("operator")); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "started"})
}

func (a *API) stop(w http.ResponseWriter, r *http.Request) {
	if err := a.m.StopOperator(r.URL.Query().Get("operator")); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "stopped"})
}

func (a *API) compute(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	outs, err := a.m.OnDemand(q.Get("operator"), sensor.Topic(q.Get("unit")), time.Now())
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	type outJSON struct {
		Topic sensor.Topic `json:"topic"`
		Value float64      `json:"value"`
		Time  int64        `json:"time"`
	}
	res := make([]outJSON, 0, len(outs))
	for _, o := range outs {
		res = append(res, outJSON{Topic: o.Topic, Value: o.Reading.Value, Time: o.Reading.Time})
	}
	writeJSON(w, http.StatusOK, res)
}

func (a *API) load(w http.ResponseWriter, r *http.Request) {
	plugin := r.URL.Query().Get("plugin")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := a.m.LoadPlugin(plugin, body); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "loaded"})
}

func (a *API) unload(w http.ResponseWriter, r *http.Request) {
	n := a.m.UnloadPlugin(r.URL.Query().Get("plugin"))
	writeJSON(w, http.StatusOK, map[string]any{"status": "unloaded", "operators": n})
}

func parseWindow(s string, def time.Duration) (time.Duration, error) {
	if s == "" {
		if def > 0 {
			return def, nil
		}
		return 0, fmt.Errorf("missing duration parameter")
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q: %w", s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return d, nil
}
