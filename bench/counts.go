package main

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/dcdb/wintermute/internal/telemetry"
)

// snap is one reading of the traced run's private telemetry registry,
// taken from outside the program through Registry.Snapshot.
type snap struct {
	val  map[string]float64
	hist map[string]histSnap
	mem  runtime.MemStats
}

type histSnap struct {
	count   uint64
	sum     float64
	buckets []telemetry.Bucket
}

// takeSnap keys every series by name, or name{label values}.
func takeSnap(reg *telemetry.Registry) snap {
	s := snap{val: map[string]float64{}, hist: map[string]histSnap{}}
	reg.Snapshot(func(m *telemetry.Sample) {
		key := m.Name
		if len(m.Labels) > 0 {
			vals := make([]string, len(m.Labels))
			for i, l := range m.Labels {
				vals[i] = l.Value
			}
			key += "{" + strings.Join(vals, ",") + "}"
		}
		if m.Type == telemetry.TypeHistogram {
			s.hist[key] = histSnap{m.Count, m.Sum, append([]telemetry.Bucket(nil), m.Buckets...)}
			return
		}
		s.val[key] = m.Value
	})
	runtime.ReadMemStats(&s.mem)
	return s
}

// counts are the registry readings around the traced window and the
// peaks of the gauges sampled inside it.
type counts struct {
	a, b  snap
	peaks map[string]float64
}

var peakGauges = []string{"dcdb_ingest_queue_depth", "dcdb_tsdb_head_readings", "dcdb_scheduler_queued"}

func (r *run) beginCounts() {
	if r.traced {
		r.c = &counts{a: takeSnap(r.reg), peaks: map[string]float64{}}
	}
}

func (r *run) endCounts() {
	if r.traced {
		r.c.b = takeSnap(r.reg)
	}
}

// sampleFor sleeps through the window; traced, it wakes every 100 ms to
// keep the gauges' peaks.
func (r *run) sampleFor(d time.Duration) {
	if !r.traced {
		time.Sleep(d)
		return
	}
	for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(100 * time.Millisecond) {
		for _, g := range peakGauges {
			if v, ok := r.reg.Value(g); ok && v > r.c.peaks[g] {
				r.c.peaks[g] = v
			}
		}
	}
}

// delta is a counter's increase over the traced window.
func (c *counts) delta(name string) float64 { return c.b.val[name] - c.a.val[name] }

// histDelta is a histogram's observations over the traced window.
func (c *counts) histDelta(name string) histSnap {
	a, b := c.a.hist[name], c.b.hist[name]
	d := histSnap{count: b.count - a.count, sum: b.sum - a.sum, buckets: append([]telemetry.Bucket(nil), b.buckets...)}
	for i := range a.buckets {
		d.buckets[i].Count -= a.buckets[i].Count
	}
	return d
}

// quantile interpolates inside the bucket holding rank q; the registry's
// buckets double in width, so this is coarse.
func (h histSnap) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	lo, below := 0.0, 0.0
	for _, b := range h.buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.Le, 1) {
				return lo
			}
			return lo + (b.Le-lo)*(rank-below)/(float64(b.Count)-below)
		}
		lo, below = b.Le, float64(b.Count)
	}
	return lo
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics fills the per-layer metrics that are counts, read from
// the registry, runtime.MemStats and /proc/self.
func (r *run) countMetrics(window time.Duration) {
	c, m := r.c, r.m
	readings := c.delta("dcdb_ingest_readings_total")
	m["transport.bytes_per_reading"] = ratio(c.delta("dcdb_broker_bytes_received_total"), c.delta("dcdb_broker_readings_total"))
	m["transport.pubacks_per_kbatch"] = 1000 * ratio(c.delta("dcdb_broker_pubacks_total"), c.delta("dcdb_broker_messages_routed_total"))
	for _, cl := range r.s.pubs {
		m["transport.redeliveries"] += float64(cl.Stats().Redeliveries)
	}
	m["collect.queue_wait_p50_us"] = 1e6 * c.histDelta("dcdb_ingest_drain_seconds").quantile(0.5)
	m["collect.queue_depth_peak"] = c.peaks["dcdb_ingest_queue_depth"]
	m["collect.dup_batches"] = c.delta("dcdb_ingest_dup_batches_total")

	m["tsdb.wal_bytes_per_reading"] = ratio(c.delta("dcdb_tsdb_wal_bytes_total"), readings)
	cohort := c.histDelta("dcdb_tsdb_wal_cohort_records")
	m["tsdb.wal_cohort_mean"] = ratio(cohort.sum, float64(cohort.count))
	m["tsdb.flushes"] = c.delta("dcdb_tsdb_flushes_total")
	m["tsdb.flush_s_total"] = c.histDelta("dcdb_tsdb_flush_seconds").sum
	m["tsdb.head_readings_peak"] = c.peaks["dcdb_tsdb_head_readings"]
	m["tsdb.segments"] = c.b.val["dcdb_tsdb_segments"]
	queries := c.delta("dcdb_http_requests_total{/query}")
	m["rest.requests"] = queries
	m["tsdb.chunk_decodes_per_query"] = ratio(c.delta("dcdb_tsdb_chunk_decodes_total"), queries)

	hits, stale, misses := c.delta("dcdb_resultcache_hits_total"), c.delta("dcdb_resultcache_stale_total"), c.delta("dcdb_resultcache_misses_total")
	m["resultcache.hit_ratio"] = ratio(hits, hits+stale+misses)
	m["resultcache.stale_ratio"] = ratio(stale, hits+stale+misses)

	m["core.sched_queued_peak"] = c.peaks["dcdb_scheduler_queued"]
	m["rest.server_p50_ms"] = 1e3 * c.histDelta("dcdb_http_request_seconds{/query}").quantile(0.5)

	m["process.peak_rss_mb"] = peakRSSMB()
	m["process.alloc_mb_per_s"] = float64(c.b.mem.TotalAlloc-c.a.mem.TotalAlloc) / (1 << 20) / window.Seconds()
	m["process.gc_pause_ms_total"] = float64(c.b.mem.PauseTotalNs-c.a.mem.PauseTotalNs) / 1e6
}

// peakRSSMB is VmHWM of /proc/self/status.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// perLayer fills every per-layer metric: the counts of the traced
// window, the tails and workload-specific medians of the observer's
// samples, and the ladder. A layer the workload does not exercise
// reports 0.
func (r *run) perLayer(marks []mark, window time.Duration, lateP99, flushS float64, flushed int, ackLat []float64) error {
	for _, d := range perLayerZero {
		r.m[d] = 0
	}
	r.countMetrics(window)
	m, lat := r.m, &r.obs.lat
	m["transport.ack_p50_ms"] = median(ackLat)
	for _, p := range r.pubs {
		m["transport.ooo_batches"] += float64(p.f.ooo)
	}
	if r.w.cold {
		// The flush of the recovered history is the larger sample.
		flushS, flushed = r.preFlushS, r.preloaded
	}
	m["tsdb.flush_ms_per_mreading"] = ratio(flushS*1e3, float64(flushed)/1e6)
	m["tsdb.recovery_s"] = r.recoveryS
	m["tsdb.recovery_ms_per_mreading"] = ratio(r.recoveryS*1e3, float64(r.preloaded)/1e6)
	m["rest.freshness_p95_ms"] = pct(lat[opProbe], 0.95)
	m["rest.dash_query_p99_ms"] = pct(lat[opPanel], 0.99)
	m["rest.cold_range_p99_ms"] = pct(lat[opRange], 0.99)
	m["rest.cold_queries_per_s"] = float64(len(lat[opRange])+len(lat[opAgg])+len(lat[opDown])) / window.Seconds()
	m["core.tick_p99_ms"] = pct(lat[opTick], 0.99)
	m["core.tick_lateness_p99_ms"] = pct(r.obs.tickLate, 0.99)
	m["process.generator_lateness_p99_ms"] = lateP99

	// Tracing overhead: CPU per unit of work in the traced half against
	// the half before it, which ran with telemetry and spans switched off.
	cost := func(a, b mark) float64 {
		if r.w.cold {
			return ratio(b.cpu-a.cpu, float64(b.ops-a.ops))
		}
		return ratio(b.cpu-a.cpu, float64(b.stored-a.stored))
	}
	off, on := cost(marks[0], marks[1]), cost(marks[1], marks[2])
	m["process.trace_overhead_pct"] = 100 * ratio(on-off, off)

	r.tr.enable(true)
	defer r.tr.enable(false)
	if err := r.queryLadder(); err != nil {
		return err
	}
	if err := r.tickLadder(); err != nil {
		return err
	}
	return r.ingestLadder()
}

// perLayerZero lists the ladder metrics a workload may have no rung for.
var perLayerZero = []string{
	"tsdb.range_us", "tsdb.aggregate_us", "tsdb.downsample_us", "core.query_self_us",
	"rest.render_self_us", "rest.http_self_us", "resultcache.hit_us", "resultcache.miss_overhead_us",
	"core.tick_us_per_unit", "plugins.aggregator_us_per_unit", "plugins.smoothing_us_per_unit",
	"plugins.tester_us_per_query",
}
