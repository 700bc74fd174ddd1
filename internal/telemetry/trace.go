package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// traceSeq mints process-unique request trace IDs.
var traceSeq atomic.Uint64

// Trace is the request-scoped context a serving handler threads
// through the query path. The handler creates it, lower layers
// annotate it (cache verdict, topic fan-out, chunks decoded), and the
// slow-query log names those annotations when the request runs over
// threshold. A nil *Trace is safe: every setter is a no-op, so the
// query path annotates unconditionally and pays nothing when slow-query
// logging is off.
type Trace struct {
	id     uint64
	start  time.Time
	op     string
	sensor string
	cache  string
	fanout int
	chunks uint64
}

// NewTrace starts a request trace with a fresh process-unique ID, or
// nil when telemetry is disabled — the nil-safe setters make the
// disabled request path cost one atomic load, like every other hot
// path in this package.
func NewTrace() *Trace {
	if disabled.Load() {
		return nil
	}
	return &Trace{id: traceSeq.Add(1), start: time.Now()}
}

// ID returns the trace identifier in the form used by the X-Trace-Id
// header and the slow-query log, e.g. "t-000000c4".
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	const hex = "0123456789abcdef"
	var b [10]byte
	b[0], b[1] = 't', '-'
	for i := 0; i < 8; i++ {
		b[9-i] = hex[(t.id>>(4*uint(i)))&0xf]
	}
	return string(b[:])
}

// SetQuery records the query kind and sensor pattern.
func (t *Trace) SetQuery(op, sensor string) {
	if t == nil {
		return
	}
	t.op, t.sensor = op, sensor
}

// SetCacheVerdict records the result-cache outcome for the request:
// "hit", "miss", "stale" or "bypass".
func (t *Trace) SetCacheVerdict(v string) {
	if t == nil {
		return
	}
	t.cache = v
}

// SetFanout records how many concrete topics a wildcard expanded to.
func (t *Trace) SetFanout(n int) {
	if t == nil {
		return
	}
	t.fanout = n
}

// AddChunksDecoded adds to the count of storage chunks decoded on
// behalf of this request.
func (t *Trace) AddChunksDecoded(n uint64) {
	if t == nil {
		return
	}
	t.chunks += n
}

type traceCtxKey struct{}

// WithTrace attaches t to ctx.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil. The nil result
// composes with the nil-safe Trace setters, so callees annotate
// without checking.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// SlowQueryEntry is one line of the structured slow-query log,
// serialized as JSON.
type SlowQueryEntry struct {
	Time          string  `json:"time"`
	Trace         string  `json:"trace"`
	Route         string  `json:"route"`
	Status        int     `json:"status"`
	DurationMs    float64 `json:"duration_ms"`
	Op            string  `json:"op,omitempty"`
	Sensor        string  `json:"sensor,omitempty"`
	Cache         string  `json:"cache,omitempty"`
	Fanout        int     `json:"fanout,omitempty"`
	ChunksDecoded uint64  `json:"chunks_decoded,omitempty"`
}

// SlowQueryLog writes one JSON line per request that ran at or over
// the configured threshold. It is safe for concurrent use.
type SlowQueryLog struct {
	threshold time.Duration
	mu        sync.Mutex
	w         io.Writer
	logged    atomic.Uint64
}

// NewSlowQueryLog returns a log that records requests whose duration
// is >= threshold. A zero or negative threshold disables logging and
// returns nil, which every method accepts.
func NewSlowQueryLog(w io.Writer, threshold time.Duration) *SlowQueryLog {
	if threshold <= 0 || w == nil {
		return nil
	}
	return &SlowQueryLog{threshold: threshold, w: w}
}

// Record logs the request if it ran at or over threshold. route and
// status describe the HTTP exchange; t may be nil for routes that do
// not thread a trace.
func (l *SlowQueryLog) Record(t *Trace, route string, status int, d time.Duration) {
	if l == nil || d < l.threshold {
		return
	}
	e := SlowQueryEntry{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		Trace:      t.ID(),
		Route:      route,
		Status:     status,
		DurationMs: float64(d.Microseconds()) / 1e3,
	}
	if t != nil {
		e.Op, e.Sensor, e.Cache = t.op, t.sensor, t.cache
		e.Fanout, e.ChunksDecoded = t.fanout, t.chunks
	}
	buf, err := json.Marshal(e)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	l.mu.Lock()
	l.w.Write(buf)
	l.mu.Unlock()
	l.logged.Add(1)
}

// Logged returns how many entries the log has emitted; exposed so the
// registry can count slow queries as a metric.
func (l *SlowQueryLog) Logged() uint64 {
	if l == nil {
		return 0
	}
	return l.logged.Load()
}
