package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the generator made into the pipeline. Spans of
// one request share Req, the id of the request's root span.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Req     int    `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable switches recording; spans begun while off are dropped.
func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span under parent (0 for a request's root) and returns
// its id, 0 when not recording.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	req := id
	if parent > 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, StartNs: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(filepath.Join("bench", "out", "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
