package telemetry

import (
	"testing"
	"time"
)

func TestSelfMonitorPublishOnce(t *testing.T) {
	r := NewRegistry()
	r.Counter("dcdb_sm_events_total", "x").Add(9)
	r.Gauge("dcdb_sm_depth", "x").Set(2.5)
	r.Histogram("dcdb_sm_seconds", "x", []float64{1}).Observe(0.5)
	r.NewCounterVec("dcdb_sm_routes_total", "x", "route").With("/query").Add(3)

	got := map[string]float64{}
	calls := 0
	sm := NewSelfMonitor(r, "/telemetry/", time.Hour, func(ts int64, pts []Point) {
		calls++
		if ts != time.Unix(100, 0).UnixNano() {
			t.Fatalf("timestamp = %d", ts)
		}
		for _, p := range pts {
			got[p.Topic] = p.Value
		}
	})
	sm.PublishOnce(time.Unix(100, 0))
	sm.Close() // never started: must not hang

	if calls != 1 {
		t.Fatalf("one pass made %d publish calls, want 1", calls)
	}

	want := map[string]float64{
		"/telemetry/dcdb_sm_events_total":        9,
		"/telemetry/dcdb_sm_depth":               2.5,
		"/telemetry/dcdb_sm_seconds/count":       1,
		"/telemetry/dcdb_sm_seconds/sum":         0.5,
		"/telemetry/dcdb_sm_routes_total/_query": 3,
	}
	for topic, v := range want {
		if got[topic] != v {
			t.Fatalf("topic %s = %v, want %v (all: %v)", topic, got[topic], v, got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("published %d topics, want %d: %v", len(got), len(want), got)
	}
}

func TestSelfMonitorLoop(t *testing.T) {
	r := NewRegistry()
	r.Counter("dcdb_sm_loop_total", "x").Inc()
	ch := make(chan string, 64)
	sm := NewSelfMonitor(r, "/telemetry", 5*time.Millisecond, func(_ int64, pts []Point) {
		for _, p := range pts {
			select {
			case ch <- p.Topic:
			default:
			}
		}
	})
	sm.Start()
	select {
	case topic := <-ch:
		if topic != "/telemetry/dcdb_sm_loop_total" {
			t.Fatalf("topic = %s", topic)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("self-monitor loop never published")
	}
	sm.Close()
	sm.Close() // idempotent
}

func TestSanitizeSegment(t *testing.T) {
	cases := map[string]string{
		"":          "_",
		"/query":    "_query",
		"a/b#c+d e": "a_b_c_d_e",
		"plain":     "plain",
	}
	for in, want := range cases {
		if got := sanitizeSegment(in); got != want {
			t.Fatalf("sanitizeSegment(%q) = %q, want %q", in, got, want)
		}
	}
}
