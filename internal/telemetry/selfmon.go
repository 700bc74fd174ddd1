package telemetry

import (
	"strings"
	"sync"
	"time"
)

// Point is one self-monitoring reading: a sensor topic (already
// prefixed) and the metric value.
type Point struct {
	Topic string
	Value float64
}

// PublishFunc receives one self-monitoring pass: every series of one
// registry snapshot, stamped with the sample time in nanoseconds. The
// collect agent wires this to its cache sink so the pass lands in the
// sensor tree, caches and storage backend as one burst, like any
// pusher-delivered sensor data. pts is reused by the next pass: it must
// not be retained, and publish must not call back into the monitor.
type PublishFunc func(timeNanos int64, pts []Point)

// SelfMonitor periodically republishes a registry into sensor topics —
// the Wintermute move: the monitoring system's own health becomes
// queryable, aggregatable and dashboard-cacheable data. Counters and
// gauges map to <prefix>/<name>; histograms publish <prefix>/<name>/count
// and <prefix>/<name>/sum; label values are appended as path segments.
type SelfMonitor struct {
	reg     *Registry
	prefix  string
	every   time.Duration
	publish PublishFunc

	// mu serialises passes, which share pts: the buffer one pass fills
	// and hands to publish.
	mu  sync.Mutex
	pts []Point

	once    sync.Once
	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewSelfMonitor returns a self-monitor republishing reg under prefix
// (e.g. "/telemetry") every interval. Call Start to run the loop, or
// PublishOnce to drive it manually (tests, forced scrapes).
func NewSelfMonitor(reg *Registry, prefix string, every time.Duration, publish PublishFunc) *SelfMonitor {
	return &SelfMonitor{
		reg:     reg,
		prefix:  strings.TrimSuffix(prefix, "/"),
		every:   every,
		publish: publish,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start launches the publishing loop in its own goroutine.
func (sm *SelfMonitor) Start() {
	sm.started = true
	go func() {
		defer close(sm.done)
		t := time.NewTicker(sm.every)
		defer t.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case now := <-t.C:
				sm.PublishOnce(now)
			}
		}
	}()
}

// Close stops the publishing loop and waits for it to exit. Closing a
// monitor that was never started is safe.
func (sm *SelfMonitor) Close() {
	if sm == nil {
		return
	}
	sm.once.Do(func() { close(sm.stop) })
	if sm.started {
		<-sm.done
	}
}

// PublishOnce takes one registry snapshot and hands every series to
// publish in one call, stamped with the given time. The call comes after
// the snapshot returned: publishing runs under no registry lock.
func (sm *SelfMonitor) PublishOnce(now time.Time) {
	if sm == nil || sm.publish == nil {
		return
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	pts := sm.pts[:0]
	var b strings.Builder
	sm.reg.Snapshot(func(s *Sample) {
		b.Reset()
		b.WriteString(sm.prefix)
		b.WriteByte('/')
		b.WriteString(s.Name)
		for _, l := range s.Labels {
			b.WriteByte('/')
			b.WriteString(sanitizeSegment(l.Value))
		}
		base := b.String()
		switch s.Type {
		case TypeHistogram:
			pts = append(pts, Point{base + "/count", float64(s.Count)}, Point{base + "/sum", s.Sum})
		default:
			pts = append(pts, Point{base, s.Value})
		}
	})
	sm.pts = pts
	sm.publish(now.UnixNano(), pts)
}

// sanitizeSegment makes a label value safe as one sensor-topic path
// segment: separators and MQTT wildcards are replaced so a label can
// never splice extra levels into the topic tree.
func sanitizeSegment(v string) string {
	if v == "" {
		return "_"
	}
	return topicSegmentEscaper.Replace(v)
}

var topicSegmentEscaper = strings.NewReplacer("/", "_", "#", "_", "+", "_", " ", "_")
