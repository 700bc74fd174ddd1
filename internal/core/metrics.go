package core

import (
	"github.com/dcdb/wintermute/internal/telemetry"
)

// EnableTelemetry registers the manager's operator/scheduler telemetry
// in reg: a tick-latency histogram plus callback gauges over the
// computation bound (threads, queued, active, saturation) and a
// completed-computations counter. The callbacks resolve the current
// bound on every scrape, so SetThreads swapping it keeps the series
// truthful. Handles are released by Close. Calling with a nil registry
// is a no-op.
func (m *Manager) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.tickHist.Store(reg.Histogram("dcdb_wintermute_tick_seconds",
		"Seconds per serialized operator tick (compute + sink publish).",
		telemetry.DefDurationBuckets))
	stats := func() SchedulerStats { return m.SchedulerStats() }
	handles := []*telemetry.FuncHandle{
		reg.GaugeFunc("dcdb_scheduler_threads",
			"Wintermute operator computations allowed to run at once.",
			func() float64 { return float64(stats().Threads) }),
		reg.GaugeFunc("dcdb_scheduler_queued",
			"Computations waiting for a slot.",
			func() float64 { return float64(stats().Queued) }),
		reg.GaugeFunc("dcdb_scheduler_active",
			"Computations currently holding a slot.",
			func() float64 { return float64(stats().Active) }),
		reg.GaugeFunc("dcdb_scheduler_saturation",
			"Bound pressure: (active + queued) / threads.",
			func() float64 {
				s := stats()
				if s.Threads == 0 {
					return 0
				}
				return float64(s.Active+s.Queued) / float64(s.Threads)
			}),
		reg.CounterFunc("dcdb_scheduler_tasks_completed_total",
			"Computations completed under the bound since start.",
			func() float64 { return float64(stats().Completed) }),
	}
	m.mu.Lock()
	m.telemetryHandles = append(m.telemetryHandles, handles...)
	m.mu.Unlock()
}

// closeTelemetry unregisters the manager's callback metrics; called
// from Close.
func (m *Manager) closeTelemetry() {
	m.mu.Lock()
	handles := m.telemetryHandles
	m.telemetryHandles = nil
	m.mu.Unlock()
	for _, h := range handles {
		h.Close()
	}
}
