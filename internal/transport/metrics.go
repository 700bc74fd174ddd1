package transport

import (
	"github.com/dcdb/wintermute/internal/telemetry"
)

// brokerMetrics is the broker's telemetry bundle. Always non-nil on a
// running broker: with no registry the metrics are minted from a nil
// *telemetry.Registry and count into nowhere, so the per-frame route
// path stays branch-free. Connection count and tracked dedup epochs are
// callback gauges, closed when the broker closes.
type brokerMetrics struct {
	frames      *telemetry.Counter // frames read off client connections
	routed      *telemetry.Counter // publish messages handed to the local handlers
	readings    *telemetry.Counter // readings carried by routed messages
	dupBatches  *telemetry.Counter // redelivered batches dropped by the epoch watermarks
	dupReadings *telemetry.Counter // readings carried by dropped duplicates
	dropped     *telemetry.Counter // malformed publishes dropped
	writeFails  *telemetry.Counter // connection write failures (connection torn down)
	bytesIn     *telemetry.Counter // payload bytes received
	connsTotal  *telemetry.Counter // connections accepted since start
	acks        *telemetry.Counter // PubAcks sent for v2 publishes
	uninterned  *telemetry.Counter // publishes delivered without a topic handle

	handles []*telemetry.FuncHandle
}

func newBrokerMetrics(reg *telemetry.Registry, b *Broker) *brokerMetrics {
	m := &brokerMetrics{
		frames: reg.Counter("dcdb_broker_frames_total",
			"Frames read from client connections."),
		routed: reg.Counter("dcdb_broker_messages_routed_total",
			"Publish messages delivered to local handlers (duplicates dropped before)."),
		readings: reg.Counter("dcdb_broker_readings_total",
			"Sensor readings carried by routed publish messages."),
		// The dedup series keep the names they had when the Collect
		// Agent's ingest handler deduplicated.
		dupBatches: reg.Counter("dcdb_ingest_dup_batches_total",
			"Redelivered batches dropped by the (epoch) dedup high-water mark."),
		dupReadings: reg.Counter("dcdb_ingest_dup_readings_total",
			"Readings carried by dropped duplicate batches."),
		dropped: reg.Counter("dcdb_broker_publishes_dropped_total",
			"Malformed publish frames dropped before routing."),
		// The name predates the removal of network subscription; it
		// counts a failed write on any connection.
		writeFails: reg.Counter("dcdb_broker_subscriber_write_failures_total",
			"Write errors (including write-deadline expiries) that tore down a connection."),
		acks: reg.Counter("dcdb_broker_pubacks_total",
			"PubAck frames sent acknowledging versioned publishes."),
		uninterned: reg.Counter("dcdb_transport_uninterned_publishes_total",
			"Publishes whose topic the connection's intern table did not hold (table full, or topic longer than 256 B): delivered and stored, but resolved by lookup at every layer."),
		bytesIn: reg.Counter("dcdb_broker_bytes_received_total",
			"Frame payload bytes received from clients."),
		connsTotal: reg.Counter("dcdb_broker_connections_total",
			"Client connections accepted since start."),
	}
	if reg != nil && b != nil {
		m.handles = append(m.handles, reg.GaugeFunc("dcdb_broker_connections",
			"Currently open client connections.",
			func() float64 {
				b.mu.Lock()
				n := len(b.conns)
				b.mu.Unlock()
				return float64(n)
			}),
			reg.GaugeFunc("dcdb_ingest_dedup_epochs",
				"Client epochs tracked by the broker's dedup table.",
				func() float64 { return float64(b.marks.size()) }))
	}
	return m
}

func (m *brokerMetrics) closeMetrics() {
	for _, h := range m.handles {
		h.Close()
	}
	m.handles = nil
}
