package collect

import (
	"github.com/dcdb/wintermute/internal/telemetry"
)

// agentMetrics instruments the broker-to-storage ingest handler. Always
// non-nil on an Agent; without a registry the metrics are unattached
// and the handler's hot path stays unconditional.
type agentMetrics struct {
	batches     *telemetry.Counter   // broker-delivered batches stored in the sink
	readings    *telemetry.Counter   // readings carried by those batches
	batchSize   *telemetry.Histogram // readings per stored batch
	dupBatches  *telemetry.Counter   // redelivered batches dropped by dedup
	dupReadings *telemetry.Counter   // readings carried by dropped duplicates

	handles []*telemetry.FuncHandle
}

func newAgentMetrics(reg *telemetry.Registry, a *Agent) *agentMetrics {
	m := &agentMetrics{
		batches: reg.Counter("dcdb_ingest_batches_total",
			"Broker-delivered reading batches stored in the sink."),
		readings: reg.Counter("dcdb_ingest_readings_total",
			"Broker-delivered readings that reached the sink."),
		batchSize: reg.Histogram("dcdb_ingest_batch_readings",
			"Readings per ingested batch.", telemetry.DefSizeBuckets),
		dupBatches: reg.Counter("dcdb_ingest_dup_batches_total",
			"Redelivered batches dropped by the (epoch, topic) dedup high-water mark."),
		dupReadings: reg.Counter("dcdb_ingest_dup_readings_total",
			"Readings carried by dropped duplicate batches."),
	}
	if reg != nil && a != nil {
		m.handles = append(m.handles, reg.GaugeFunc("dcdb_ingest_dedup_epochs",
			"Client epochs tracked by the ingest dedup table.",
			func() float64 { return float64(a.dedup.size()) }))
	}
	return m
}

func (m *agentMetrics) closeMetrics() {
	for _, h := range m.handles {
		h.Close()
	}
	m.handles = nil
}
