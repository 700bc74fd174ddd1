package collect

import (
	"github.com/dcdb/wintermute/internal/telemetry"
)

// agentMetrics instruments the broker-to-storage ingest handler. Always
// non-nil on an Agent; without a registry the metrics are unattached
// and the handler's hot path stays unconditional. The broker counts the
// duplicates it drops before the handler runs.
type agentMetrics struct {
	batches   *telemetry.Counter   // broker-delivered batches stored in the sink
	readings  *telemetry.Counter   // readings carried by those batches
	batchSize *telemetry.Histogram // readings per stored batch
}

func newAgentMetrics(reg *telemetry.Registry) *agentMetrics {
	return &agentMetrics{
		batches: reg.Counter("dcdb_ingest_batches_total",
			"Broker-delivered reading batches stored in the sink."),
		readings: reg.Counter("dcdb_ingest_readings_total",
			"Broker-delivered readings that reached the sink."),
		batchSize: reg.Histogram("dcdb_ingest_batch_readings",
			"Readings per ingested batch.", telemetry.DefSizeBuckets),
	}
}
