package store

import "github.com/dcdb/wintermute/internal/telemetry"

// DecodeStatsProvider is implemented by backends that count storage
// chunk decodes (the tsdb engine); the REST slow-query log samples it
// around a request to attribute decode work to a query.
type DecodeStatsProvider interface {
	// ChunksDecoded returns the number of chunks decoded since open.
	ChunksDecoded() uint64
}

// RegisterBackendMetrics exposes a backend's statistics through the
// registry as dcdb_storage_* gauges, refreshed by one Stats() call per
// scrape via a registry updater — so every derived series reflects a
// single consistent snapshot. The returned handles must be closed before
// the backend is; a nil backend or a nil registry registers nothing.
func RegisterBackendMetrics(reg *telemetry.Registry, be Backend) []*telemetry.FuncHandle {
	if reg == nil || be == nil {
		return nil
	}
	topics := reg.Gauge("dcdb_storage_topics",
		"Series holding at least one stored reading.")
	total := reg.Gauge("dcdb_storage_readings",
		"Readings stored across all series.")
	disk := reg.Gauge("dcdb_storage_disk_bytes",
		"On-disk footprint of the backend (segments + WAL).")
	walFiles := reg.Gauge("dcdb_storage_wal_files",
		"Write-ahead log files on disk.")
	walBytes := reg.Gauge("dcdb_storage_wal_bytes",
		"Write-ahead log bytes on disk.")
	segments := reg.Gauge("dcdb_storage_segments",
		"Immutable segment files.")
	headReadings := reg.Gauge("dcdb_storage_head_readings",
		"Readings buffered in mutable heads, not yet in segments.")
	degraded := reg.Gauge("dcdb_storage_degraded",
		"1 when the backend reports an error state, else 0.")

	upd := reg.AddUpdater(func() {
		st := be.Stats()
		topics.Set(float64(st.Topics))
		total.Set(float64(st.TotalReadings))
		disk.Set(float64(st.DiskBytes))
		walFiles.Set(float64(st.WALFiles))
		walBytes.Set(float64(st.WALBytes))
		segments.Set(float64(st.Segments))
		headReadings.Set(float64(st.HeadReadings))
		if st.Error != "" {
			degraded.Set(1)
		} else {
			degraded.Set(0)
		}
	})
	return []*telemetry.FuncHandle{upd}
}
