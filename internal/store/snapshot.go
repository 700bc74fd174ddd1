package store

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"github.com/dcdb/wintermute/internal/sensor"
)

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

// snapshot is the gob-encoded durable form of a store.
type snapshot struct {
	Version int
	Series  map[sensor.Topic][]sensor.Reading
}

// WriteSnapshot serialises the store's full contents. The Collect Agent
// persists snapshots across restarts — the durability slice of the
// Cassandra deployment this store stands in for.
func (s *Store) WriteSnapshot(w io.Writer) error {
	snap := snapshot{Version: snapshotVersion, Series: make(map[sensor.Topic][]sensor.Reading)}
	s.mu.RLock()
	for topic, se := range s.series {
		se.mu.RLock()
		if len(se.data) > 0 {
			snap.Series[topic] = append([]sensor.Reading(nil), se.data...)
		}
		se.mu.RUnlock()
	}
	s.mu.RUnlock()
	return gob.NewEncoder(w).Encode(snap)
}

// ReadSnapshot merges a snapshot's readings into the store.
func (s *Store) ReadSnapshot(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("store: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("store: unsupported snapshot version %d", snap.Version)
	}
	for topic, readings := range snap.Series {
		//lint:ignore batchinsert the in-memory store has no log write to share across a burst: its InsertBatches is this loop
		s.InsertBatch(topic, readings)
	}
	return nil
}

// SaveFile writes a snapshot atomically: to a temporary file first, then
// renamed over the target, so a crash never leaves a torn snapshot.
func (s *Store) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := s.WriteSnapshot(bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile merges a snapshot file into the store.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.ReadSnapshot(bufio.NewReader(f))
}
