package tsdb

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/dcdb/wintermute/internal/reclog"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// The write-ahead log is shared by every series: a record log (package
// reclog) of one record per ingest batch, its payload holding the topic
// and a delta-varint-compressed run of readings. The unit of an append is the burst: a writer encodes the
// records of every batch it was handed, concatenated, outside any lock,
// and the whole group reaches the file in one Write under the WAL's
// mutex. With syncEach the writer then waits for an fsync, which is
// shared: one runs at a time, outside the mutex, and covers every write
// made before it started, so the writers that wrote while it ran are
// covered together by the next one. Append therefore keeps its
// durability meaning (a returned Append survives a process kill; with
// syncEach an OS crash too) while the fsync cost is amortized across
// every concurrent burst. Each record carries its own length and CRC, so
// replay follows reclog's rule: it skips a damaged record alone and ends
// at the torn tail, wherever in a burst a crash cut it.

// walFile names one on-disk WAL file.
type walFile struct {
	seq  uint64
	path string
}

// listWAL returns the directory's WAL files sorted by sequence number.
func listWAL(fs FS, dir string) ([]walFile, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []walFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		files = append(files, walFile{seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].seq < files[j].seq })
	return files, nil
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.wal", seq))
}

// walRecPool recycles the per-writer encode scratch so encoding a burst
// allocates nothing in steady state.
var walRecPool = sync.Pool{New: func() any { return new([]byte) }}

// wal is the active write-ahead log file.
type wal struct {
	fs       FS
	dir      string
	syncEach bool
	m        *dbMetrics // the owning DB's, set by Open before any Append

	mu       sync.Mutex
	syncDone sync.Cond // broadcast when a sync finishes or the WAL fails; L is &mu
	f        File
	seq      uint64
	written  uint64 // writes made, across files
	synced   uint64 // writes the last finished sync covers
	syncing  bool   // a sync runs outside mu
	// err is the sticky failure: the first write or sync that failed. The
	// file may end in a torn record, which would misframe anything written
	// after it, so Append writes nothing while it is set.
	// rotate clears it.
	err error
}

// newWAL returns a WAL over dir with no file yet: Open creates the first
// one once recovery has found the next sequence number.
func newWAL(fs FS, dir string, syncEach bool) *wal {
	w := &wal{fs: fs, dir: dir, syncEach: syncEach}
	w.syncDone.L = &w.mu
	return w
}

// create creates WAL file seq and syncs the directory, so that neither
// the file nor an fsynced record in it can vanish with its directory
// entry in an OS crash.
func (w *wal) create(seq uint64) (File, error) {
	f, err := w.fs.OpenFile(walPath(w.dir, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Append logs a burst of reading batches: their records are encoded back
// to back outside the lock and reach the file in one write under w.mu.
// With syncEach, Append returns once an fsync that started after its
// write has finished: one runs at a time, outside w.mu, and the first
// writer to find none running runs one for everybody. Empty batches log
// nothing. A failed write or fsync is not returned but kept as the
// sticky failure (see failure): the DB serves from memory either way.
func (w *wal) Append(bs []store.Batch) {
	rec := walRecPool.Get().(*[]byte)
	buf, nrec := (*rec)[:0], 0
	for _, b := range bs {
		if len(b.Readings) > 0 {
			buf = appendWALRecord(buf, b.Topic, b.Readings)
			nrec++
		}
	}
	*rec = buf
	w.mu.Lock()
	defer w.mu.Unlock()
	if nrec == 0 || w.err != nil {
		walRecPool.Put(rec)
		return
	}
	n, err := w.f.Write(buf)
	walRecPool.Put(rec)
	if err != nil {
		w.failLocked(err)
		return
	}
	w.written++
	w.m.walAppends.Add(uint64(nrec))
	w.m.walCommits.Inc()
	w.m.walBytes.Add(uint64(n))
	w.m.walCohort.Observe(float64(nrec))
	for mine := w.written; w.syncEach && w.synced < mine && w.err == nil; {
		if w.syncing {
			w.syncDone.Wait()
			continue
		}
		// No sync runs: this writer runs one for everybody. An fsync
		// dwarfs everything else on this path, so make each one count:
		// yield until the writes stop coming — writers the previous sync
		// released (runnable, about to write again) write first and ride
		// this sync instead of forcing a near-empty one of their own. A
		// lone writer goes on after two yields (~ns).
		w.syncing = true
		for prev, stable, spins := w.written, 0, 0; stable < 2 && spins < 256; spins++ {
			w.mu.Unlock()
			runtime.Gosched()
			w.mu.Lock()
			if w.written == prev {
				stable++
			} else {
				prev, stable = w.written, 0
			}
		}
		upto, f := w.written, w.f
		w.mu.Unlock()
		start := telemetry.Clock()
		err := f.Sync()
		if err == nil {
			w.m.walCommitS.ObserveSince(start)
		}
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.failLocked(err)
		} else {
			w.synced = upto
		}
		w.syncDone.Broadcast()
	}
}

// failLocked makes err the sticky failure unless one is set; only the
// first is counted and logged. Callers hold w.mu.
func (w *wal) failLocked(err error) {
	if w.err != nil {
		return
	}
	w.err = fmt.Errorf("tsdb: wal append: %w", err)
	w.m.walDegrades.Inc()
	fmt.Fprintf(os.Stderr, "tsdb: WAL write failed (serving from memory only): %v\n", w.err)
	w.syncDone.Broadcast() // waitSyncedLocked stops waiting on a failed WAL
}

// failure returns the sticky failure, nil while the WAL is healthy.
func (w *wal) failure() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// restore puts back the failure rotate returned, for a flush that failed
// after rotating: the heads still hold readings no log has. A failure
// the fresh file met meanwhile is kept.
func (w *wal) restore(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// waitSyncedLocked returns once no sync runs and every write is synced
// (with syncEach) or the WAL has failed, so the file can be swapped or
// closed with no writer waiting on it. Callers hold w.mu.
func (w *wal) waitSyncedLocked() {
	for w.syncing || w.syncEach && w.synced < w.written && w.err == nil {
		w.syncDone.Wait()
	}
}

// openNext creates the file the next rotate switches to. It is the half
// of a rotation that touches the disk before the switch, and holds w.mu
// only to read the sequence number: appends proceed while the file is
// created. Rotations are serialised by their caller (DB.flushMu), so the
// sequence read here is still current when rotate runs.
func (w *wal) openNext() (File, error) {
	w.mu.Lock()
	seq := w.seq + 1
	w.mu.Unlock()
	return w.create(seq)
}

// rotate switches appends to next (from openNext) and hands back the
// retired file, its sequence number and the sticky failure, which it
// clears: the fresh file cannot end in a torn record. It does no I/O —
// it waits out a sync in flight and swaps the handle — so Flush can call
// it with ingest shut out. The retired file comes back open and
// unsynced: the caller syncs and closes it once ingest runs again.
// Under syncEach the caller must have shut Append out (Flush holds
// DB.ingest): a writer still waiting for its fsync across the swap would
// be released without one.
func (w *wal) rotate(next File) (retired File, seq uint64, failed error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitSyncedLocked()
	retired, seq, failed = w.f, w.seq, w.err
	w.f = next
	w.seq++
	w.err = nil
	w.synced = w.written // writes a failure left unsynced are in retired
	return retired, seq, failed
}

// Close waits out a sync in flight, then syncs and closes the active
// file.
func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitSyncedLocked()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// abandon closes the file handle without syncing, simulating process
// death for crash drills. A sync in flight is waited out first so the
// close cannot race it.
func (w *wal) abandon() {
	w.mu.Lock()
	w.waitSyncedLocked()
	w.f.Close()
	w.mu.Unlock()
}

// appendWALRecord frames one (topic, readings) batch into dst.
func appendWALRecord(dst []byte, topic sensor.Topic, rs []sensor.Reading) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, reclog.HeaderSize)...)
	dst = binary.AppendUvarint(dst, uint64(len(topic)))
	dst = append(dst, topic...)
	dst = binary.AppendUvarint(dst, uint64(len(rs)))
	prev := int64(0)
	for _, r := range rs {
		dst = binary.AppendVarint(dst, r.Time-prev)
		prev = r.Time
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], math.Float64bits(r.Value))
		dst = append(dst, v[:]...)
	}
	reclog.Seal(dst[start:])
	return dst
}

// replayWAL streams every intact record of one WAL file into fn under
// reclog's rule: a record whose CRC fails or whose payload does not
// decode is skipped, and the first record that cannot be located — the
// torn tail of a crash — ends the file. It returns how many records it
// skipped and the offset of the first. The readings slice handed to fn
// is reused for the next record: fn may reorder or truncate it but must
// copy what it keeps.
func replayWAL(fs FS, path string, fn func(topic sensor.Topic, rs []sensor.Reading)) (skipped int, first int64, err error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var rs []sensor.Reading
	for off, size := int64(0), int64(len(data)); ; {
		n, ok := reclog.Locate(data[off:], off, size)
		if !ok {
			return skipped, first, nil
		}
		payload := data[off+reclog.HeaderSize : off+reclog.HeaderSize+n]
		derr := io.ErrUnexpectedEOF
		var topic sensor.Topic
		if reclog.Check(data[off:], payload) {
			topic, rs, derr = decodeWALPayload(payload, rs[:0])
		}
		if derr == nil {
			fn(topic, rs)
		} else if skipped++; skipped == 1 {
			first = off
		}
		off += reclog.HeaderSize + n
	}
}

// decodeWALPayload parses one record payload, appending its readings to
// rs (whose capacity carries over from record to record).
func decodeWALPayload(p []byte, rs []sensor.Reading) (sensor.Topic, []sensor.Reading, error) {
	tlen, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < tlen {
		return "", rs, io.ErrUnexpectedEOF
	}
	topic := sensor.Topic(p[n : n+int(tlen)])
	p = p[n+int(tlen):]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return "", rs, io.ErrUnexpectedEOF
	}
	p = p[n:]
	// Every reading needs at least 9 payload bytes (1-byte varint delta +
	// 8-byte value); a count beyond that bound is a corrupt record, not a
	// preallocation request.
	if count > uint64(len(p))/9 {
		return "", rs, io.ErrUnexpectedEOF
	}
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		dt, n := binary.Varint(p)
		if n <= 0 || len(p) < n+8 {
			return "", rs, io.ErrUnexpectedEOF
		}
		prev += dt
		v := binary.LittleEndian.Uint64(p[n:])
		rs = append(rs, sensor.Reading{Time: prev, Value: math.Float64frombits(v)})
		p = p[n+8:]
	}
	return topic, rs, nil
}
