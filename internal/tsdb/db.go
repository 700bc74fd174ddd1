package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/telemetry"
)

// Options configures a DB. The zero value enables the janitor with
// defaults suitable for a Collect Agent.
type Options struct {
	// Retention drops readings older than now-Retention (0: keep
	// forever). Whole expired segments are deleted from disk; a
	// retention watermark hides expired readings of segments still
	// partially live.
	Retention time.Duration
	// FlushEvery is the janitor pass interval (default 10s; negative
	// disables the janitor entirely — tests drive Flush/Prune manually).
	FlushEvery time.Duration
	// WALSync makes an insert return only after an fsync of the
	// write-ahead log covers it. Off by default: an OS crash may then lose
	// the last moments of data, but a process kill loses nothing, matching
	// the paper's "near-line" durability needs at a fraction of the insert
	// cost. One fsync covers every writer that wrote before it started, so
	// the cost does not scale with writer count.
	WALSync bool
	// OnPrune, when set, runs after every retention pass that hid or
	// removed data, with the cutoff and the count of readings removed.
	// The serving tier hooks result-cache invalidation here (janitor
	// prunes change query answers without any insert). The callback runs
	// while the prune cycle still holds its serialisation mutex: it must
	// not call Flush, Prune or Close on this DB.
	OnPrune func(cutoff int64, removed int)
	// FS abstracts the file operations the database performs (WAL
	// appends and fsyncs, segment writes, renames, directory syncs).
	// Nil selects OSFS, the real filesystem. The chaos harness injects a
	// fault-injecting implementation here; production code never sets it.
	FS FS
	// Metrics, when set, registers the DB's telemetry families (WAL
	// write/fsync histograms, flush/prune/janitor durations,
	// head/segment gauges, chunk-decode counter) in the given registry.
	// Nil leaves the DB uninstrumented at near-zero cost: hot paths
	// still run their metric calls, against unattached metrics.
	Metrics *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.FlushEvery == 0 {
		o.FlushEvery = 10 * time.Second
	}
	if o.FS == nil {
		o.FS = OSFS
	}
	return o
}

// headShardCount is the number of stripes in the head map; a power of
// two so the shard index is a mask. 64 stripes (matching cache.Set)
// keep two hot topics off the same lock with high probability.
const headShardCount = 64

// headShard is one stripe of the head map: an independent lock + map so
// concurrent inserts for different topics never contend. The lock guards
// the map and every head in it.
type headShard struct {
	mu    sync.RWMutex
	heads map[sensor.Topic]*head
	free  freeBlocks
}

// headShardIdx maps a topic to its stripe with the shared FNV-1a topic
// hash (the cache.Set sharding idiom).
func headShardIdx(topic sensor.Topic) uint32 {
	return topic.Hash() & (headShardCount - 1)
}

// DB is an embedded persistent time-series database implementing
// store.Backend. All methods are safe for concurrent use.
//
// The package's lock hierarchy is declared below and machine-checked by
// cmd/invlint (see docs/ANALYSIS.md): any function holding a lock may
// only acquire locks that come later in a chain.
//
//lint:lockorder DB.flushMu < DB.ingest < DB.mu < headShard.mu
//lint:lockorder DB.mu < wal.mu
//lint:lockorder DB.ingest < wal.mu
type DB struct {
	dir  string
	opts Options
	fs   FS

	// ingest serialises flushes against the append path: inserts hold it
	// shared while writing WAL record + head so a flush (exclusive) can
	// atomically pair "heads sealed" with "WAL rotated" — the segment
	// covers exactly the WAL files it retires, and no reading is ever in
	// a deleted WAL file but missing from both heads and segments.
	ingest sync.RWMutex

	// flushMu serialises whole flush and prune cycles against each
	// other; queries and inserts never take it. It alone guards segSeq,
	// and a head's sealed run is non-nil only while Flush holds it.
	flushMu sync.Mutex
	segSeq  uint64

	// mu guards segs, floor and idx. Every read holds it shared for the
	// whole read, with its topic's stripe lock inside, so segment
	// registration and Prune, which hold it exclusively, fall entirely
	// before or after a read. A reader must not take it again while
	// holding it: a recursive RLock queued behind a waiting writer
	// deadlocks.
	mu    sync.RWMutex
	segs  []*segment
	floor int64 // retention watermark: readings < floor are pruned

	// idx is the sorted prefix table over live topics answering wildcard
	// expansion in O(matches): seeded from the recovered topic set at
	// Open, extended by the insert that creates a head for a topic it
	// lacks, and rebuilt by Prune so retention leaves no ghosts.
	idx topicIndex

	// shards stripe the head map so the insert hot path touches only its
	// topic's lock; an insert takes db.mu only when it creates a head.
	// Segment registration clears every stripe's sealed runs while
	// holding db.mu exclusively, so a reader finds the readings in
	// exactly one tier.
	shards [headShardCount]headShard

	headN     atomic.Int64 // unsealed readings across heads
	sealedN   atomic.Int64 // readings the flush in progress is writing
	headSince atomic.Int64 // unix nanos of the oldest buffered arrival, 0 = empty

	// wal holds the sticky WAL failure too: once a write or sync fails
	// the DB keeps serving from memory and reports itself degraded
	// through Stats and Close until a flush re-arms it.
	wal *wal
	// flushErr is the most recent flush failure (sticky until a flush
	// succeeds): disk-full or a dead device keeps head data memory-only,
	// and operators see it in Stats instead of only in janitor stderr.
	flushErr atomic.Pointer[error]

	lock *os.File // exclusive directory lock (LOCK file)

	janitorStop chan struct{}
	janitorDone chan struct{}
	// headFull wakes the janitor between passes: InsertBatches sends,
	// without blocking, when headN crosses maxHeadReadings. One slot is
	// enough, the janitor re-reads headN. Nil without a janitor.
	headFull  chan struct{}
	closeOnce sync.Once
	closeErr  error

	// metrics is never nil on an opened DB; without Options.Metrics it
	// holds unattached metrics so instrumentation sites stay
	// unconditional.
	metrics *dbMetrics

	// seam, when set, runs wherever a holder of db.mu passes from one
	// tier to the other: in every read, and in liveTopics and
	// liveReadings. Nil outside tests, which set it to land a flush or a
	// prune inside a read.
	seam func()
}

var _ store.Backend = (*DB)(nil)

// Open creates or recovers a database in dir. Recovery loads every
// segment index, discards WAL files already covered by segments (a crash
// window between flush and WAL deletion), and replays the remainder into
// fresh heads — after which queries answer exactly as before the crash.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	openStart := time.Now()
	walDir := filepath.Join(dir, "wal")
	segDir := filepath.Join(dir, "seg")
	for _, d := range []string{dir, walDir, segDir} {
		if err := fs.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("tsdb: %w", err)
		}
	}
	lock, err := lockDir(filepath.Join(dir, "LOCK"))
	if err != nil {
		return nil, err
	}
	segs, err := listSegments(fs, segDir)
	if err != nil {
		lock.Close()
		return nil, err
	}
	db := &DB{
		dir:   dir,
		opts:  opts,
		fs:    fs,
		segs:  segs,
		floor: loadFloor(fs, dir),
		wal:   newWAL(fs, walDir, opts.WALSync),
		lock:  lock,
	}
	for i := range db.shards {
		db.shards[i].heads = make(map[sensor.Topic]*head)
	}
	db.metrics = newDBMetrics(opts.Metrics, db)
	db.wal.m = db.metrics
	// fail undoes a recovery that cannot finish: every file it opened is
	// closed again.
	fail := func(err error) (*DB, error) {
		for _, s := range segs {
			s.close()
		}
		db.metrics.closeMetrics()
		lock.Close()
		return nil, err
	}
	for _, s := range segs {
		s.decodes = db.metrics.chunkDecodes
	}
	// Re-derive the per-segment prune bookkeeping the persisted
	// watermark implies, so post-restart Prune calls report accurate
	// removal counts.
	if db.floor > math.MinInt64 {
		for _, s := range segs {
			if s.minT < db.floor {
				if n, err := s.countBelow(db.floor); err == nil {
					s.prunedCount = n
				}
			}
		}
	}
	coveredWAL := uint64(0)
	for _, s := range segs {
		if s.seq >= db.segSeq {
			db.segSeq = s.seq + 1
		}
		if s.coveredWAL > coveredWAL {
			coveredWAL = s.coveredWAL
		}
	}
	walFiles, err := listWAL(fs, walDir)
	if err != nil {
		return fail(err)
	}
	maxWALSeq, err := db.replay(walFiles, coveredWAL)
	if err != nil {
		return fail(err)
	}
	if db.headN.Load() > 0 {
		db.headSince.Store(time.Now().UnixNano())
	}
	// Recovery: seed the prefix index with every live topic (segments +
	// replayed heads), so wildcard expansion answers right after restart.
	// Open still has the DB to itself, so db.mu is not needed.
	db.idx.Reset(db.liveTopics())
	if db.wal.f, err = db.wal.create(maxWALSeq + 1); err != nil {
		return fail(err)
	}
	db.wal.seq = maxWALSeq + 1
	db.metrics.recoverySec.Set(time.Since(openStart).Seconds())
	if opts.FlushEvery > 0 {
		db.janitorStop = make(chan struct{})
		db.janitorDone = make(chan struct{})
		db.headFull = make(chan struct{}, 1)
		go db.janitor()
	}
	return db, nil
}

// replayBatchLen is how many readings the WAL decoder gathers for one
// inserter before handing them over: 256 KiB of readings.
const replayBatchLen = 16 << 10

// replayBatch carries decoded WAL records to an inserter, each record's
// readings as buf[lo:hi].
type replayBatch struct {
	recs []replayRec
	buf  []sensor.Reading
}

type replayRec struct {
	topic  sensor.Topic
	lo, hi int
}

// replay inserts the readings of every WAL file not covered by a
// segment into the heads, and returns the highest WAL sequence number
// seen. The caller's goroutine reads and decodes the files in order; one
// inserter per CPU inserts the records of the head shards it owns, in
// the order it receives them, so every topic's records — equal
// timestamps included — go in in file order. A damaged record is
// skipped, counted and logged, and a torn tail ends its file's replay
// (replayWAL).
func (db *DB) replay(files []walFile, coveredWAL uint64) (uint64, error) {
	n := runtime.GOMAXPROCS(0)
	// Each inserter has two batches queued and one in hand at most, and
	// the decoder fills one more: free can hold every batch there is.
	free := make(chan *replayBatch, 4*n)
	work := make([]chan *replayBatch, n)
	var wg sync.WaitGroup
	for i := range work {
		work[i] = make(chan *replayBatch, 2) // two queued: work in hand while the decoder reads the next file
		wg.Add(1)
		go func(in <-chan *replayBatch) {
			defer wg.Done()
			inserted := 0
			for b := range in {
				for _, r := range b.recs {
					db.insertHead(r.topic, b.buf[r.lo:r.hi])
				}
				inserted += len(b.buf)
				b.recs, b.buf = b.recs[:0], b.buf[:0]
				select {
				case free <- b:
				default:
				}
			}
			db.headN.Add(int64(inserted))
		}(work[i])
	}
	fill := make([]*replayBatch, n)
	add := func(topic sensor.Topic, rs []sensor.Reading) {
		w := int(headShardIdx(topic)) % n
		b := fill[w]
		if b == nil {
			select {
			case b = <-free:
			default:
				b = new(replayBatch)
			}
			fill[w] = b
		}
		lo := len(b.buf)
		b.buf = append(b.buf, rs...)
		b.recs = append(b.recs, replayRec{topic: topic, lo: lo, hi: len(b.buf)})
		if len(b.buf) >= replayBatchLen {
			work[w] <- b
			fill[w] = nil
		}
	}
	maxWALSeq := coveredWAL
	var err error
	for _, wf := range files {
		if wf.seq <= coveredWAL {
			db.fs.Remove(wf.path) // flushed before the crash; leftover
			continue
		}
		skipped, at, rerr := replayWAL(db.fs, wf.path, func(topic sensor.Topic, rs []sensor.Reading) {
			// Drop readings below the persisted retention watermark: a
			// pre-crash Prune already removed them, and replaying them
			// into heads would skew head counts and later Prune totals.
			if db.floor > math.MinInt64 {
				live := rs[:0]
				for _, r := range rs {
					if r.Time >= db.floor {
						live = append(live, r)
					}
				}
				rs = live
			}
			if len(rs) > 0 {
				add(topic, rs)
			}
		})
		if rerr != nil {
			err = fmt.Errorf("tsdb: replaying %s: %w", wf.path, rerr)
			break
		}
		if skipped > 0 {
			db.metrics.walSkipped.Add(uint64(skipped))
			fmt.Fprintf(os.Stderr, "tsdb: WAL %s: skipped %d damaged records, the first at offset %d\n", wf.path, skipped, at)
		}
		maxWALSeq = max(maxWALSeq, wf.seq)
	}
	for w, b := range fill {
		if b != nil {
			work[w] <- b
		}
		close(work[w])
	}
	wg.Wait()
	return maxWALSeq, err
}

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }

// insertHead places rs in the topic's head, creating it on first sight —
// which it reports: lookup-or-create and append under one hold of the
// shard's lock, so a flush dropping empty heads can never strand an
// insert in a head the map no longer reaches.
func (db *DB) insertHead(topic sensor.Topic, rs []sensor.Reading) (created bool) {
	sh := &db.shards[headShardIdx(topic)]
	sh.mu.Lock()
	h := sh.heads[topic]
	created = h == nil
	if created {
		h = &head{}
		sh.heads[topic] = h
	}
	h.insert(rs, &sh.free)
	sh.mu.Unlock()
	return created
}

// InsertBatch logs and buffers one topic's reading batch: InsertBatches
// of one batch.
func (db *DB) InsertBatch(topic sensor.Topic, rs []sensor.Reading) {
	db.InsertBatches([]store.Batch{{Topic: topic, Readings: rs}})
}

// InsertBatches logs and buffers a burst of batches: their WAL records
// go out in one write under one shared ingest lock, then each batch takes
// its head shard's lock. Concurrent bursts share an fsync under
// Options.WALSync and never touch a common lock beyond the shared ingest
// read-lock and the WAL's own. When the call returns every batch is in its
// head and, unless the WAL is degraded, in the WAL (fsynced under
// Options.WALSync) — exactly what a returned InsertBatch per element
// would mean.
func (db *DB) InsertBatches(bs []store.Batch) {
	n := 0
	for _, b := range bs {
		n += len(b.Readings)
	}
	if n == 0 {
		return
	}
	db.ingest.RLock()
	defer db.ingest.RUnlock()
	// A failing WAL (disk full, dead device) must not lose data silently
	// while the process lives: the failure stays in the WAL, which appends
	// nothing more, and the heads keep serving; Stats and Close report it.
	// A later successful Flush covers the un-logged heads with a segment
	// and re-arms the fresh WAL.
	db.wal.Append(bs)
	for _, b := range bs {
		if len(b.Readings) == 0 {
			continue
		}
		if db.insertHead(b.Topic, b.Readings) {
			db.index(b.Topic)
		}
	}
	if now := db.headN.Add(int64(n)); now >= maxHeadReadings && now-int64(n) < maxHeadReadings {
		// This burst took the heads across their bound: have the janitor
		// flush now rather than at its next pass. Only the crossing sends,
		// so a flush that fails is retried on the timer, not in a loop;
		// without a janitor the channel is nil and nothing is sent.
		select {
		case db.headFull <- struct{}{}:
		default:
		}
	}
	if db.headSince.Load() == 0 {
		db.headSince.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// index lists the topic of a head an insert just created. A topic is
// indexed when its head is created, not per batch: a flush that drops an
// empty head leaves the topic indexed, for its segment; a prune that
// drops one may unlist it, and the insert that revives it comes through
// here. The check runs after the data is live, so a prune's rebuild
// either sees the head or ends before the check, which then lists the
// topic. Mostly the topic is listed already and the check costs a shared
// hold of db.mu, which waits for reads in flight only while a
// registration or a prune waits for them; only a topic the index lacks
// takes db.mu exclusively.
func (db *DB) index(topic sensor.Topic) {
	db.mu.RLock()
	listed := db.idx.has[topic]
	db.mu.RUnlock()
	if listed {
		return
	}
	db.mu.Lock()
	db.idx.Add(topic)
	db.mu.Unlock()
}

// betweenTiers runs the test seam, if one is set.
func (db *DB) betweenTiers() {
	if db.seam != nil {
		db.seam()
	}
}

// noteFlushError records a failed flush (sticky until one succeeds) so
// a database wedged on a full disk is visible in Stats, not only in the
// janitor's stderr.
func (db *DB) noteFlushError(err error) {
	db.metrics.flushFailures.Inc()
	db.flushErr.Store(&err)
}

// metaPath holds the persisted retention watermark.
func metaPath(dir string) string { return filepath.Join(dir, "meta.json") }

type metaFile struct {
	Floor int64 `json:"floor"`
}

// loadFloor reads the persisted retention watermark; a missing or
// unreadable meta file means no watermark (the janitor re-derives it on
// its first retention pass).
func loadFloor(fs FS, dir string) int64 {
	raw, err := fs.ReadFile(metaPath(dir))
	if err != nil {
		return math.MinInt64
	}
	var m metaFile
	if json.Unmarshal(raw, &m) != nil || m.Floor == 0 {
		return math.MinInt64
	}
	return m.Floor
}

// saveFloor persists the watermark atomically and durably
// (writeDurably). Best-effort: a failure merely resurrects
// already-expired readings until the next retention pass.
func saveFloor(fs FS, dir string, floor int64) {
	raw, err := json.Marshal(metaFile{Floor: floor})
	if err == nil {
		_ = writeDurably(fs, metaPath(dir), func(f File) error {
			_, err := f.Write(raw)
			return err
		})
	}
}

// Range implements store.Backend: segments first (oldest flush to
// newest), then the head, under one shared hold of db.mu. The merged
// result is re-sorted only when an out-of-order insert straddled a flush
// boundary.
func (db *DB) Range(topic sensor.Topic, t0, t1 int64, dst []sensor.Reading) []sensor.Reading {
	if t1 < t0 {
		return dst
	}
	base := len(dst)
	db.mu.RLock()
	lo := max(t0, db.floor)
	for _, s := range db.segs {
		// An unreadable or corrupt chunk is skipped whole — partial
		// decodes are truncated away so a silently cut-short series
		// never masquerades as a complete answer.
		mark := len(dst)
		res, err := s.appendRange(topic, lo, t1, dst)
		if err != nil {
			dst = res[:mark]
			continue
		}
		dst = res
	}
	db.betweenTiers()
	sh := &db.shards[headShardIdx(topic)]
	sh.mu.RLock()
	dst = sh.heads[topic].appendRange(lo, t1, dst)
	sh.mu.RUnlock()
	db.mu.RUnlock()
	if !sortedFrom(dst, base) {
		sort.SliceStable(dst[base:], func(i, j int) bool {
			return dst[base+i].Time < dst[base+j].Time
		})
	}
	return dst
}

func sortedFrom(rs []sensor.Reading, start int) bool {
	for i := start + 1; i < len(rs); i++ {
		if rs[i].Time < rs[i-1].Time {
			return false
		}
	}
	return true
}

// Latest implements store.Backend. Because a late out-of-order arrival
// can leave the head's newest reading older than a flushed segment's,
// every tier whose time bound can beat the current best is consulted.
func (db *DB) Latest(topic sensor.Topic) (sensor.Reading, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sh := &db.shards[headShardIdx(topic)]
	sh.mu.RLock()
	best, found := sh.heads[topic].latest(db.floor)
	sh.mu.RUnlock()
	db.betweenTiers()
	for i := len(db.segs) - 1; i >= 0; i-- {
		ss, ok := db.segs[i].series[topic]
		if !ok || ss.maxT < db.floor || (found && ss.maxT <= best.Time) {
			continue
		}
		if r, ok, err := db.segs[i].latest(topic, db.floor); err == nil && ok &&
			(!found || r.Time > best.Time) {
			best, found = r, true
		}
	}
	return best, found
}

// Count implements store.Backend.
func (db *DB) Count(topic sensor.Topic) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, s := range db.segs {
		if c, err := s.countFrom(topic, db.floor); err == nil {
			n += c
		}
	}
	db.betweenTiers()
	sh := &db.shards[headShardIdx(topic)]
	sh.mu.RLock()
	n += sh.heads[topic].countFrom(db.floor)
	sh.mu.RUnlock()
	return n
}

// liveTopics returns the set of topics with at least one live reading.
// The caller holds db.mu, so no segment registration or prune falls
// between the stripes, which are read one at a time.
func (db *DB) liveTopics() map[sensor.Topic]bool {
	var seen map[sensor.Topic]bool
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		if seen == nil {
			seen = make(map[sensor.Topic]bool, (len(sh.heads)+1)*headShardCount)
		}
		for t, h := range sh.heads {
			if h.countFrom(db.floor) > 0 {
				seen[t] = true
			}
		}
		sh.mu.RUnlock()
	}
	db.betweenTiers()
	for _, s := range db.segs {
		for t, ss := range s.series {
			if !seen[t] && ss.maxT >= db.floor {
				seen[t] = true
			}
		}
	}
	return seen
}

// Topics implements store.Backend.
func (db *DB) Topics() []sensor.Topic {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return sortedTopics(db.liveTopics())
}

func sortedTopics(seen map[sensor.Topic]bool) []sensor.Topic {
	out := make([]sensor.Topic, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalReadings returns the number of live readings across all series.
func (db *DB) TotalReadings() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.liveReadings()
}

// liveReadings counts the live readings across all series. The caller
// holds db.mu, under which alone segment counts and prune bookkeeping
// change (no chunk decodes here).
func (db *DB) liveReadings() int {
	n := 0
	for _, s := range db.segs {
		for _, ss := range s.series {
			n += ss.count
		}
		n -= s.prunedCount
	}
	db.betweenTiers()
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, h := range sh.heads {
			n += h.countFrom(db.floor)
		}
		sh.mu.RUnlock()
	}
	return n
}

// Flush writes every head into one new immutable segment and
// retires the WAL files the segment now covers. A flush with empty heads
// only rotates the WAL. Safe to call concurrently with inserts and
// queries: the readings stay in their heads, sealed, for the entire
// segment-write window, and leave them only as the segment is registered.
// Ingest is shut out only while the heads are sealed and the WAL handle
// swapped — memory operations; every file operation (creating the next
// WAL file, syncing the retired one, the segment write) runs with inserts
// flowing.
func (db *DB) Flush() error {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	flushStart := telemetry.Clock()
	defer db.metrics.flushSeconds.ObserveSince(flushStart)
	db.metrics.flushes.Inc()
	nextWAL, err := db.wal.openNext()
	if err != nil {
		// Nothing is sealed or switched yet: the heads and the active WAL
		// file are as they were.
		ferr := fmt.Errorf("tsdb: rotating WAL: %w", err)
		db.noteFlushError(ferr)
		return ferr
	}
	db.ingest.Lock()
	held := telemetry.Clock()
	// Atomically: seal every head's readings in place, rotate the WAL.
	// Inserts resume into the heads' data runs + the new WAL file while
	// the segment is written from the sealed runs. What a reader finds
	// for a topic does not change, so db.mu is not involved.
	sealed := make(map[sensor.Topic][][]sensor.Reading)
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for t, h := range sh.heads {
			if run := h.seal(); len(run) > 0 {
				sealed[t] = run
			}
		}
		sh.mu.Unlock()
	}
	db.sealedN.Store(db.headN.Swap(0))
	db.headSince.Store(0)
	segSeq := db.segSeq
	db.segSeq++
	// A degraded WAL re-arms here, before inserts resume: the rotate
	// produced a fresh untorn file, and everything the old WAL missed is
	// sealed and bound for the segment. Clearing later (after the
	// segment write) would let inserts racing that window skip the WAL
	// and then report healthy.
	retired, retiredWAL, prevWALErr := db.wal.rotate(nextWAL)
	db.ingest.Unlock()
	db.metrics.flushExclusive.ObserveSince(held)

	// The retired WAL file is made durable before the segment that covers
	// it is written, and deleted only after that segment is registered.
	walDir := filepath.Join(db.dir, "wal")
	var seg *segment
	var decimal int
	err = retired.Sync()
	retired.Close() // synced, or the flush fails: a close error changes neither
	if err != nil {
		err = fmt.Errorf("tsdb: syncing retired WAL: %w", err)
	} else if len(sealed) > 0 {
		seg, decimal, err = writeSegment(db.fs, filepath.Join(db.dir, "seg"), segSeq, retiredWAL, sealed)
		if err != nil {
			err = fmt.Errorf("tsdb: writing segment: %w", err)
		}
	}
	if err != nil {
		// The flush failed: the heads take their sealed runs back and
		// memory keeps serving them; the retired WAL files stay for
		// recovery. If the WAL had been degraded, the heads contain
		// readings in no log or segment — stay degraded until a flush
		// succeeds.
		db.unseal()
		db.wal.restore(prevWALErr)
		db.noteFlushError(err)
		return err
	}
	if seg != nil {
		seg.decodes = db.metrics.chunkDecodes
		db.metrics.flushedRead.Add(uint64(db.sealedN.Load()))
		db.metrics.decimalChunks.Add(uint64(decimal))
		db.metrics.xorChunks.Add(uint64(len(seg.series) - decimal))
		// Register the segment and release the sealed runs it now holds, as
		// one relocation under db.mu held exclusively: a reader, which
		// holds it shared, sees the readings in exactly one tier. The
		// sealed blocks become the shard's free list, and heads left with
		// nothing leave their maps.
		db.mu.Lock()
		db.segs = append(db.segs, seg)
		for i := range db.shards {
			sh := &db.shards[i]
			sh.mu.Lock()
			sh.free.reset()
			for t, h := range sh.heads {
				h.release(&sh.free)
				if len(h.blocks) == 0 {
					delete(sh.heads, t)
				}
			}
			sh.mu.Unlock()
		}
		db.sealedN.Store(0)
		db.mu.Unlock()
	}
	// With nothing sealed, the retired WAL files hold nothing beyond what
	// segments already cover.
	db.removeWALThrough(walDir, retiredWAL)
	db.flushErr.Store(nil) // space returned, or the device recovered
	return nil
}

// unseal ends a failed flush: every head takes its sealed run back in
// front of what arrived meanwhile, so the next flush retries with all of
// it. A topic's readings are the same before and after, shard by shard,
// so readers are neither blocked on db.mu nor made to retry.
func (db *DB) unseal() {
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for _, h := range sh.heads {
			h.unseal(&sh.free)
		}
		sh.mu.Unlock()
	}
	if n := db.sealedN.Swap(0); n > 0 {
		db.headN.Add(n)
		db.headSince.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// removeWALThrough deletes WAL files with sequence <= maxSeq. Failures
// are harmless: recovery skips covered files by sequence.
func (db *DB) removeWALThrough(walDir string, maxSeq uint64) {
	files, err := listWAL(db.fs, walDir)
	if err != nil {
		return
	}
	for _, wf := range files {
		if wf.seq <= maxSeq {
			db.fs.Remove(wf.path)
		}
	}
}

// Prune implements store.Backend: it advances the retention watermark,
// physically trims the heads, rebuilds the prefix index, deletes
// fully-expired segment files and returns the number of readings newly
// removed. The watermark persists across restarts (meta.json), so expired
// readings do not resurrect when segments and WAL are reloaded.
func (db *DB) Prune(cutoff int64) int {
	db.flushMu.Lock() // serialise against Flush: segs/head bookkeeping
	defer db.flushMu.Unlock()
	pruneStart := telemetry.Clock()
	defer db.metrics.pruneSeconds.ObserveSince(pruneStart)
	db.mu.RLock()
	floor, segs := db.floor, db.segs
	db.mu.RUnlock()
	if cutoff <= floor {
		return 0
	}

	// Chunk decodes (countBelow) run without any db-wide lock: segments
	// are immutable and flushMu keeps the set stable. Inserts and
	// queries proceed throughout.
	removed := 0
	kept := make([]*segment, 0, len(segs))
	newPruned := make(map[*segment]int)
	var expired []*segment
	for _, s := range segs {
		if s.maxT < cutoff {
			expired = append(expired, s)
			continue
		}
		if s.minT < cutoff {
			// Watermark cuts through this segment: count what it newly
			// hides, on top of what previous prunes already counted.
			// Only Prune mutates prunedCount, and flushMu serialises
			// Prunes, so reading it here is safe.
			if below, err := s.countBelow(cutoff); err == nil && below != s.prunedCount {
				removed += below - s.prunedCount
				newPruned[s] = below
			}
		}
		kept = append(kept, s)
	}

	// The floor, the prune bookkeeping TotalReadings reads, the segment
	// list, the heads and the prefix index change in one exclusive
	// section, so a read sees the prune wholly before or wholly after it.
	// An insert that creates a head during the section indexes its topic
	// after it, should the rebuild have left the topic out.
	db.mu.Lock()
	db.floor = cutoff
	for s, n := range newPruned {
		s.prunedCount = n
	}
	db.segs = kept
	headDropped := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for t, h := range sh.heads {
			headDropped += h.prune(cutoff, &sh.free)
			if len(h.blocks) == 0 {
				delete(sh.heads, t)
			}
		}
		sh.mu.Unlock()
	}
	changed := len(newPruned) > 0 || len(expired) > 0 || headDropped > 0
	if changed {
		db.idx.Reset(db.liveTopics())
	}
	db.mu.Unlock()
	removed += headDropped
	db.headN.Add(int64(-headDropped))
	// No read can be inside an expired segment once the swap is done.
	for _, s := range expired {
		total := 0
		for _, ss := range s.series {
			total += ss.count
		}
		removed += total - s.prunedCount
		s.close()
		db.fs.Remove(s.path)
	}
	// Persist the watermark only when it actually hid or dropped
	// something: a janitor pass on an idle window then costs no write.
	if changed {
		saveFloor(db.fs, db.dir, cutoff)
		if db.opts.OnPrune != nil {
			db.opts.OnPrune(cutoff, removed)
		}
	}
	if removed > 0 {
		db.metrics.prunedReadings.Add(uint64(removed))
	}
	return removed
}

// TopicsPrefix implements store.Backend: the sorted live topics at
// or below prefix, answered from the incrementally-maintained prefix
// index in O(log n + matches) under a shared hold of db.mu.
func (db *DB) TopicsPrefix(prefix sensor.Topic) []sensor.Topic {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.idx.Prefix(prefix, nil)
}

// Stats implements store.Backend. The segment count, the disk bytes of
// the segments, the topic count and the live readings come from one
// shared hold of db.mu, so no flush or prune falls between them.
func (db *DB) Stats() store.BackendStats {
	st := store.BackendStats{
		Kind: "tsdb",
		// Sealed mid-flush is still memory-resident.
		HeadReadings: int(db.headN.Load() + db.sealedN.Load()),
	}
	db.mu.RLock()
	st.Segments = len(db.segs)
	for _, s := range db.segs {
		st.DiskBytes += s.size
	}
	st.Topics = len(db.liveTopics())
	st.TotalReadings = db.liveReadings()
	db.mu.RUnlock()
	if err := db.wal.failure(); err != nil {
		st.Error = fmt.Sprintf("WAL degraded, recent data not durable: %v", err)
	}
	if err := db.flushErr.Load(); err != nil {
		if st.Error != "" {
			st.Error += "; "
		}
		st.Error += fmt.Sprintf("last flush failed, head data retained in memory: %v", *err)
	}
	walDir := filepath.Join(db.dir, "wal")
	if files, err := listWAL(db.fs, walDir); err == nil {
		for _, wf := range files {
			if fi, err := db.fs.Stat(wf.path); err == nil {
				st.WALFiles++
				st.WALBytes += fi.Size()
			}
		}
	}
	st.DiskBytes += st.WALBytes
	return st
}

// Close stops the janitor, flushes outstanding heads into a final
// segment and closes every file, releasing the directory lock. In-flight
// inserts finish first (Flush waits them out, and wal.Close waits out an
// fsync in flight), so every acknowledged InsertBatch is on disk before
// the process moves on. After a clean Close the WAL is empty and
// reopening serves entirely from segments. A WAL failure during the
// DB's lifetime (data served from memory but not durable) surfaces in
// the returned error.
func (db *DB) Close() error {
	db.closeOnce.Do(func() {
		if db.janitorStop != nil {
			close(db.janitorStop)
			<-db.janitorDone
		}
		err := db.Flush()
		if werr := db.wal.Close(); err == nil {
			err = werr
		}
		db.mu.Lock()
		for _, s := range db.segs {
			if cerr := s.close(); err == nil {
				err = cerr
			}
		}
		db.mu.Unlock()
		if werr := db.wal.failure(); err == nil && werr != nil {
			err = fmt.Errorf("tsdb: WAL degraded during run, recent data may not be durable: %w", werr)
		}
		if db.lock != nil {
			db.lock.Close()
		}
		db.metrics.closeMetrics()
		db.closeErr = err
	})
	return db.closeErr
}

// Abandon simulates a process kill for crash-recovery tests and drills:
// it stops the janitor and releases every file handle — including the
// directory lock, exactly as process death would — WITHOUT flushing
// heads or syncing the WAL. An fsync in flight is waited out (an
// acknowledged Append is on disk; an unacknowledged one may or may not
// be, exactly the kill semantics). The on-disk state is what a SIGKILL
// leaves behind; the DB must not be used afterwards.
func (db *DB) Abandon() {
	db.closeOnce.Do(func() {
		if db.janitorStop != nil {
			close(db.janitorStop)
			<-db.janitorDone
		}
		db.wal.abandon()
		db.mu.Lock()
		for _, s := range db.segs {
			s.close()
		}
		db.mu.Unlock()
		if db.lock != nil {
			db.lock.Close()
		}
		db.metrics.closeMetrics()
		db.closeErr = fmt.Errorf("tsdb: database was abandoned")
	})
}
