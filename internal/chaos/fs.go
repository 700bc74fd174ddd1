// Package chaos is the cluster-in-a-process fault-injection harness:
// it drives fleets of simulated pushers (internal/sim) through the real
// broker → collect → tsdb → REST pipeline in one process, injects
// faults underneath and around it — torn WAL writes, failed and
// stalling fsyncs, a full disk (ENOSPC), killed pusher connections,
// clock skew, out-of-order floods — and
// reconciles every reading sent against what the store reports
// afterwards. Pushers run with the transport's at-least-once spool by
// default, and the broker's dedup keeps the store exactly-once, so a
// passing verdict means zero lost readings, period: nothing acked-lost,
// nothing unacked-dropped, nothing duplicated, nothing corrupted.
//
// The three pieces are FS (a fault-injecting tsdb.FS), Ledger (the
// exact per-reading accounting) and Scenario (the seeded, deterministic
// runner that wires them to a live Agent and emits a Verdict). Run it
// via cmd/chaosrunner, `make chaos` or `make chaos-smoke`; the verdict
// format is documented in docs/TESTING.md.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/tsdb"
)

// Op names a filesystem operation class a fault rule can match.
type Op uint8

// Filesystem operations that fault rules target. OpWrite and OpSync
// cover open-handle writes/fsyncs (the WAL append path); the rest map
// one-to-one onto tsdb.FS methods.
const (
	OpWrite Op = iota
	OpSync
	OpSyncDir
	OpCreate
	OpRename
	OpRemove
	OpOpen
	numOps
)

// String returns the operation's verdict-friendly name.
func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpSyncDir:
		return "syncdir"
	case OpCreate:
		return "create"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpOpen:
		return "open"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Class partitions the database's files by role, so a rule can target
// WAL appends without also breaking segment or meta writes.
type Class uint8

// File classes derived from the path the operation touches.
const (
	// ClassWAL matches write-ahead-log files (*.wal).
	ClassWAL Class = iota
	// ClassSeg matches immutable segment files (*.seg and their *.tmp
	// staging twins).
	ClassSeg
	// ClassMeta matches everything else in the database directory:
	// meta/floor files and directory-level operations.
	ClassMeta
	numClasses
)

// String returns the class's verdict-friendly name.
func (c Class) String() string {
	switch c {
	case ClassWAL:
		return "wal"
	case ClassSeg:
		return "seg"
	case ClassMeta:
		return "meta"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// classify maps a path to its file class by suffix.
func classify(name string) Class {
	switch {
	case strings.HasSuffix(name, ".wal"):
		return ClassWAL
	case strings.HasSuffix(name, ".seg"), strings.HasSuffix(name, ".tmp"):
		return ClassSeg
	default:
		return ClassMeta
	}
}

// ErrInjected is the default error returned by an injected fault; loss
// accounting treats any operation failing with it as chaos-induced, not
// an environment problem.
var ErrInjected = errors.New("chaos: injected fault")

// Fault is one active fault rule: with probability P the matched
// operation first stalls for Stall, then (unless the rule is
// stall-only) fails with Err. Partial additionally applies to OpWrite:
// the first half of the buffer reaches the file before the error, the
// torn-write case a crashed writer leaves behind.
type Fault struct {
	// P is the per-operation injection probability in [0, 1].
	P float64
	// Err is the error returned on injection; nil selects ErrInjected.
	// StallOnly suppresses it.
	Err error
	// Stall delays the operation before it proceeds or fails.
	Stall time.Duration
	// StallOnly makes the rule a pure delay: the operation still
	// succeeds after Stall.
	StallOnly bool
	// Partial makes an injected OpWrite persist a prefix of the buffer
	// before failing (a torn write). Ignored for other ops.
	Partial bool
}

// FS is a fault-injecting tsdb.FS: it forwards every operation to a
// real filesystem underneath, except when an active fault rule keyed by
// (Op, Class) fires. Rules are installed and cleared at runtime by the
// scenario's fault schedule; injections are counted per (Op, Class) for
// the verdict. Safe for concurrent use.
type FS struct {
	inner tsdb.FS

	mu    sync.Mutex
	rng   *rand.Rand
	rules [numOps][numClasses]*Fault
	hits  [numOps][numClasses]uint64
}

// NewFS wraps inner (nil selects tsdb.OSFS) with a fault layer drawing
// injection decisions from the given seed.
func NewFS(inner tsdb.FS, seed int64) *FS {
	if inner == nil {
		inner = tsdb.OSFS
	}
	return &FS{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// Set installs (or replaces) the fault rule for one (op, class) pair.
func (f *FS) Set(op Op, class Class, fault Fault) {
	f.mu.Lock()
	cp := fault
	f.rules[op][class] = &cp
	f.mu.Unlock()
}

// Clear removes the fault rule for one (op, class) pair.
func (f *FS) Clear(op Op, class Class) {
	f.mu.Lock()
	f.rules[op][class] = nil
	f.mu.Unlock()
}

// ClearAll removes every fault rule; injection counters are kept.
func (f *FS) ClearAll() {
	f.mu.Lock()
	f.rules = [numOps][numClasses]*Fault{}
	f.mu.Unlock()
}

// Injected returns the per-rule injection counts keyed "op/class"
// (e.g. "sync/wal"), omitting zero entries.
func (f *FS) Injected() map[string]uint64 {
	out := make(map[string]uint64)
	f.mu.Lock()
	for op := Op(0); op < numOps; op++ {
		for c := Class(0); c < numClasses; c++ {
			if n := f.hits[op][c]; n > 0 {
				out[op.String()+"/"+c.String()] = n
			}
		}
	}
	f.mu.Unlock()
	return out
}

// InjectedTotal returns the total number of injected faults.
func (f *FS) InjectedTotal() uint64 {
	var n uint64
	for _, v := range f.Injected() {
		n += v
	}
	return n
}

// decide rolls the dice for one operation. It returns the matched fault
// (stall already recorded) or nil when the operation proceeds cleanly.
func (f *FS) decide(op Op, class Class) *Fault {
	f.mu.Lock()
	rule := f.rules[op][class]
	if rule == nil || rule.P <= 0 || f.rng.Float64() >= rule.P {
		f.mu.Unlock()
		return nil
	}
	f.hits[op][class]++
	f.mu.Unlock()
	return rule
}

// faultErr resolves the error an injected (non-stall-only) fault yields.
func faultErr(rule *Fault) error {
	if rule.Err != nil {
		return rule.Err
	}
	return ErrInjected
}

// apply runs the stall/fail protocol for an injected rule. It returns
// the injected error, or nil when the rule is stall-only and the
// operation should proceed.
func apply(rule *Fault) error {
	if rule == nil {
		return nil
	}
	if rule.Stall > 0 {
		time.Sleep(rule.Stall)
	}
	if rule.StallOnly {
		return nil
	}
	return faultErr(rule)
}

// MkdirAll implements tsdb.FS; never faulted (a database that cannot
// create its directory fails Open, which is not an interesting run).
func (f *FS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

// OpenFile implements tsdb.FS. An OpOpen fault fails the open; a
// successful open returns a handle whose Write and Sync consult the
// fault table on every call.
func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (tsdb.File, error) {
	class := classify(name)
	if err := apply(f.decide(OpOpen, class)); err != nil {
		return nil, err
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &chaosFile{File: file, fs: f, class: class}, nil
}

// Open implements tsdb.FS. Read-only opens share the OpOpen rule.
func (f *FS) Open(name string) (tsdb.File, error) {
	class := classify(name)
	if err := apply(f.decide(OpOpen, class)); err != nil {
		return nil, err
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &chaosFile{File: file, fs: f, class: class}, nil
}

// Create implements tsdb.FS, subject to OpCreate rules.
func (f *FS) Create(name string) (tsdb.File, error) {
	class := classify(name)
	if err := apply(f.decide(OpCreate, class)); err != nil {
		return nil, err
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &chaosFile{File: file, fs: f, class: class}, nil
}

// ReadDir implements tsdb.FS; never faulted (listing happens at Open).
func (f *FS) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }

// ReadFile implements tsdb.FS; never faulted (replay reads happen at
// Open, where torn tails — produced by write faults — are the
// interesting input, not read errors).
func (f *FS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

// Rename implements tsdb.FS, subject to OpRename rules.
func (f *FS) Rename(oldpath, newpath string) error {
	if err := apply(f.decide(OpRename, classify(newpath))); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements tsdb.FS, subject to OpRemove rules.
func (f *FS) Remove(name string) error {
	if err := apply(f.decide(OpRemove, classify(name))); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// Stat implements tsdb.FS; never faulted.
func (f *FS) Stat(name string) (os.FileInfo, error) { return f.inner.Stat(name) }

// SyncDir implements tsdb.FS, subject to OpSyncDir rules (class meta:
// directory syncs are not per-file).
func (f *FS) SyncDir(name string) error {
	if err := apply(f.decide(OpSyncDir, ClassMeta)); err != nil {
		return err
	}
	return f.inner.SyncDir(name)
}

// chaosFile decorates an open handle: Write and Sync consult the fault
// table on every call, so a rule installed mid-run bites an
// already-open WAL exactly like a disk going bad under a live file.
type chaosFile struct {
	tsdb.File
	fs    *FS
	class Class
}

// Write applies OpWrite rules: an injected Partial fault forwards the
// first half of the buffer before failing, modelling a torn append.
func (c *chaosFile) Write(p []byte) (int, error) {
	if rule := c.fs.decide(OpWrite, c.class); rule != nil {
		if rule.Stall > 0 {
			time.Sleep(rule.Stall)
		}
		if !rule.StallOnly {
			n := 0
			if rule.Partial && len(p) > 1 {
				n, _ = c.File.Write(p[:len(p)/2])
			}
			return n, faultErr(rule)
		}
	}
	return c.File.Write(p)
}

// Sync applies OpSync rules — the mid-group-commit fsync stall/fail
// faults the WAL leader path is gated on.
func (c *chaosFile) Sync() error {
	if err := apply(c.fs.decide(OpSync, c.class)); err != nil {
		return err
	}
	return c.File.Sync()
}
