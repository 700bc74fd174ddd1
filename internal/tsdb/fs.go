package tsdb

import (
	"io"
	"os"
)

// FS abstracts every file operation the database performs inside its
// directory — WAL appends and fsyncs, segment writes, renames, directory
// syncs, meta-file updates, listing and deletion — so tests and the
// chaos harness (internal/chaos) can inject failing, stalling or
// torn-write filesystems underneath an otherwise-real DB via Options.FS.
// The production implementation is OSFS.
//
// The directory LOCK file is deliberately exempt: flock semantics need a
// real *os.File descriptor, and a faulty lock is not an interesting
// failure mode for the engine (it fails Open, nothing else).
type FS interface {
	// MkdirAll creates a directory path like os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// OpenFile opens a file like os.OpenFile (WAL files use
	// O_CREATE|O_WRONLY|O_APPEND).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens a file read-only like os.Open.
	Open(name string) (File, error)
	// Create truncate-creates a writable file like os.Create.
	Create(name string) (File, error)
	// ReadDir lists a directory like os.ReadDir.
	ReadDir(name string) ([]os.DirEntry, error)
	// ReadFile slurps a file like os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// Rename atomically moves a file like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove deletes a file like os.Remove.
	Remove(name string) error
	// Stat stats a path like os.Stat.
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs a directory so a preceding rename or create is
	// durable against OS crashes.
	SyncDir(name string) error
}

// File is the subset of *os.File the database uses on open handles.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync fsyncs the file like (*os.File).Sync.
	Sync() error
	// Stat stats the open file like (*os.File).Stat.
	Stat() (os.FileInfo, error)
}

// OSFS is the production filesystem: thin pass-throughs to the os
// package. It is the default for Options.FS.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
