// Package segstore is the durable layer under the in-memory fragment
// store: an append-only, CRC-checksummed segment log plus periodic
// atomic snapshots, living in one directory. A stream.Server writes
// every published fragment to it (write-ahead of delivery) and uses it as
// the bootstrap source that outlives the bounded in-memory replay window;
// xcqlrun -store-dir logs the fragments it stores (the in-memory
// fragment.Store knows nothing of the log); and on open
// the store recovers exactly the committed prefix of the log — torn
// tails are truncated, corrupt interior segments are quarantined and
// reported, and nothing is ever narrowed silently.
//
// Layout of a store directory:
//
//	seg-<16-hex-lsn>.seg      sealed and active log segments; the name
//	                          carries the LSN of the segment's first
//	                          record, so lexical order is log order
//	cseg-<…>-<k>.seg          compacted segments an earlier build wrote,
//	                          frames grouped by tsid; recovered as any
//	                          segment and absorbed by the next snapshot
//	snap-<16-hex-gen>.snap    generation-stamped snapshots; only the
//	                          newest valid one is live
//	*.quarantine              corrupt files set aside by recovery
//	*.tmp                     in-flight atomic writes; removed on open
//
// Every durable mutation goes through the FS interface so tests can
// inject filesystem faults (FaultFS): short writes, fsync errors, bit
// flips, and hard crash points at every write/rename boundary.
package segstore

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the slice of filesystem behaviour the store needs. OSFS is the
// real one; FaultFS wraps any FS with deterministic faults.
type FS interface {
	// OpenFile opens with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadDir lists a directory (sorted by name, like os.ReadDir).
	ReadDir(name string) ([]os.DirEntry, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(name string, perm os.FileMode) error
	// Truncate cuts a file to size bytes (torn-tail repair).
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames/creates durable.
	SyncDir(name string) error
}

// File is the store's view of one open file.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage.
	Sync() error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (OSFS) Rename(oldname, newname string) error       { return os.Rename(oldname, newname) }
func (OSFS) Remove(name string) error                   { return os.Remove(name) }
func (OSFS) MkdirAll(name string, perm os.FileMode) error {
	return os.MkdirAll(name, perm)
}
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OSFS) SyncDir(name string) error {
	d, err := os.Open(filepath.Clean(name))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// readAll reads a whole file through an FS.
func readAll(fs FS, name string) ([]byte, error) {
	f, err := fs.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
