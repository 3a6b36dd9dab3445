// Package faultfs is an in-memory vfs.FS that models what a real disk
// does under power loss, for crash-safety testing of the version store.
//
// Every file tracks two states: its volatile content (what the running
// process reads back) and its durable content (what survives a crash —
// the content as of the last File.Sync). The directory namespace is
// likewise split: creates, renames, and removals are visible immediately
// but survive a crash only if the parent directory was SyncDir'd
// afterwards. The model is deliberately adversarial within POSIX's
// allowances:
//
//   - data written but never fsynced is TORN on crash: if the file's name
//     is durable, a prefix of the unsynced bytes survives (the classic
//     half-written page), otherwise the file vanishes entirely;
//   - a rename that was not followed by a directory sync is rolled back —
//     the old name comes back with its own durable content;
//   - a removal without a directory sync is undone (the file reappears).
//
// Faults are injected by operation index: FailAt(n) makes the nth
// mutating operation (create, write, sync, rename, remove, mkdir,
// sync-dir) fail with ErrInjected — a failing write additionally applies a
// short (half-length) write, simulating a torn sector. Crash() then
// collapses the filesystem to its durable state and returns a fresh,
// fault-free FS to "reboot" against.
package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"charles/internal/vfs"
)

// ErrInjected is returned by the one operation FailAt armed.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed is returned by every operation after Crash.
var ErrCrashed = errors.New("faultfs: filesystem crashed")

// memFile is one inode: volatile content plus the durable snapshot taken
// at the last Sync (nil until the first Sync).
type memFile struct {
	data   []byte
	synced []byte
	hasSyn bool
}

// FS implements vfs.FS in memory with crash semantics. Safe for
// concurrent use.
type FS struct {
	mu          sync.Mutex
	files       map[string]*memFile // volatile namespace
	dirs        map[string]bool     // volatile directories
	durable     map[string]*memFile // durably linked names (dir-synced)
	durableDirs map[string]bool

	ops     int // mutating operations performed
	failAt  int // operation index to fault; -1 = never
	faulted bool
	crashed bool
}

// New returns an empty, fault-free filesystem rooted at "/".
func New() *FS {
	return &FS{
		files:       map[string]*memFile{},
		dirs:        map[string]bool{".": true, "/": true},
		durable:     map[string]*memFile{},
		durableDirs: map[string]bool{".": true, "/": true},
		failAt:      -1,
	}
}

// FailAt arms the fault: the nth mutating operation from now (0-based,
// counted across create/write/sync/rename/remove/mkdir/sync-dir) returns
// ErrInjected. A failing write applies a torn half-write first.
func (f *FS) FailAt(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt = f.ops + n
}

// Ops reports how many mutating operations have been performed — run a
// workload once fault-free to learn its fault-point count.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Faulted reports whether the armed fault has fired.
func (f *FS) Faulted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faulted
}

// step counts one mutating operation and decides whether it faults.
// Caller holds f.mu.
func (f *FS) step() error {
	if f.crashed {
		return ErrCrashed
	}
	idx := f.ops
	f.ops++
	if idx == f.failAt {
		f.faulted = true
		return ErrInjected
	}
	return nil
}

func clean(path string) string { return filepath.Clean(path) }

// Crash simulates a power cut: the volatile state is discarded and a
// fresh fault-free FS holding only the durable state is returned. The
// receiver refuses all further operations with ErrCrashed.
func (f *FS) Crash() *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = true
	n := New()
	for name, mf := range f.durable {
		var content []byte
		switch {
		case mf.hasSyn:
			content = append([]byte(nil), mf.synced...)
		default:
			// Durably named but never fsynced: the metadata made it to
			// disk, the data only partially did. Keep a torn prefix.
			content = append([]byte(nil), mf.data[:len(mf.data)/2]...)
		}
		n.files[name] = &memFile{data: content, synced: append([]byte(nil), content...), hasSyn: true}
		n.durable[name] = n.files[name]
		// Parents of surviving files exist by construction.
		for d := filepath.Dir(name); d != "." && d != "/"; d = filepath.Dir(d) {
			n.dirs[d] = true
			n.durableDirs[d] = true
		}
	}
	for d := range f.durableDirs {
		n.dirs[d] = true
		n.durableDirs[d] = true
	}
	return n
}

// MkdirAll implements vfs.FS. Directory creation is modeled as durable
// immediately — the store only creates directories at open time, before
// any data is at stake, and SyncDir would persist them anyway.
func (f *FS) MkdirAll(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	path = clean(path)
	for d := path; d != "." && d != "/"; d = filepath.Dir(d) {
		f.dirs[d] = true
		f.durableDirs[d] = true
	}
	return nil
}

// ReadFile implements vfs.FS (reads are never faulted: read failures are
// IO errors, not crash-safety events).
func (f *FS) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	mf, ok := f.files[clean(path)]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), mf.data...), nil
}

// handle is an open File.
type handle struct {
	fs   *FS
	name string
	mf   *memFile
}

// Create implements vfs.FS. The parent directory must exist.
func (f *FS) Create(path string) (vfs.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return nil, err
	}
	path = clean(path)
	if dir := filepath.Dir(path); dir != "." && dir != "/" && !f.dirs[dir] {
		return nil, &fs.PathError{Op: "create", Path: path, Err: fs.ErrNotExist}
	}
	mf, ok := f.files[path]
	if ok {
		// Truncating an existing inode in place: volatile content resets;
		// what survives a crash is still governed by the durable links and
		// the last synced snapshot.
		mf.data = nil
	} else {
		mf = &memFile{}
		f.files[path] = mf
	}
	return &handle{fs: f, name: path, mf: mf}, nil
}

// Write appends to the file. A faulted write applies a torn half-write
// before reporting ErrInjected.
func (h *handle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.step(); err != nil {
		if errors.Is(err, ErrInjected) {
			h.mf.data = append(h.mf.data, p[:len(p)/2]...)
		}
		return 0, err
	}
	h.mf.data = append(h.mf.data, p...)
	return len(p), nil
}

// Sync makes the file's current content durable (content, not name — the
// name needs a SyncDir of the parent).
func (h *handle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.step(); err != nil {
		return err
	}
	h.mf.synced = append([]byte(nil), h.mf.data...)
	h.mf.hasSyn = true
	return nil
}

// Close implements vfs.File. Closing is free and never faulted — it
// provides no durability.
func (h *handle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	return nil
}

// Rename implements vfs.FS: atomic in the volatile namespace, durable only
// after SyncDir.
func (f *FS) Rename(oldPath, newPath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	oldPath, newPath = clean(oldPath), clean(newPath)
	mf, ok := f.files[oldPath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldPath, Err: fs.ErrNotExist}
	}
	delete(f.files, oldPath)
	f.files[newPath] = mf
	return nil
}

// Remove implements vfs.FS. The removal survives a crash only after the
// parent directory is synced.
func (f *FS) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	path = clean(path)
	if _, ok := f.files[path]; !ok {
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	delete(f.files, path)
	return nil
}

// SyncDir implements vfs.FS: the directory's volatile entry set (names
// created, renamed in or out, removed) becomes durable.
func (f *FS) SyncDir(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	path = clean(path)
	for name, mf := range f.files {
		if filepath.Dir(name) == path {
			f.durable[name] = mf
		}
	}
	for name := range f.durable {
		if filepath.Dir(name) == path {
			if _, ok := f.files[name]; !ok {
				delete(f.durable, name)
			}
		}
	}
	f.durableDirs[path] = true
	return nil
}

// memInfo implements fs.FileInfo / fs.DirEntry for memory entries.
type memInfo struct {
	name  string
	size  int64
	isDir bool
}

func (m memInfo) Name() string { return m.name }
func (m memInfo) Size() int64  { return m.size }
func (m memInfo) Mode() fs.FileMode {
	if m.isDir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (m memInfo) ModTime() time.Time         { return time.Time{} }
func (m memInfo) IsDir() bool                { return m.isDir }
func (m memInfo) Sys() any                   { return nil }
func (m memInfo) Type() fs.FileMode          { return m.Mode().Type() }
func (m memInfo) Info() (fs.FileInfo, error) { return m, nil }
func (m memInfo) String() string             { return fmt.Sprintf("faultfs entry %s", m.name) }

// Stat implements vfs.FS.
func (f *FS) Stat(path string) (fs.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	path = clean(path)
	if mf, ok := f.files[path]; ok {
		return memInfo{name: filepath.Base(path), size: int64(len(mf.data))}, nil
	}
	if f.dirs[path] {
		return memInfo{name: filepath.Base(path), isDir: true}, nil
	}
	return nil, &fs.PathError{Op: "stat", Path: path, Err: fs.ErrNotExist}
}

// ReadDir implements vfs.FS.
func (f *FS) ReadDir(path string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	path = clean(path)
	if !f.dirs[path] {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	var out []fs.DirEntry
	for name, mf := range f.files {
		if filepath.Dir(name) == path {
			out = append(out, memInfo{name: filepath.Base(name), size: int64(len(mf.data))})
		}
	}
	for dir := range f.dirs {
		if filepath.Dir(dir) == path && dir != path {
			out = append(out, memInfo{name: filepath.Base(dir), isDir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

var _ vfs.FS = (*FS)(nil)
