package main

import (
	"io"
	"os"
	"sync"

	"probe/internal/disk"
)

// ramFS is the file system serve-mixed's durable store lives on: the
// store runs its whole write-ahead-log and checkpoint protocol —
// page images, checksums, the commit record, Sync at the commit point —
// against files held in memory. A Sync returns at once, so a
// checkpoint costs what the program does, not what a shared disk's
// flush happens to cost at that moment: on a 2-vCPU virtual machine
// with a virtual disk, a real flush made the median checkpoint three
// times slower and its time varied with other tenants' I/O.
type ramFS struct {
	mu    sync.Mutex
	files map[string]*ramFile
}

func newRAMFS() *ramFS { return &ramFS{files: make(map[string]*ramFile)} }

func (fs *ramFS) Create(path string) (disk.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &ramFile{}
	fs.files[path] = f
	return f, nil
}

func (fs *ramFS) Open(path string) (disk.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	return f, nil
}

func (fs *ramFS) Stat(path string) (int64, bool, error) {
	fs.mu.Lock()
	f, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return 0, false, nil
	}
	n, err := f.Size()
	return n, true, err
}

// bytes is the size of every file.
func (fs *ramFS) bytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, f := range fs.files {
		s, _ := f.Size()
		n += s
	}
	return n
}

// written is how many bytes have been written to the file at path.
func (fs *ramFS) written(path string) int64 {
	fs.mu.Lock()
	f, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

type ramFile struct {
	mu     sync.Mutex
	data   []byte
	writes int64 // bytes written, ever
}

func (f *ramFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *ramFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes += int64(len(p))
	if end := off + int64(len(p)); end > int64(len(f.data)) {
		f.data = append(f.data, make([]byte, end-int64(len(f.data)))...)
	}
	return copy(f.data[off:], p), nil
}

func (f *ramFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size <= int64(len(f.data)) {
		f.data = f.data[:size]
	} else {
		f.data = append(f.data, make([]byte, size-int64(len(f.data)))...)
	}
	return nil
}

func (f *ramFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data)), nil
}

func (f *ramFile) Sync() error  { return nil }
func (f *ramFile) Close() error { return nil }
