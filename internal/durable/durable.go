// Package durable is the one way this module puts state on disk. State takes
// one of two shapes:
//
//   - A log: a per-file magic followed by CRC-framed records. The mutation
//     journal, the standing-query sidecars and the router's job journal are
//     logs. Each frame is
//
//     uvarint len(payload) | payload | crc32-IEEE(payload) LE32
//
//   - A whole file replaced crash-atomically: dataset snapshots and the
//     router's assignment table.
//
// The crash discipline is the same for both:
//
//   - Append writes its frames in one write and fsyncs once. A record is
//     durable when Append returns nil.
//   - WriteFile writes a temp file in the target's directory, fsyncs and
//     closes it, renames it over the target, then fsyncs the directory. A
//     crash leaves the old content or the new content, never a mix.
//   - Rewrite is WriteFile of a whole log, reopened for appending. Logs use
//     it to compact on open.
//
// A crash mid-Append can leave a torn last frame. Read stops at the first
// frame whose length or CRC does not check out, so a torn tail is dropped
// and every record before it reads back.
package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// maxRecord bounds one record's payload. A larger length prefix is read as
// corruption rather than allocated.
const maxRecord = 1 << 24

// fsOps is the seam over the four operations whose order decides what a
// crash can lose. The package's tests replace it to crash or fail each one
// in turn; nothing else does.
type fsOps struct {
	write   func(f *os.File, b []byte) (int, error)
	sync    func(f *os.File) error
	rename  func(oldpath, newpath string) error
	syncDir func(dir string) error
}

var fsys = fsOps{
	write:  (*os.File).Write,
	sync:   (*os.File).Sync,
	rename: os.Rename,
	syncDir: func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	},
}

// AppendFrame appends one frame carrying payload to dst.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// Read returns the payloads of the intact records of the log at path, in
// order, stopping at the first torn or corrupt frame. A missing or empty
// file is an empty log; a file that does not start with magic is an error.
// The payloads alias one buffer read from the file.
func Read(path, magic string) ([][]byte, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(raw) == 0) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if !bytes.HasPrefix(raw, []byte(magic)) {
		return nil, fmt.Errorf("durable: %s does not start with the magic %q", path, magic)
	}
	var recs [][]byte
	for b := raw[len(magic):]; len(b) > 0; {
		n, w := binary.Uvarint(b)
		if w <= 0 || n > maxRecord || uint64(len(b)-w) < n+4 {
			break
		}
		payload := b[w : w+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[w+int(n):]) {
			break
		}
		recs = append(recs, payload)
		b = b[w+int(n)+4:]
	}
	return recs, nil
}

// Log is a log file open for appending. Its methods are safe for concurrent
// use.
type Log struct {
	mu   sync.Mutex
	path string
	f    *os.File
	size int64 // bytes acknowledged so far; a failed Append cuts back to it
	err  error // non-nil once the log takes no more appends
}

// Rewrite replaces the log at path with magic followed by recs, through
// WriteFile, and opens the result for appending. The directory is created
// if missing.
func Rewrite(path, magic string, recs [][]byte) (*Log, error) {
	buf := []byte(magic)
	for _, r := range recs {
		buf = AppendFrame(buf, r)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	}); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	return &Log{path: path, f: f, size: int64(len(buf))}, nil
}

// Append writes recs as frames in one write and fsyncs once; the records
// are durable when it returns nil. On failure the frames are cut back off
// the file, so a failed record never reads back and a later Append cannot
// land behind a torn frame that Read would stop at. If the cut fails too,
// the log takes no more appends.
func (l *Log) Append(recs ...[]byte) error {
	var buf []byte
	for _, r := range recs {
		buf = AppendFrame(buf, r)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	_, err := fsys.write(l.f, buf)
	if err == nil {
		err = fsys.sync(l.f)
	}
	if err != nil {
		err = fmt.Errorf("durable: append %s: %w", l.path, err)
		if terr := l.f.Truncate(l.size); terr != nil {
			l.f.Close()
			l.err = fmt.Errorf("durable: %s unusable after a failed append: %w", l.path, terr)
		}
		return err
	}
	l.size += int64(len(buf))
	return nil
}

// Close closes the log file. Later appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil
	}
	l.err = fmt.Errorf("durable: %s is closed", l.path)
	return l.f.Close()
}

// Remove closes the log and deletes its file.
func (l *Log) Remove() error {
	err := l.Close()
	if rmErr := os.Remove(l.path); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) && err == nil {
		err = rmErr
	}
	return err
}

// WriteFile replaces the file at path with what write produces: write fills
// a temp file in the same directory, which is fsynced, closed, renamed over
// path, and the directory fsynced. A crash at any point leaves path with its
// old content or its new content. On failure the temp file is removed.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			err = fmt.Errorf("durable: write %s: %w", path, err)
		}
	}()
	if err = write(fileWriter{tmp}); err != nil {
		return err
	}
	if err = fsys.sync(tmp); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = fsys.rename(tmp.Name(), path); err != nil {
		return err
	}
	return fsys.syncDir(dir)
}

// fileWriter routes a temp file's writes through the seam.
type fileWriter struct{ f *os.File }

func (w fileWriter) Write(b []byte) (int, error) { return fsys.write(w.f, b) }
