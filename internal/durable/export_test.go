package durable

import "os"

// Op names one operation of the seam.
type Op string

const (
	OpWrite   Op = "write"
	OpSync    Op = "sync"
	OpRename  Op = "rename"
	OpSyncDir Op = "syncdir"
)

// SetHook routes every seam operation through hook until the returned
// restore runs. hook sees the operation and the paths it touches (a file
// for write and sync, source and target for rename, the directory for
// syncdir) before it happens; an error from hook is returned in place of
// performing it.
func SetHook(hook func(op Op, paths ...string) error) (restore func()) {
	saved := fsys
	fsys = fsOps{
		write: func(f *os.File, b []byte) (int, error) {
			if err := hook(OpWrite, f.Name()); err != nil {
				return 0, err
			}
			return saved.write(f, b)
		},
		sync: func(f *os.File) error {
			if err := hook(OpSync, f.Name()); err != nil {
				return err
			}
			return saved.sync(f)
		},
		rename: func(oldpath, newpath string) error {
			if err := hook(OpRename, oldpath, newpath); err != nil {
				return err
			}
			return saved.rename(oldpath, newpath)
		},
		syncDir: func(dir string) error {
			if err := hook(OpSyncDir, dir); err != nil {
				return err
			}
			return saved.syncDir(dir)
		},
	}
	return func() { fsys = saved }
}
