package durable_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadsocial/client"
	"roadsocial/internal/dataset"
	"roadsocial/internal/durable"
	"roadsocial/internal/gen"
	"roadsocial/internal/mac"
	"roadsocial/internal/mutate"
	"roadsocial/internal/standing"
)

var (
	errCrash    = errors.New("injected crash")
	errInjected = errors.New("injected failure")
)

// disk models what a crash leaves of one directory. It sees every seam
// operation before it happens. A file fsync records the file's current
// content as its durable content; a directory fsync records the
// directory's current entries as its durable entries. Files are tracked by
// identity, not by name, so a rename carries a file's durable content to
// its new name, and it becomes the durable entry only at the next
// directory fsync.
type disk struct {
	t       *testing.T
	dir     string
	cur     map[string]*node // the directory's entries now
	durable map[string]*node // its entries as of the last directory fsync
	ops     int              // seam operations seen so far
	crashAt int              // the operation the process dies before; -1: never
	failAt  int              // the operation that returns errInjected; -1: never
	crashed bool
}

type node struct{ synced []byte }

// newDisk models dir with everything in it durable.
func newDisk(t *testing.T, dir string, crashAt, failAt int) *disk {
	d := &disk{t: t, dir: dir, cur: map[string]*node{}, crashAt: crashAt, failAt: failAt}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		d.cur[e.Name()] = &node{synced: raw}
	}
	d.durable = maps.Clone(d.cur)
	return d
}

func (d *disk) hook(op durable.Op, paths ...string) error {
	i := d.ops
	d.ops++
	if d.crashed || i == d.crashAt {
		d.crashed = true // a dead process performs nothing more
		return errCrash
	}
	if i == d.failAt {
		return errInjected
	}
	switch op {
	case durable.OpWrite:
		d.file(paths[0])
	case durable.OpSync:
		raw, err := os.ReadFile(paths[0])
		if err != nil {
			d.t.Fatal(err)
		}
		d.file(paths[0]).synced = raw
	case durable.OpRename:
		n := d.file(paths[0])
		delete(d.cur, d.name(paths[0]))
		d.cur[d.name(paths[1])] = n
	case durable.OpSyncDir:
		if paths[0] != d.dir {
			d.t.Fatalf("fsync of directory %s, outside %s", paths[0], d.dir)
		}
		d.durable = maps.Clone(d.cur)
	}
	return nil
}

// file returns the file now named path, first seen if new.
func (d *disk) file(path string) *node {
	name := d.name(path)
	if d.cur[name] == nil {
		d.cur[name] = &node{}
	}
	return d.cur[name]
}

func (d *disk) name(path string) string {
	if filepath.Dir(path) != d.dir {
		d.t.Fatalf("operation on %s, outside %s", path, d.dir)
	}
	return filepath.Base(path)
}

// crash rewrites the directory to what survives: each durable entry with
// the content its file had at its last fsync, and nothing else.
func (d *disk) crash() {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		d.t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Remove(filepath.Join(d.dir, e.Name())); err != nil {
			d.t.Fatal(err)
		}
	}
	for name, n := range d.durable {
		if err := os.WriteFile(filepath.Join(d.dir, name), n.synced, 0o644); err != nil {
			d.t.Fatal(err)
		}
	}
}

// A script is a run of exported calls against one directory. steps builds
// fresh calls for one run, plus a func that releases what they opened;
// state reads back what a restarted process would see.
type script struct {
	name  string
	steps func(dir string) (steps []func() error, release func())
	state func(t *testing.T, dir string) string
}

// run executes the script's steps in dir through d's hook until one
// fails. It returns how many steps returned nil and the error of the one
// that did not.
func run(sc script, dir string, d *disk) (acked int, err error) {
	steps, release := sc.steps(dir)
	defer release()
	defer durable.SetHook(d.hook)()
	for _, step := range steps {
		if err := step(); err != nil {
			return acked, err
		}
		acked++
	}
	return acked, nil
}

// want returns, for each k, the state after the first k steps of an
// undisturbed run, and the number of seam operations a whole run makes.
func want(t *testing.T, sc script) ([]string, int) {
	d := newDisk(t, t.TempDir(), -1, -1)
	n, err := run(sc, d.dir, d)
	if err != nil {
		t.Fatalf("undisturbed run: %v", err)
	}
	states := make([]string, n+1)
	for k := range states {
		dir := t.TempDir()
		steps, release := sc.steps(dir)
		for _, step := range steps[:k] {
			if err := step(); err != nil {
				t.Fatalf("undisturbed step %d: %v", k, err)
			}
		}
		release()
		states[k] = sc.state(t, dir)
	}
	return states, d.ops
}

// TestCrashAtEveryOp kills each script before each of its seam operations
// in turn, and once after the last, then reopens what the crash left.
// Every step that returned nil must be there and nothing never called may
// be: the state is that after the acknowledged steps, or after the one in
// flight too.
func TestCrashAtEveryOp(t *testing.T) {
	for _, sc := range scripts(t) {
		t.Run(sc.name, func(t *testing.T) {
			states, total := want(t, sc)
			for i := 0; i <= total; i++ {
				dir := t.TempDir()
				d := newDisk(t, dir, i, -1)
				acked, err := run(sc, dir, d)
				if (i < total) != errors.Is(err, errCrash) {
					t.Fatalf("crash before op %d of %d: run ended with %v", i, total, err)
				}
				d.crash()
				got := sc.state(t, dir)
				if got != states[acked] && (acked == len(states)-1 || got != states[acked+1]) {
					t.Fatalf("crash before op %d of %d with %d steps acknowledged:\n got %s\nwant %s",
						i, total, acked, got, states[acked])
				}
			}
		})
	}
}

// TestFailEveryOp fails each seam operation of each script in turn. The
// step that made it must return the error, leave no temp file behind, and
// leave the state before or after it.
func TestFailEveryOp(t *testing.T) {
	for _, sc := range scripts(t) {
		t.Run(sc.name, func(t *testing.T) {
			states, total := want(t, sc)
			for i := 0; i < total; i++ {
				dir := t.TempDir()
				acked, err := run(sc, dir, newDisk(t, dir, -1, i))
				if !errors.Is(err, errInjected) {
					t.Fatalf("op %d of %d failed, but the step returned %v", i, total, err)
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if strings.Contains(e.Name(), ".tmp-") {
						t.Fatalf("op %d of %d failed and left %s behind", i, total, e.Name())
					}
				}
				if got := sc.state(t, dir); got != states[acked] && got != states[acked+1] {
					t.Fatalf("op %d of %d failed after %d steps:\n got %s\nwant %s", i, total, acked, got, states[acked])
				}
			}
		})
	}
}

const testMagic = "RTESTv1\n"

func payloads(recs ...string) [][]byte {
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = []byte(r)
	}
	return out
}

// scripts covers the primitive and each consumer an exported call reaches.
func scripts(t *testing.T) []script {
	netA, netB := tinyNetwork(t, 1), tinyNetwork(t, 2)
	q := func(id string) client.StandingQuery {
		return client.StandingQuery{ID: id, Algo: client.AlgoGlobal, Q: []int32{1, 2}, K: 3, T: 900}
	}
	return []script{
		{
			name: "log",
			steps: func(dir string) ([]func() error, func()) {
				path := filepath.Join(dir, "x.log")
				var l *durable.Log
				rewrite := func(recs ...string) func() error {
					return func() (err error) {
						if l != nil {
							l.Close()
						}
						l, err = durable.Rewrite(path, testMagic, payloads(recs...))
						return err
					}
				}
				add := func(recs ...string) func() error {
					return func() error { return l.Append(payloads(recs...)...) }
				}
				return []func() error{rewrite("a", "b"), add("c"), add("d", "e"), rewrite("b", "c", "d"), add("f")},
					func() {
						if l != nil {
							l.Close()
						}
					}
			},
			state: func(t *testing.T, dir string) string {
				recs, err := durable.Read(filepath.Join(dir, "x.log"), testMagic)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%q", recs)
			},
		},
		{
			name: "file",
			steps: func(dir string) ([]func() error, func()) {
				put := func(content string) func() error {
					return func() error {
						return durable.WriteFile(filepath.Join(dir, "x"), func(w io.Writer) error {
							_, err := io.WriteString(w, content)
							return err
						})
					}
				}
				return []func() error{put("old"), put("new")}, func() {}
			},
			state: func(t *testing.T, dir string) string { return fileState(t, filepath.Join(dir, "x")) },
		},
		{
			name: "mutate journal",
			steps: func(dir string) ([]func() error, func()) {
				path := filepath.Join(dir, "ds.mlog")
				var j *mutate.Journal
				open := func(base uint64) func() error {
					return func() (err error) {
						if j != nil {
							j.Close()
						}
						j, _, err = mutate.OpenJournal(path, base)
						return err
					}
				}
				add := func(recs ...mutate.Record) func() error {
					return func() error { return j.Append(recs) }
				}
				return []func() error{
						open(0),
						add(mutate.Record{Version: 1, Op: mutate.Op{Kind: mutate.InsertEdge, U: 3, V: 9}},
							mutate.Record{Version: 2, Op: mutate.Op{Kind: mutate.SetAttrs, U: 4, Attrs: []float64{0.5, 2}}}),
						add(mutate.Record{Version: 3, Op: mutate.Op{Kind: mutate.MoveUser, U: 2, Loc: mutate.LocSpec{U: 6}}}),
						open(1),
						add(mutate.Record{Version: 4, Op: mutate.Op{Kind: mutate.DeleteEdge, U: 3, V: 9}},
							mutate.Record{Version: 5, Op: mutate.Op{Kind: mutate.InsertEdge, U: 0, V: 7}}),
					}, func() {
						if j != nil {
							j.Close()
						}
					}
			},
			state: func(t *testing.T, dir string) string {
				j, recs, err := mutate.OpenJournal(filepath.Join(dir, "ds.mlog"), 0)
				if err != nil {
					t.Fatal(err)
				}
				j.Close()
				return fmt.Sprintf("%+v", recs)
			},
		},
		{
			name: "standing sidecar",
			steps: func(dir string) ([]func() error, func()) {
				path := filepath.Join(dir, "ds.squeries")
				var s *standing.Sidecar
				open := func() (err error) {
					if s != nil {
						s.Close()
					}
					s, _, err = standing.OpenSidecar(path)
					return err
				}
				return []func() error{
						open,
						func() error { return s.AppendPut(q("sq-1")) },
						func() error { return s.AppendPut(q("sq-2")) },
						func() error { return s.AppendState("sq-1", 3, []int32{7, 8}, 1) },
						func() error { return s.AppendDelete("sq-2") },
						open,
						func() error { return s.AppendState("sq-1", 4, []int32{7}, 2) },
					}, func() {
						if s != nil {
							s.Close()
						}
					}
			},
			state: func(t *testing.T, dir string) string {
				s, live, err := standing.OpenSidecar(filepath.Join(dir, "ds.squeries"))
				if err != nil {
					t.Fatal(err)
				}
				s.Close()
				return fmt.Sprintf("%+v", live)
			},
		},
		{
			name: "snapshot file",
			steps: func(dir string) ([]func() error, func()) {
				path := filepath.Join(dir, "ds.snap")
				return []func() error{
					func() error { return dataset.WriteSnapshotFile(path, netA) },
					func() error { return dataset.WriteSnapshotFile(path, netB) },
				}, func() {}
			},
			state: func(t *testing.T, dir string) string {
				path := filepath.Join(dir, "ds.snap")
				state := fileState(t, path)
				if state != "missing" {
					if _, err := dataset.ReadSnapshotFile(path); err != nil {
						return "unreadable: " + err.Error()
					}
				}
				return state
			},
		},
	}
}

// fileState names a file's content by its hash, or "missing".
func fileState(t *testing.T, path string) string {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return "missing"
	}
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}

func tinyNetwork(t *testing.T, seed int64) *mac.Network {
	t.Helper()
	net, err := gen.Network(gen.NetworkConfig{
		Social:   gen.SocialConfig{N: 30, D: 2, AttachEdges: 2},
		RoadRows: 3, RoadCols: 3,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}
