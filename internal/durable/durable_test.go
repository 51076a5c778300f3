package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadsocial/internal/durable"
)

// TestReadStopsAtDamage: Read returns the records before the first torn or
// corrupt frame, treats a missing or empty file as an empty log, and
// rejects a file without the magic by naming it.
func TestReadStopsAtDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	if recs, err := durable.Read(path, testMagic); err != nil || recs != nil {
		t.Fatalf("missing file: %q, %v", recs, err)
	}
	l, err := durable.Rewrite(path, testMagic, payloads("a", "bb"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(payloads("ccc", "")...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(payloads("late")...); err == nil {
		t.Fatal("append after close succeeded")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	read := func(b []byte) string {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := durable.Read(path, testMagic)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%q", recs)
	}
	if got := read(raw); got != `["a" "bb" "ccc" ""]` {
		t.Fatalf("intact log read %s", got)
	}
	// The empty record's frame is 5 bytes, ccc's 8: cutting into either
	// drops it and everything after.
	for cut := 1; cut <= 5; cut++ {
		if got := read(raw[:len(raw)-cut]); got != `["a" "bb" "ccc"]` {
			t.Fatalf("cut %d: read %s", cut, got)
		}
	}
	for cut := 6; cut <= 13; cut++ {
		if got := read(raw[:len(raw)-cut]); got != `["a" "bb"]` {
			t.Fatalf("cut %d: read %s", cut, got)
		}
	}
	flipped := bytes.Clone(raw)
	flipped[len(testMagic)+1] ^= 0xff // a's payload byte
	if got := read(flipped); got != `[]` {
		t.Fatalf("corrupt first record: read %s", got)
	}
	if got := read(nil); got != `[]` {
		t.Fatalf("empty file: read %s", got)
	}
	if err := os.WriteFile(path, []byte("RXXXXv1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Read(path, testMagic); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("wrong magic: err = %v, want one naming %s", err, path)
	}
}

// TestAppendFailureCutsBack: a failed Append leaves nothing of its records,
// and the next Append lands where it would have.
func TestAppendFailureCutsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := durable.Rewrite(path, testMagic, payloads("a"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	restore := durable.SetHook(func(op durable.Op, _ ...string) error {
		if op == durable.OpSync {
			return errInjected
		}
		return nil
	})
	err = l.Append(payloads("lost")...)
	restore()
	if !errors.Is(err, errInjected) {
		t.Fatalf("append with a failing fsync returned %v", err)
	}
	if err := l.Append(payloads("b")...); err != nil {
		t.Fatal(err)
	}
	recs, err := durable.Read(path, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%q", recs); got != `["a" "b"]` {
		t.Fatalf("read %s after a failed append", got)
	}
}

// FuzzFrames: any bytes after the magic read without panicking, and the
// records read come back unchanged after a Rewrite and a re-read.
func FuzzFrames(f *testing.F) {
	var seed []byte
	for _, p := range payloads("", "a", strings.Repeat("x", 300)) {
		seed = durable.AppendFrame(seed, p)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // a length beyond the record bound
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, append([]byte(testMagic), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := durable.Read(path, testMagic)
		if err != nil {
			t.Fatal(err)
		}
		l, err := durable.Rewrite(path, testMagic, recs)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := durable.Read(path, testMagic)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-read %d of %d records", len(again), len(recs))
		}
		for i := range recs {
			if !bytes.Equal(again[i], recs[i]) {
				t.Fatalf("record %d changed: %q, want %q", i, again[i], recs[i])
			}
		}
	})
}
