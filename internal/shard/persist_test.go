package shard

import (
	"log"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadsocial/client"
	"roadsocial/internal/durable"
	"roadsocial/internal/service"
)

// bareRouter is a two-shard router over empty in-process servers: enough
// to exercise the assignment table, which never asks a backend anything.
func bareRouter(t *testing.T) *Router {
	t.Helper()
	rt, err := NewRouter([]Backend{
		NewLocal("shard-0", service.New(service.Config{})),
		NewLocal("shard-1", service.New(service.Config{})),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestJobJournalTornTail: a crash mid-append leaves a torn last record. The
// next open drops it, folds the rest by job id, and compacts the file to
// the pending entries.
func TestJobJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "assignments.json.jobs")
	j, pending, err := openJobJournal(path)
	if err != nil || len(pending) != 0 {
		t.Fatalf("fresh journal: %d pending, err %v", len(pending), err)
	}
	j.append(journalEntry{ID: "job-1", Kind: client.JobKindReplicate, Dataset: "a", State: journalStarted})
	j.append(journalEntry{ID: "job-2", Kind: client.JobKindReplicate, Dataset: "b", State: journalStarted})
	j.append(journalEntry{ID: "job-1", State: journalDone})
	j.log.Close()
	torn := durable.AppendFrame(nil, []byte(`{"id":"job-3","kind":"replicate","dataset":"c","state":"started"}`))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, pending, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.log.Close()
	if len(pending) != 1 || pending[0].ID != "job-2" || pending[0].Dataset != "b" {
		t.Fatalf("pending after a torn tail = %+v, want job-2 alone", pending)
	}
	recs, err := durable.Read(path, jobJournalMagic)
	if err != nil || len(recs) != 1 {
		t.Fatalf("compacted journal holds %d records (err %v), want 1", len(recs), err)
	}
}

// TestAssignmentsTornWrite: a crash mid-save tears only the temp file, so
// a restart loads the previous table; a torn table itself is refused with
// its path rather than loaded as empty.
func TestAssignmentsTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "assignments.json")
	rt := bareRouter(t)
	if _, err := rt.PersistAssignments(path); err != nil {
		t.Fatal(err)
	}
	other := 1 - rt.OwnerIndex("ds")
	rt.pin("ds", other)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".assignments.json.tmp-1"), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rt2 := bareRouter(t)
	if n, err := rt2.PersistAssignments(path); err != nil || n != 1 || rt2.OwnerIndex("ds") != other {
		t.Fatalf("restart beside a torn temp file: loaded %d (err %v), owner %d, want 1 and %d",
			n, err, rt2.OwnerIndex("ds"), other)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := bareRouter(t).PersistAssignments(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("torn table: err = %v, want one naming %s", err, path)
	}
}

// TestAssignmentsWriteFailureLogged: a save that fails does not fail
// routing — the pin takes effect — but is logged with the file's path.
func TestAssignmentsWriteFailureLogged(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "assignments.json")
	rt := bareRouter(t)
	if _, err := rt.PersistAssignments(path); err != nil {
		t.Fatal(err)
	}
	// Every later save fails once the directory is a regular file. Taking
	// away write permission would not do: tests may run as root.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// The router logs through the default logger. Installing one also
	// redirects the log package, so both are put back.
	logs := &logBuffer{}
	prev, prevOut, prevFlags := slog.Default(), log.Writer(), log.Flags()
	defer func() {
		slog.SetDefault(prev)
		log.SetOutput(prevOut)
		log.SetFlags(prevFlags)
	}()
	slog.SetDefault(slog.New(slog.NewTextHandler(logs, nil)))

	other := 1 - rt.OwnerIndex("ds")
	rt.pin("ds", other)
	if rt.OwnerIndex("ds") != other {
		t.Fatal("the pin did not change the route")
	}
	if out := logs.String(); !strings.Contains(out, "assignment table not persisted") || !strings.Contains(out, path) {
		t.Fatalf("no warning naming %s in the log:\n%s", path, out)
	}
}
