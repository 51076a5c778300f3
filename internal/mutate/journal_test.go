package mutate

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"roadsocial/internal/durable"
	"roadsocial/internal/mac"
	"roadsocial/internal/road"
	"roadsocial/internal/social"
)

func sampleRecords() []Record {
	return []Record{
		{Version: 1, Op: Op{Kind: InsertEdge, U: 3, V: 9}},
		{Version: 2, Op: Op{Kind: DeleteEdge, U: 0, V: 7}},
		{Version: 3, Op: Op{Kind: SetAttrs, U: 4, Attrs: []float64{0.25, -1.5, 3e9}}},
		{Version: 4, Op: Op{Kind: MoveUser, U: 11, Loc: LocSpec{U: 6}}},
		{Version: 5, Op: Op{Kind: MoveUser, U: 2, Loc: LocSpec{OnEdge: true, U: 1, V: 8, Off: 0.625}}},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.mutlog")
	j, recs, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := sampleRecords()
	if err := j.Append(want); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2, got, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}

	// A base version prunes folded records, on disk too.
	j3, got3, err := OpenJournal(path, 3)
	if err != nil {
		t.Fatalf("reopen with base: %v", err)
	}
	defer j3.Close()
	if !reflect.DeepEqual(got3, want[3:]) {
		t.Fatalf("base-filtered replay: got %+v want %+v", got3, want[3:])
	}
	j4, got4, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer j4.Close()
	if !reflect.DeepEqual(got4, want[3:]) {
		t.Fatalf("compaction did not drop folded records: got %+v", got4)
	}
}

func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.mutlog")
	j, _, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := sampleRecords()
	if err := j.Append(want); err != nil {
		t.Fatalf("append: %v", err)
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for cut := 1; cut < 12; cut++ {
		torn := raw[:len(raw)-cut]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatalf("write torn: %v", err)
		}
		j2, got, err := OpenJournal(path, 0)
		if err != nil {
			t.Fatalf("cut %d: open torn: %v", cut, err)
		}
		j2.Close()
		if !reflect.DeepEqual(got, want[:len(want)-1]) {
			t.Fatalf("cut %d: torn tail replay kept %d records, want %d", cut, len(got), len(want)-1)
		}
	}
	// Flipping a payload byte must fail the CRC and drop the record.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-6] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatalf("write corrupt: %v", err)
	}
	j3, got, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatalf("open corrupt: %v", err)
	}
	j3.Close()
	if len(got) >= len(want) {
		t.Fatalf("corrupt record survived CRC check")
	}
}

func TestJournalBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.mutlog")
	if err := os.WriteFile(path, []byte("NOTAMUTJ plus junk"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, _, err := OpenJournal(path, 0); err == nil {
		t.Fatalf("bad magic accepted")
	}
}

// testNetwork builds a small network with both graphs for Apply tests.
func testNetwork(t *testing.T, n int, p float64, seed int64) *mac.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sb := social.NewBuilder(n, 2)
	for u := 0; u < n; u++ {
		sb.SetAttrs(u, []float64{rng.Float64(), rng.Float64()})
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				sb.AddEdge(u, v)
			}
		}
	}
	sg, err := sb.Build()
	if err != nil {
		t.Fatalf("social build: %v", err)
	}
	rg := road.NewGraph(8)
	for i := 0; i < 8; i++ {
		rg.AddEdge(i, (i+1)%8, 1.0)
	}
	locs := make([]road.Location, n)
	for i := range locs {
		locs[i] = road.VertexLocation(rng.Intn(8))
	}
	net := &mac.Network{Social: sg, Road: rg, Locs: locs}
	if err := net.Validate(); err != nil {
		t.Fatalf("network: %v", err)
	}
	return net
}

func TestApplyCOWAndMaintenance(t *testing.T) {
	net := testNetwork(t, 40, 0.15, 5)
	st := InitState(net.Social, 0)
	oldSocial, oldLocs := net.Social, net.Locs

	var u, v int32 = -1, -1
	for a := 0; a < net.Social.N() && u < 0; a++ {
		for b := a + 1; b < net.Social.N(); b++ {
			if !net.Social.HasEdge(a, b) {
				u, v = int32(a), int32(b)
				break
			}
		}
	}
	ops := []Op{
		{Kind: InsertEdge, U: u, V: v},
		{Kind: SetAttrs, U: 3, Attrs: []float64{9, 9}},
		{Kind: MoveUser, U: 5, Loc: LocSpec{U: 2}},
		{Kind: DeleteEdge, U: u, V: v},
	}
	net2, sum, err := Apply(net, st, ops)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if net.Social != oldSocial || &net.Locs[0] != &oldLocs[0] {
		t.Fatalf("Apply mutated the input network")
	}
	if sum.Applied != 4 || st.Version != 4 {
		t.Fatalf("applied=%d version=%d, want 4/4", sum.Applied, st.Version)
	}
	if net2.Social.HasEdge(int(u), int(v)) {
		t.Fatalf("insert+delete should cancel")
	}
	if net2.Social.Attrs(3)[0] != 9 || net2.Locs[5].U != 2 {
		t.Fatalf("attr/move not applied")
	}
	if !sum.Touched[u] || !sum.Touched[v] || !sum.Touched[3] || !sum.Touched[5] {
		t.Fatalf("touched set missing targets: %v", sum.Touched)
	}
	wantCore, _ := net2.Social.CoreDecomposition(nil)
	if !reflect.DeepEqual(st.Core, wantCore) {
		t.Fatalf("maintained core diverged from recompute")
	}
	wantTruss, _ := net2.Social.TrussDecomposition(nil)
	if !reflect.DeepEqual(st.Truss, wantTruss) {
		t.Fatalf("maintained truss diverged from recompute")
	}
}

func TestApplyRejectsBadOps(t *testing.T) {
	net := testNetwork(t, 10, 0.3, 1)
	st := &State{} // replay mode: no maintenance
	bad := [][]Op{
		{{Kind: InsertEdge, U: 1, V: 1}},
		{{Kind: InsertEdge, U: 0, V: 99}},
		{{Kind: DeleteEdge, U: 0, V: 0}},
		{{Kind: SetAttrs, U: 2, Attrs: []float64{1}}},
		{{Kind: MoveUser, U: 99, Loc: LocSpec{U: 0}}},
		{{Kind: MoveUser, U: 1, Loc: LocSpec{U: 99}}},
		{{Kind: MoveUser, U: 1, Loc: LocSpec{OnEdge: true, U: 0, V: 5, Off: 0.5}}},
		{{Kind: Kind(77), U: 0, V: 1}},
	}
	for i, ops := range bad {
		if _, _, err := Apply(net, st, ops); err == nil {
			t.Errorf("case %d: invalid op accepted: %+v", i, ops[0])
		}
	}
}

// TestReplayConvergence drives the full crash-recovery loop: apply a random
// op stream journaling as we go, then rebuild from the initial network plus
// the journal and check the replayed network matches byte-for-byte.
func TestReplayConvergence(t *testing.T) {
	net0 := testNetwork(t, 30, 0.2, 9)
	path := filepath.Join(t.TempDir(), "ds.mutlog")
	j, _, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	net := net0
	st := InitState(net.Social, 0)
	for i := 0; i < 50; i++ {
		op := randomOp(rng, net)
		n2, _, err := Apply(net, st, []Op{op})
		if err != nil {
			continue // raced into an invalid op (e.g. duplicate insert); skip
		}
		if err := j.Append([]Record{{Version: st.Version, Op: op}}); err != nil {
			t.Fatalf("append: %v", err)
		}
		net = n2
	}
	j.Close()

	// "Restart": fold the journal over the pristine network, no maintenance.
	j2, recs, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	replayed := net0
	rst := &State{}
	for _, r := range recs {
		n2, _, err := Apply(replayed, rst, []Op{r.Op})
		if err != nil {
			t.Fatalf("replay v%d: %v", r.Version, err)
		}
		replayed = n2
	}
	if rst.Version != st.Version {
		t.Fatalf("replayed to version %d, live reached %d", rst.Version, st.Version)
	}
	if !socialEqual(replayed.Social, net.Social) {
		t.Fatalf("replayed social graph differs from live")
	}
	if !reflect.DeepEqual(replayed.Locs, net.Locs) {
		t.Fatalf("replayed locations differ from live")
	}
}

func randomOp(rng *rand.Rand, net *mac.Network) Op {
	n := net.Social.N()
	switch rng.Intn(4) {
	case 0:
		return Op{Kind: InsertEdge, U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	case 1:
		return Op{Kind: DeleteEdge, U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	case 2:
		return Op{Kind: SetAttrs, U: int32(rng.Intn(n)), Attrs: []float64{rng.Float64(), rng.Float64()}}
	default:
		return Op{Kind: MoveUser, U: int32(rng.Intn(n)), Loc: LocSpec{U: int32(rng.Intn(net.Road.N()))}}
	}
}

func socialEqual(a, b *social.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if !reflect.DeepEqual(a.Neighbors(v), b.Neighbors(v)) {
			return false
		}
		if !reflect.DeepEqual(a.Attrs(v), b.Attrs(v)) {
			return false
		}
	}
	return true
}

// FuzzReplayJournal feeds arbitrary bytes through the journal parser: it
// must never panic, and whatever records survive a parse must round-trip
// losslessly through append+reopen.
func FuzzReplayJournal(f *testing.F) {
	seedBuf := []byte(journalMagic)
	for _, r := range sampleRecords() {
		seedBuf = durable.AppendFrame(seedBuf, encodePayload(r))
	}
	f.Add(seedBuf)
	f.Add([]byte(journalMagic))
	f.Add(seedBuf[:len(seedBuf)-3])
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.mutlog")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := OpenJournal(path, 0)
		if err != nil {
			if bytes.HasPrefix(data, []byte(journalMagic)) && err.Error() == "" {
				t.Fatalf("empty error")
			}
			return
		}
		j.Close()
		// Round-trip: re-journal the parsed records and reparse.
		path2 := filepath.Join(dir, "fuzz2.mutlog")
		os.Remove(path2)
		j2, _, err := OpenJournal(path2, 0)
		if err != nil {
			t.Fatalf("open clean: %v", err)
		}
		if len(recs) > 0 {
			if err := j2.Append(recs); err != nil {
				t.Fatalf("re-append: %v", err)
			}
		}
		j2.Close()
		j3, got, err := OpenJournal(path2, 0)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		j3.Close()
		if len(got) != len(recs) {
			t.Fatalf("round-trip kept %d of %d records", len(got), len(recs))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], recs[i]) {
				t.Fatalf("record %d mutated in round-trip:\n got %+v\nwant %+v", i, got[i], recs[i])
			}
		}
	})
}
