package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"roadsocial/internal/gen"
	"roadsocial/internal/geom"
	"roadsocial/internal/mac"
	"roadsocial/internal/road"
)

// snapshotNetwork builds a synthetic network with a G-tree and a feasible
// query workload.
func snapshotNetwork(t testing.TB) (*mac.Network, []int32, int, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	net, err := gen.Network(gen.NetworkConfig{
		Social: gen.SocialConfig{
			N: 150, D: 3, AttachEdges: 3,
			Communities: 3, CommunitySize: 30, CommunityP: 0.6,
		},
		RoadRows: 10, RoadCols: 10,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	net.Oracle = road.BuildGTree(net.Road, 0)
	const k, tt = 4, 900.0
	qs := gen.Queries(net, k, tt, 3, 1, rng)
	if len(qs) == 0 {
		t.Fatal("no feasible query in test network")
	}
	return net, qs[0], k, tt
}

// TestSnapshotRoundTrip: every way of loading a snapshot — the buffered
// reader and the file loader (mmap on platforms that have it, the
// aligned-buffer fallback under the nommap tag) — yields a network that
// answers searches byte-identically to the freshly-built one, and the
// structural invariants (counts, attrs, locations, G-tree presence) survive
// exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	net, q, k, tt := snapshotNetwork(t)

	var v2 bytes.Buffer
	if err := WriteSnapshot(&v2, net); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v2.Bytes(), []byte(snapshotMagicV2)) {
		t.Fatalf("WriteSnapshot emitted magic %q, want v2", v2.Bytes()[:8])
	}
	path := filepath.Join(t.TempDir(), "net.snap")
	if err := WriteSnapshotFile(path, net); err != nil {
		t.Fatal(err)
	}

	region, err := geom.NewBox([]float64{0.2, 0.2}, []float64{0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	search := func(n *mac.Network) []byte {
		t.Helper()
		res, err := mac.GlobalSearch(n, &mac.Query{Q: q, K: k, T: tt, Region: region, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := search(net)
	wantOff, wantNbr, wantWgt := net.Road.CSR()

	loads := []struct {
		name string
		load func() (*mac.Network, error)
	}{
		{"v2-buffered", func() (*mac.Network, error) { return ReadSnapshot(bytes.NewReader(v2.Bytes())) }},
		{"v2-file", func() (*mac.Network, error) { return ReadSnapshotFile(path) }},
	}
	for _, l := range loads {
		got, err := l.load()
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if got.Social.N() != net.Social.N() || got.Social.M() != net.Social.M() {
			t.Fatalf("%s: social mismatch: %d/%d vs %d/%d", l.name,
				got.Social.N(), got.Social.M(), net.Social.N(), net.Social.M())
		}
		if got.Road.N() != net.Road.N() || got.Road.M() != net.Road.M() {
			t.Fatalf("%s: road graph mismatch", l.name)
		}
		for v := 0; v < net.Social.N(); v++ {
			a, b := net.Social.Attrs(v), got.Social.Attrs(v)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: attrs of %d differ", l.name, v)
				}
			}
			if net.Locs[v] != got.Locs[v] {
				t.Fatalf("%s: location of %d differs", l.name, v)
			}
		}
		if _, ok := got.Oracle.(*road.GTree); !ok {
			t.Fatalf("%s: G-tree did not survive the snapshot: oracle %T", l.name, got.Oracle)
		}
		// The road CSR arrays converge to the same canonical layout
		// regardless of load path — the property that lets one snapshot
		// format serve as both the in-memory and on-disk representation.
		off, nbr, wgt := got.Road.CSR()
		if !slices.Equal(off, wantOff) || !slices.Equal(nbr, wantNbr) || !slices.Equal(wgt, wantWgt) {
			t.Fatalf("%s: CSR arrays differ from freshly-built", l.name)
		}
		if have := search(got); !bytes.Equal(want, have) {
			t.Fatalf("%s: loaded search differs from freshly-built:\n built: %s\nloaded: %s", l.name, want, have)
		}
	}
}

// TestSnapshotFileAndLabels: the file helpers round-trip through disk, and
// labels survive.
func TestSnapshotFileAndLabels(t *testing.T) {
	net, _, _, _ := snapshotNetwork(t)
	path := filepath.Join(t.TempDir(), "net.snap")
	if err := WriteSnapshotFile(path, net); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < net.Social.N(); v++ {
		if net.Social.Label(v) != got.Social.Label(v) {
			t.Fatalf("label of %d differs: %q vs %q", v, net.Social.Label(v), got.Social.Label(v))
		}
	}
}

// TestSnapshotCorruption: a flipped payload byte fails the checksum, a
// mangled magic fails the version check, and a truncated file fails the
// length check — nothing half-decodes.
func TestSnapshotCorruption(t *testing.T) {
	net, _, _, _ := snapshotNetwork(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, net); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadSnapshot(bytes.NewReader(flipped)); err == nil {
		t.Fatal("corrupted payload passed the checksum")
	}

	badMagic := append([]byte(nil), raw...)
	badMagic[3] = 'X'
	if _, err := ReadSnapshot(bytes.NewReader(badMagic)); err == nil {
		t.Fatal("mangled magic was accepted")
	}

	if _, err := ReadSnapshot(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Fatal("truncated snapshot was accepted")
	}
}

// TestSnapshotHostileHeader: a snapshot whose checksum is valid (the
// attacker computes it over their own payload) but whose social header
// declares absurd element counts is rejected by the remaining-bytes bounds
// before any count-sized allocation happens — a kilobyte body must not
// demand terabytes.
func TestSnapshotHostileHeader(t *testing.T) {
	img := v2Image(t)
	// The writer emits the social section first; overwrite its header with
	// one claiming 2^40 vertices.
	off := binary.LittleEndian.Uint64(img[v2HeaderLen+8 : v2HeaderLen+16])
	var huge bytes.Buffer
	putUvarint(&huge, 1<<40) // n
	putUvarint(&huge, 3)     // d
	putUvarint(&huge, 0)     // m
	copy(img[off:], huge.Bytes())
	fixCRC(img)
	_, err := ReadSnapshot(bytes.NewReader(img))
	if err == nil || !strings.Contains(err.Error(), "social header") {
		t.Fatalf("hostile vertex count: err = %v, want the social header bound", err)
	}
}

// TestSnapshotV1Rejected: RSNAPv1 images are no longer read; one fails with
// the unsupported-version error on both loaders.
func TestSnapshotV1Rejected(t *testing.T) {
	img := append([]byte("RSNAPv1\n"), make([]byte, 12)...)
	const want = "not a snapshot (or unsupported version)"
	if _, err := ReadSnapshot(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("buffered v1 load: err = %v, want %q", err, want)
	}
	path := filepath.Join(t.TempDir(), "v1.snap")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("file v1 load: err = %v, want %q", err, want)
	}
}
