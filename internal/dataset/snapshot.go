package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"roadsocial/internal/durable"
	"roadsocial/internal/mac"
	"roadsocial/internal/social"
)

// Snapshot is the on-disk form of a fully-built dataset: the social graph
// (edges, attributes, labels), the road graph, the user locations, and —
// when the network carries one — the built G-tree index. Registering from a
// snapshot costs I/O, not index construction: the G-tree of Zhong et al.
// (TKDE 2015) is built once, serialized, and loaded ever after, which is
// exactly the register-time profile a control plane wants for dataset moves
// and restarts.
//
// The wire format is RSNAPv2 (magic "RSNAPv2\n"): a sectioned, 8-byte-aligned
// little-endian layout whose payload IS the in-memory flat arrays (CSR road
// graph, flat G-tree slabs), so a file can be memory-mapped and used in
// place. See docs/snapshot.md.
//
// Floats are stored as raw IEEE-754 bits, and the road graph is frozen to a
// canonical CSR, so a loaded network — buffered or mmap'ed — is
// bit-identical to the one serialized: searches against it return
// byte-identical results. Checksums catch truncated or corrupted files
// before any of the payload is trusted.

// DefaultMaxSnapshotBytes caps how much the buffered readers will hold in
// memory for one snapshot (1 GiB) when the caller does not choose a limit:
// a corrupted or hostile length field must not OOM the server. The
// memory-mapped file loader never buffers, so no cap applies there.
const DefaultMaxSnapshotBytes int64 = 1 << 30

// WriteSnapshot serializes the network in the current (v2) format. The
// network must be valid; the G-tree section is included only when
// net.Oracle is a *road.GTree (any other oracle is dropped — only the
// G-tree has a stable on-disk form).
func WriteSnapshot(w io.Writer, net *mac.Network) error {
	return writeSnapshotV2(w, net, 0)
}

// WriteSnapshotVersion is WriteSnapshot with a dataset mutation version
// stamped into the RSNAPv2 header (section kind 9). A zero version writes no
// stamp, keeping the bytes identical to WriteSnapshot; non-zero versions let
// a restarted leaf replay only the journal records newer than the snapshot.
func WriteSnapshotVersion(w io.Writer, net *mac.Network, version uint64) error {
	return writeSnapshotV2(w, net, version)
}

// ReadSnapshot deserializes a network written by WriteSnapshot, holding at
// most DefaultMaxSnapshotBytes in memory.
func ReadSnapshot(r io.Reader) (*mac.Network, error) {
	return ReadSnapshotLimit(r, DefaultMaxSnapshotBytes)
}

// ReadSnapshotLimit is ReadSnapshot with an explicit buffering cap: any
// snapshot whose declared size exceeds maxBytes is rejected before
// allocation. This is the streaming entry point (HTTP bodies, shard moves);
// local files should prefer ReadSnapshotFile, which memory-maps v2
// snapshots instead of buffering them.
func ReadSnapshotLimit(r io.Reader, maxBytes int64) (*mac.Network, error) {
	net, _, err := ReadSnapshotLimitVersion(r, maxBytes)
	return net, err
}

// ReadSnapshotLimitVersion is ReadSnapshotLimit surfacing the dataset
// mutation version stamped in the RSNAPv2 header; unstamped snapshots
// report version 0.
func ReadSnapshotLimitVersion(r io.Reader, maxBytes int64) (*mac.Network, uint64, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, 0, fmt.Errorf("dataset: snapshot header: %w", err)
	}
	if string(magic[:]) != snapshotMagicV2 {
		return nil, 0, fmt.Errorf("dataset: not a snapshot (or unsupported version): magic %q", magic[:])
	}
	return readSnapshotV2(r, maxBytes)
}

// WriteSnapshotFile writes the snapshot crash-atomically (durable.WriteFile):
// a crashed writer leaves the old file or the new one under the real name,
// never a half-written snapshot.
func WriteSnapshotFile(path string, net *mac.Network) error {
	return WriteSnapshotFileVersion(path, net, 0)
}

// WriteSnapshotFileVersion is WriteSnapshotFile with a version stamp (see
// WriteSnapshotVersion).
func WriteSnapshotFileVersion(path string, net *mac.Network, version uint64) error {
	return durable.WriteFile(path, func(w io.Writer) error {
		return WriteSnapshotVersion(w, net, version)
	})
}

// ReadSnapshotFile loads a snapshot from disk. The file is memory-mapped (on
// platforms with mmap; a build-tag fallback reads into an aligned buffer)
// and validated in place, so registering costs page faults rather than
// decoding and no buffering cap applies.
func ReadSnapshotFile(path string) (*mac.Network, error) {
	net, _, err := ReadSnapshotFileVersion(path)
	return net, err
}

// ReadSnapshotFileVersion is ReadSnapshotFile surfacing the dataset
// mutation version stamped in the RSNAPv2 header (0 for unstamped files).
func ReadSnapshotFileVersion(path string) (*mac.Network, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, 0, fmt.Errorf("dataset: snapshot header: %w", err)
	}
	if string(magic[:]) != snapshotMagicV2 {
		return nil, 0, fmt.Errorf("dataset: not a snapshot (or unsupported version): magic %q", magic[:])
	}
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	hold, err := mapFile(f, st.Size())
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: snapshot map: %w", err)
	}
	net, version, err := loadSnapshotV2(hold.data, hold)
	if err != nil {
		hold.close()
		return nil, 0, err
	}
	return net, version, nil
}

// encodeSocial writes the social graph: header (n, d, m), the undirected
// edge list (u < v in adjacency order), the attribute matrix, and the
// labels (count-prefixed; all-empty label sets collapse to a zero count).
func encodeSocial(buf *bytes.Buffer, g *social.Graph) error {
	putUvarint(buf, uint64(g.N()))
	putUvarint(buf, uint64(g.D()))
	putUvarint(buf, uint64(g.M()))
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				putUvarint(buf, uint64(u))
				putUvarint(buf, uint64(v))
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, x := range g.Attrs(v) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			buf.Write(b[:])
		}
	}
	labeled := 0
	for v := 0; v < g.N(); v++ {
		if g.Label(v) != "" {
			labeled++
		}
	}
	putUvarint(buf, uint64(labeled))
	for v := 0; v < g.N(); v++ {
		if l := g.Label(v); l != "" {
			putUvarint(buf, uint64(v))
			putUvarint(buf, uint64(len(l)))
			buf.WriteString(l)
		}
	}
	return nil
}

func decodeSocial(br *bytes.Reader) (*social.Graph, error) {
	n, err1 := binary.ReadUvarint(br)
	d, err2 := binary.ReadUvarint(br)
	m, err3 := binary.ReadUvarint(br)
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("dataset: snapshot social header truncated")
	}
	// Bound every declared count by the bytes actually present before
	// allocating: the payload came off the network, and a crafted header
	// must not turn a small body into a huge allocation. A valid snapshot
	// carries 8·n·d attribute bytes and ≥ 2 bytes per edge.
	rem := uint64(br.Len())
	if d < 1 || d > rem || n > rem/8 || n*d*8 > rem {
		return nil, fmt.Errorf("dataset: snapshot social header (n=%d, d=%d) exceeds the %d remaining payload bytes", n, d, rem)
	}
	if m*2 > rem {
		return nil, fmt.Errorf("dataset: snapshot edge count %d exceeds the %d remaining payload bytes", m, rem)
	}
	b := social.NewBuilder(int(n), int(d))
	for i := uint64(0); i < m; i++ {
		u, err1 := binary.ReadUvarint(br)
		v, err2 := binary.ReadUvarint(br)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("dataset: snapshot social edge %d truncated", i)
		}
		b.AddEdge(int(u), int(v))
	}
	x := make([]float64, d)
	for v := uint64(0); v < n; v++ {
		for i := range x {
			var raw [8]byte
			if _, err := io.ReadFull(br, raw[:]); err != nil {
				return nil, fmt.Errorf("dataset: snapshot attributes truncated at vertex %d", v)
			}
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		}
		b.SetAttrs(int(v), x)
	}
	labeled, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dataset: snapshot label count: %w", err)
	}
	for i := uint64(0); i < labeled; i++ {
		v, err1 := binary.ReadUvarint(br)
		l, err2 := binary.ReadUvarint(br)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("dataset: snapshot label %d truncated", i)
		}
		if l > uint64(br.Len()) {
			return nil, fmt.Errorf("dataset: snapshot label of %d bytes exceeds the %d remaining payload bytes", l, br.Len())
		}
		name := make([]byte, l)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("dataset: snapshot label %d truncated", i)
		}
		if v >= n {
			return nil, fmt.Errorf("dataset: snapshot label vertex %d out of range", v)
		}
		b.SetLabel(int(v), string(name))
	}
	return b.Build()
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	buf.Write(b[:binary.PutUvarint(b[:], v)])
}
