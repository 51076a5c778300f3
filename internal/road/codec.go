package road

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary codec for user locations on the road graph, used by the snapshot's
// location section. The encoding is little-endian with uvarint framing and
// raw IEEE-754 bits for every float, so a decoded location is bit-identical
// to the encoded one. The dataset package wraps it into the versioned,
// checksummed network snapshot.

// byteWriter is the writer contract of the codec; bytes.Buffer and
// bufio.Writer both satisfy it.
type byteWriter interface {
	io.Writer
	io.ByteWriter
}

// EncodeLocation writes one user location: a vertex id for on-vertex
// locations, or the edge endpoints plus the offset.
func EncodeLocation(w byteWriter, l Location) error {
	if l.OnVertex() {
		if err := w.WriteByte(0); err != nil {
			return err
		}
		putUvarint(w, uint64(l.U))
		return nil
	}
	if err := w.WriteByte(1); err != nil {
		return err
	}
	putUvarint(w, uint64(l.U))
	putUvarint(w, uint64(l.V))
	return putFloat(w, l.Off)
}

// DecodeLocation reads a location against g (edge locations re-derive the
// cached edge weight, and fail if the graph lacks the edge).
func DecodeLocation(r *bytes.Reader, g *Graph) (Location, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return Location{}, err
	}
	switch kind {
	case 0:
		v, err := getUvarint(r)
		if err != nil {
			return Location{}, err
		}
		if v >= uint64(g.N()) {
			return Location{}, fmt.Errorf("road: location vertex %d out of range", v)
		}
		return VertexLocation(int(v)), nil
	case 1:
		u, err1 := getUvarint(r)
		v, err2 := getUvarint(r)
		off, err3 := getFloat(r)
		if err1 != nil || err2 != nil || err3 != nil {
			return Location{}, fmt.Errorf("road: edge location truncated")
		}
		return g.EdgeLocation(int(u), int(v), off)
	default:
		return Location{}, fmt.Errorf("road: unknown location kind %d", kind)
	}
}

// --- primitives ---

func putUvarint(w io.ByteWriter, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	for _, b := range buf[:n] {
		_ = w.WriteByte(b)
	}
}

func getUvarint(r io.ByteReader) (uint64, error) {
	return binary.ReadUvarint(r)
}

func putFloat(w io.Writer, v float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	_, err := w.Write(buf[:])
	return err
}

func getFloat(r io.ByteReader) (float64, error) {
	var buf [8]byte
	for i := range buf {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		buf[i] = b
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}
