package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"roadsocial/internal/mac"
	"roadsocial/internal/road"
)

// RSNAPv2: the zero-copy snapshot format. The payload is the in-memory
// representation — the road graph's CSR arrays and the G-tree's flat slabs
// as raw little-endian bytes, 8-byte aligned — so loading a file is mmap +
// header validation + slice fixup rather than element-by-element decoding.
// Full byte-level layout in docs/snapshot.md; in short:
//
//	off  0  magic "RSNAPv2\n"                      (8 bytes)
//	off  8  fileSize  uint64 LE                    (whole file, header included)
//	off 16  crc32     uint32 LE                    (IEEE, over bytes [24:fileSize))
//	off 20  sectionCount uint32 LE
//	off 24  section table: sectionCount × 24 bytes
//	        kind uint32 | reserved uint32 | off uint64 | len uint64
//	...     sections, each starting at an 8-byte-aligned offset,
//	        zero-padded up to the next section
//
// Variable-width content (the social graph, locations, G-tree topology)
// keeps a varint codec inside opaque byte sections; only the big flat
// arrays get the raw-slab treatment — they are where the decode time and
// the allocations were.

// snapshotMagicV2 identifies version 2 of the format.
const snapshotMagicV2 = "RSNAPv2\n"

// Section kinds. A v2 file carries sections 1–5 always, 6–8 when the
// network has a G-tree oracle, and 9 when the dataset has a non-zero
// mutation version; kinds outside this set are rejected (the format is
// versioned by magic, not by optional sections).
const (
	secSocial  = 1 // social graph, varint codec (opaque bytes)
	secLocs    = 2 // user locations, varint codec (opaque bytes)
	secRoadOff = 3 // road CSR offsets, int64[n+1]
	secRoadNbr = 4 // road CSR neighbor slab, int32[2m]
	secRoadWgt = 5 // road CSR weight slab, float64[2m]
	secGTMeta  = 6 // G-tree topology, varint codec (opaque bytes)
	secGTI32   = 7 // G-tree int32 slab (leaf table + per-node lists)
	secGTF64   = 8 // G-tree float64 slab (per-node distLeaf + mat)
	secVersion = 9 // dataset mutation version stamp, uint64 LE
)

const v2HeaderLen = 24
const v2TableEntryLen = 24

// hostLittleEndian reports whether the running machine stores integers
// little-endian. On big-endian hosts the loaders fall back to decode-copy
// and the writer to encode-copy; files are little-endian everywhere.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// alignedBuffer returns an n-byte slice whose base address is 8-byte
// aligned (it is backed by a []uint64), so slab views taken over it are
// correctly aligned for int64/float64 without depending on allocator luck.
func alignedBuffer(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }

// --- raw slab views (writer side) ---

// i64Bytes, i32Bytes, f64Bytes view a slab as its on-disk bytes. On a
// little-endian host the view is zero-copy (the file bytes ARE the array);
// on big-endian hosts the slab is re-encoded.
func i64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	b := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
	}
	return b
}

func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	b := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	}
	return b
}

func f64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	b := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[i*8:], math64bits(v))
	}
	return b
}

func math64bits(v float64) uint64 { return *(*uint64)(unsafe.Pointer(&v)) }

// --- raw slab views (loader side) ---

// viewI64 interprets section bytes as an int64 slab. Zero-copy when the
// host is little-endian and the base is 8-aligned (both hold for mmap'ed
// and alignedBuffer-backed data); decode-copy otherwise.
func viewI64(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("dataset: int64 section of %d bytes not a multiple of 8", len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func viewI32(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("dataset: int32 section of %d bytes not a multiple of 4", len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

func viewF64(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("dataset: float64 section of %d bytes not a multiple of 8", len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]float64, n)
	for i := range out {
		u := binary.LittleEndian.Uint64(b[i*8:])
		out[i] = *(*float64)(unsafe.Pointer(&u))
	}
	return out, nil
}

// --- writer ---

// writeSnapshotV2 serializes the network in the sectioned flat layout. Two
// passes over the same section list — one through the CRC, one through the
// writer — keep the whole thing streaming: nothing is concatenated, and on
// a little-endian host the big slabs go straight from the live arrays to w.
func writeSnapshotV2(w io.Writer, net *mac.Network, version uint64) error {
	if err := net.Validate(); err != nil {
		return err
	}
	var socialBuf bytes.Buffer
	if err := encodeSocial(&socialBuf, net.Social); err != nil {
		return err
	}
	var locBuf bytes.Buffer
	for _, l := range net.Locs {
		if err := road.EncodeLocation(&locBuf, l); err != nil {
			return err
		}
	}
	off, nbr, wgt := net.Road.CSR()
	type section struct {
		kind uint32
		data []byte
	}
	sections := []section{
		{secSocial, socialBuf.Bytes()},
		{secLocs, locBuf.Bytes()},
		{secRoadOff, i64Bytes(off)},
		{secRoadNbr, i32Bytes(nbr)},
		{secRoadWgt, f64Bytes(wgt)},
	}
	if gt, ok := net.Oracle.(*road.GTree); ok {
		flat := road.FlattenGTree(gt)
		sections = append(sections,
			section{secGTMeta, flat.Meta},
			section{secGTI32, i32Bytes(flat.I32)},
			section{secGTF64, f64Bytes(flat.F64)},
		)
	}
	if version > 0 {
		// The version stamp is omitted at zero so never-mutated snapshots
		// stay byte-identical to pre-stamp writers.
		var vb [8]byte
		binary.LittleEndian.PutUint64(vb[:], version)
		sections = append(sections, section{secVersion, vb[:]})
	}

	// Lay out the section table: each section starts 8-aligned, padded with
	// zeros up to the next. The table itself ends at 24 + 24·count, which
	// is already a multiple of 8.
	table := make([]byte, len(sections)*v2TableEntryLen)
	pads := make([]int, len(sections))
	cursor := uint64(v2HeaderLen + len(table))
	for i, s := range sections {
		e := table[i*v2TableEntryLen:]
		binary.LittleEndian.PutUint32(e[0:4], s.kind)
		binary.LittleEndian.PutUint32(e[4:8], 0)
		binary.LittleEndian.PutUint64(e[8:16], cursor)
		binary.LittleEndian.PutUint64(e[16:24], uint64(len(s.data)))
		end := cursor + uint64(len(s.data))
		cursor = align8(end)
		pads[i] = int(cursor - end)
	}
	fileSize := cursor

	var zeros [8]byte
	crc := crc32.NewIEEE()
	crc.Write(table)
	for i, s := range sections {
		crc.Write(s.data)
		crc.Write(zeros[:pads[i]])
	}

	var header [v2HeaderLen]byte
	copy(header[0:8], snapshotMagicV2)
	binary.LittleEndian.PutUint64(header[8:16], fileSize)
	binary.LittleEndian.PutUint32(header[16:20], crc.Sum32())
	binary.LittleEndian.PutUint32(header[20:24], uint32(len(sections)))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	if _, err := w.Write(table); err != nil {
		return err
	}
	for i, s := range sections {
		if _, err := w.Write(s.data); err != nil {
			return err
		}
		if _, err := w.Write(zeros[:pads[i]]); err != nil {
			return err
		}
	}
	return nil
}

// --- loader ---

// readSnapshotV2 is the buffered entry point (HTTP bodies, shard moves):
// the caller consumed the 8 magic bytes; the rest is read — CopyN into a
// growing buffer, so a crafted size field costs bytes actually sent — then
// copied once into an 8-aligned buffer and loaded in place. Zero-copy in
// the mmap sense is reserved for ReadSnapshotFile; here a single aligned
// copy stands in for per-element decoding and allocation.
func readSnapshotV2(r io.Reader, maxBytes int64) (*mac.Network, uint64, error) {
	var rest [16]byte
	if _, err := io.ReadFull(r, rest[:]); err != nil {
		return nil, 0, fmt.Errorf("dataset: snapshot header: %w", err)
	}
	fileSize := binary.LittleEndian.Uint64(rest[0:8])
	if fileSize < v2HeaderLen {
		return nil, 0, fmt.Errorf("dataset: snapshot declares %d bytes, below the %d-byte header", fileSize, v2HeaderLen)
	}
	if fileSize > uint64(maxBytes) {
		return nil, 0, fmt.Errorf("dataset: snapshot of %d bytes exceeds the %d limit", fileSize, maxBytes)
	}
	var body bytes.Buffer
	if n, err := io.CopyN(&body, r, int64(fileSize-v2HeaderLen)); err != nil {
		return nil, 0, fmt.Errorf("dataset: snapshot truncated at byte %d of %d: %w", uint64(n)+v2HeaderLen, fileSize, err)
	}
	data := alignedBuffer(int(fileSize))
	copy(data[0:8], snapshotMagicV2)
	copy(data[8:v2HeaderLen], rest[:])
	copy(data[v2HeaderLen:], body.Bytes())
	return loadSnapshotV2(data, nil)
}

// loadSnapshotV2 validates a complete v2 image and builds the network over
// it without copying the flat sections: the CSR arrays and G-tree slabs are
// unsafe.Slice views into data (when the host is little-endian; decode-copy
// otherwise). pin, when non-nil, is attached to the road graph so whatever
// owns data — the mmap holder — stays reachable for as long as any search
// can still reach the loaded network.
//
// Everything is validated before use: sizes, alignment, CRC, section
// bounds, and (inside GraphFromCSR / GTreeFromFlat) every value a traversal
// will index by. A corrupted file errors out cleanly; it never panics and
// never maps garbage into a live dataset.
func loadSnapshotV2(data []byte, pin any) (*mac.Network, uint64, error) {
	if len(data) < v2HeaderLen {
		return nil, 0, fmt.Errorf("dataset: snapshot of %d bytes, below the %d-byte header", len(data), v2HeaderLen)
	}
	if string(data[0:8]) != snapshotMagicV2 {
		return nil, 0, fmt.Errorf("dataset: not a v2 snapshot: magic %q", data[0:8])
	}
	fileSize := binary.LittleEndian.Uint64(data[8:16])
	if fileSize != uint64(len(data)) {
		return nil, 0, fmt.Errorf("dataset: snapshot declares %d bytes, file has %d", fileSize, len(data))
	}
	if got, want := crc32.ChecksumIEEE(data[v2HeaderLen:]), binary.LittleEndian.Uint32(data[16:20]); got != want {
		return nil, 0, fmt.Errorf("dataset: snapshot checksum mismatch (got %08x, want %08x)", got, want)
	}
	count := binary.LittleEndian.Uint32(data[20:24])
	tableEnd := uint64(v2HeaderLen) + uint64(count)*v2TableEntryLen
	if count == 0 || tableEnd > fileSize {
		return nil, 0, fmt.Errorf("dataset: snapshot section table of %d entries exceeds the %d-byte file", count, fileSize)
	}
	secs := make(map[uint32][]byte, count)
	for i := uint32(0); i < count; i++ {
		e := data[v2HeaderLen+uint64(i)*v2TableEntryLen:]
		kind := binary.LittleEndian.Uint32(e[0:4])
		off := binary.LittleEndian.Uint64(e[8:16])
		length := binary.LittleEndian.Uint64(e[16:24])
		if kind < secSocial || kind > secVersion {
			return nil, 0, fmt.Errorf("dataset: snapshot section %d has unknown kind %d", i, kind)
		}
		if _, dup := secs[kind]; dup {
			return nil, 0, fmt.Errorf("dataset: snapshot carries duplicate section kind %d", kind)
		}
		if off%8 != 0 {
			return nil, 0, fmt.Errorf("dataset: snapshot section kind %d at misaligned offset %d", kind, off)
		}
		if off < tableEnd || off > fileSize || length > fileSize-off {
			return nil, 0, fmt.Errorf("dataset: snapshot section kind %d spans [%d,%d+%d) outside the %d-byte file", kind, off, off, length, fileSize)
		}
		secs[kind] = data[off : off+length : off+length]
	}
	need := func(kind uint32, what string) ([]byte, error) {
		s, ok := secs[kind]
		if !ok {
			return nil, fmt.Errorf("dataset: snapshot missing %s section (kind %d)", what, kind)
		}
		return s, nil
	}

	var version uint64
	if vs, ok := secs[secVersion]; ok {
		if len(vs) != 8 {
			return nil, 0, fmt.Errorf("dataset: snapshot version section of %d bytes, want 8", len(vs))
		}
		version = binary.LittleEndian.Uint64(vs)
	}

	socialSec, err := need(secSocial, "social")
	if err != nil {
		return nil, 0, err
	}
	sr := bytes.NewReader(socialSec)
	gs, err := decodeSocial(sr)
	if err != nil {
		return nil, 0, err
	}
	if sr.Len() != 0 {
		return nil, 0, fmt.Errorf("dataset: snapshot social section carries %d trailing bytes", sr.Len())
	}

	offSec, err := need(secRoadOff, "road offsets")
	if err != nil {
		return nil, 0, err
	}
	nbrSec, err := need(secRoadNbr, "road neighbors")
	if err != nil {
		return nil, 0, err
	}
	wgtSec, err := need(secRoadWgt, "road weights")
	if err != nil {
		return nil, 0, err
	}
	off, err := viewI64(offSec)
	if err != nil {
		return nil, 0, err
	}
	nbr, err := viewI32(nbrSec)
	if err != nil {
		return nil, 0, err
	}
	wgt, err := viewF64(wgtSec)
	if err != nil {
		return nil, 0, err
	}
	gr, err := road.GraphFromCSR(off, nbr, wgt)
	if err != nil {
		return nil, 0, err
	}
	if pin != nil {
		gr.Pin(pin)
	}

	locSec, err := need(secLocs, "locations")
	if err != nil {
		return nil, 0, err
	}
	lr := bytes.NewReader(locSec)
	locs := make([]road.Location, gs.N())
	for i := range locs {
		if locs[i], err = road.DecodeLocation(lr, gr); err != nil {
			return nil, 0, fmt.Errorf("dataset: snapshot location %d: %w", i, err)
		}
	}
	if lr.Len() != 0 {
		return nil, 0, fmt.Errorf("dataset: snapshot location section carries %d trailing bytes", lr.Len())
	}

	net := &mac.Network{Social: gs, Road: gr, Locs: locs}
	if metaSec, ok := secs[secGTMeta]; ok {
		i32Sec, err := need(secGTI32, "gtree int32 slab")
		if err != nil {
			return nil, 0, err
		}
		f64Sec, err := need(secGTF64, "gtree float64 slab")
		if err != nil {
			return nil, 0, err
		}
		i32, err := viewI32(i32Sec)
		if err != nil {
			return nil, 0, err
		}
		f64, err := viewF64(f64Sec)
		if err != nil {
			return nil, 0, err
		}
		gt, err := road.GTreeFromFlat(gr, road.FlatGTree{Meta: metaSec, I32: i32, F64: f64})
		if err != nil {
			return nil, 0, err
		}
		net.Oracle = gt
	} else if _, ok := secs[secGTI32]; ok {
		return nil, 0, fmt.Errorf("dataset: snapshot carries gtree slabs without topology")
	} else if _, ok := secs[secGTF64]; ok {
		return nil, 0, fmt.Errorf("dataset: snapshot carries gtree slabs without topology")
	}
	return net, version, net.Validate()
}
